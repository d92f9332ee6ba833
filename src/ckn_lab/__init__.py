"""Numerical laboratory for a sharp fourth-order weighted critical inequality.

The package computes the closed-form sharp constants and extremal
profiles of the radial problem, certifies where minimizers stop being
radial (three independent spectral/variational witnesses), and verifies
the supporting integral identities to near machine precision.
"""

from .identities import (
    TestFunction,
    check_boundary_sharp_constant,
    check_cross_term_identity,
    check_divergence_expansion,
    check_eta_substitution,
    check_laplacian_bound,
    check_pohozaev_identity,
    check_rellich_sobolev,
    rellich_sobolev_constants,
    rellich_sobolev_extremal,
)
from .params import (
    ParamError,
    Params,
    RegionClass,
    beta_fs,
    classify,
    derive,
    fs_correspondence,
    hardy_comparison_constants,
    rellich_infimum,
    sphere_area,
    validate,
)
from .profiles import (
    ExtremalProfile,
    GaussianProfile,
    PowerPeakProfile,
    amplitude_constant,
    cosh_profile_residual,
    emden_fowler,
    euler_lagrange_residual,
    extremal,
    kernel_mode,
    s_0_closed,
    s_r_closed,
)
from .quadrature import (
    AccuracyError,
    DivergentIntegralError,
    integrate_semiinfinite,
    norm_sq,
    norm_star,
    quotient_radial,
)
from .specfun import DomainError
from .spectral import (
    BracketError,
    ConditioningError,
    ModeData,
    RitzResult,
    fs_locate,
    mode_data,
    mode_eigenvalue,
    mode_quadratic_form,
    ritz_min_eig,
)
from .variation import (
    BreakingCertificate,
    SecondVariation,
    Verdict,
    certify,
    directional_quotient,
    second_variation,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BracketError",
    "BreakingCertificate",
    "CheckResult",
    "ConditioningError",
    "DivergentIntegralError",
    "DomainError",
    "ExtremalProfile",
    "GaussianProfile",
    "ModeData",
    "ParamError",
    "Params",
    "PowerPeakProfile",
    "RegionClass",
    "RitzResult",
    "SecondVariation",
    "TestFunction",
    "Verdict",
    "amplitude_constant",
    "beta_fs",
    "certify",
    "check_boundary_sharp_constant",
    "check_cross_term_identity",
    "check_divergence_expansion",
    "check_eta_substitution",
    "check_laplacian_bound",
    "check_pohozaev_identity",
    "check_rellich_sobolev",
    "classify",
    "cosh_profile_residual",
    "derive",
    "directional_quotient",
    "emden_fowler",
    "euler_lagrange_residual",
    "extremal",
    "fs_correspondence",
    "fs_locate",
    "hardy_comparison_constants",
    "integrate_semiinfinite",
    "kernel_mode",
    "mode_data",
    "mode_eigenvalue",
    "mode_quadratic_form",
    "norm_sq",
    "norm_star",
    "quotient_radial",
    "rellich_infimum",
    "rellich_sobolev_constants",
    "rellich_sobolev_extremal",
    "ritz_min_eig",
    "run_all",
    "s_0_closed",
    "s_r_closed",
    "second_variation",
    "sphere_area",
    "validate",
    "__version__",
]
