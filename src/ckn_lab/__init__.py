"""Numerical laboratory for a sharp fourth-order weighted critical inequality.

The package computes the closed-form sharp constants and extremal
profiles of the radial problem, certifies where minimizers stop being
radial (three independent spectral/variational witnesses), and verifies
the supporting integral identities to near machine precision.

Each exported name is imported from its module on first access (PEP 562),
so ``import ckn_lab`` loads no numerical layer and no numpy.
"""

import importlib

__version__ = "0.1.0"

#: each exported name and the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("identities", ("TestFunction", "check_boundary_sharp_constant", "check_cross_term_identity",
                        "check_divergence_expansion", "check_eta_substitution", "check_laplacian_bound",
                        "check_pohozaev_identity", "check_rellich_sobolev", "rellich_sobolev_constants",
                        "rellich_sobolev_extremal")),
        ("params", ("ParamError", "Params", "RegionClass", "amplitude_constant", "beta_fs", "classify",
                    "derive", "fs_correspondence", "hardy_comparison_constants", "rellich_infimum",
                    "s_0_closed", "s_r_closed", "sphere_area", "validate")),
        ("profiles", ("GaussianProfile", "PowerPeakProfile", "cosh_profile_residual", "emden_fowler",
                      "euler_lagrange_residual", "extremal")),
        ("quadrature", ("integrate_semiinfinite", "quotient_radial")),
        ("specfun", ("AccuracyError", "BracketError", "ConditioningError", "DivergentIntegralError",
                     "DomainError")),
        ("spectral", ("Mode", "RitzResult", "fs_locate", "mode", "mode_eigenvalue",
                      "mode_quadratic_form", "ritz_min_eig")),
        ("variation", ("BreakingCertificate", "SecondVariation", "Verdict", "certify",
                       "directional_quotient", "second_variation")),
        ("verify", ("CheckResult", "run_all")),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
