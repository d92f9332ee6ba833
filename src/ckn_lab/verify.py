"""The ten checks of the package's analytic claims, each stated once.

Each check re-derives one claim numerically on one grid against one
bound and reports pass/fail with a short detail string.  `CHECKS` holds
them in the order of acceptance criteria 01-10: the acceptance gate runs
entry n-1 as criterion n, and `run_all` (behind `verify-all`) runs them
all.

The `perturb` argument is a sensitivity hook for the test suite: it
multiplies one closed-form constant inside one check by (1 + perturb),
so any nonzero value must make the battery fail (proving the harness
actually compares things).

Worst cases accumulate with `np.maximum`, which returns NaN when either
argument is NaN; the built-in `max(0.0, nan)` returns 0.0 and would let
a NaN defect pass its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identities import (
    BATTERY_POINTS,
    BATTERY_PROFILES,
    TestFunction,
    check_boundary_sharp_constant,
    check_cross_term_identity,
    check_divergence_expansion,
    check_eta_substitution,
    check_laplacian_bound,
    check_pohozaev_identity,
    check_rellich_sobolev,
    rellich_sobolev_extremal,
)
from .params import beta_fs, derive, fs_correspondence, validate
from .profiles import (
    DEFAULT_RESIDUAL_SAMPLES,
    PowerPeakProfile,
    cosh_profile_residual,
    euler_lagrange_residual,
    extremal,
    s_0_closed,
    s_r_closed,
)
from .quadrature import integrate_semiinfinite, power_weighted, quotient_radial
from .spectral import _potential_constant, fs_locate, mode_quadratic_form, ritz_min_eig
from .variation import Verdict, certify, second_variation

__all__ = ["CheckResult", "CHECKS", "run_all", "EXTREMALITY_POINTS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


#: Ten parameter points spanning every region class that carries a radial
#: extremal (interior breaking, interior symmetric, classical origin, both
#: upper-boundary signs, deep negative alpha, larger N).
EXTREMALITY_POINTS = (
    (5, 0.0, 0.0),
    (5, 1.0, 1.0),
    (5, 1.0, 0.3),
    (5, 1.0, 5.0 / 3.0),
    (5, -1.0, -5.0 / 3.0),
    (5, -1.0, -1.7),
    (6, 1.0, 0.5),
    (6, 2.0, 2.5),
    (7, 2.0, 1.3),
    (8, -2.0, -8.0 / 3.0),
)

#: 48 points straddling the transition curve on both sides.
SIGN_LAW_GRID = tuple(
    (N, a, beta_fs(N, a) + offset)
    for a in (0.5, 1.0, 2.0, 3.0)
    for N in (5, 6)
    for offset in (-0.3, -0.15, -0.05, 0.05, 0.15, 0.25)
)

#: (N, alpha < 0) pairs of the eta substitution and the upper boundary line.
NEGATIVE_ALPHA_PAIRS = ((5, -1.0), (6, -0.5), (8, -2.0))


def _check_closed_forms(perturb: float) -> CheckResult:
    worst = 0.0
    for N in range(5, 11):
        s_plain = s_0_closed(N)
        s_general = s_r_closed(validate(N, 0.0, 0.0)) * (1.0 + perturb)
        worst = np.maximum(worst, abs(s_general - s_plain) / s_plain)
    return CheckResult(
        "closed_form_consistency", worst < 1e-12, f"max rel defect {worst:.3e}"
    )


def _check_extremality(perturb: float) -> CheckResult:
    worst = 0.0
    for N, a, b in EXTREMALITY_POINTS:
        p = validate(N, a, b)
        gap = abs(quotient_radial(extremal(p), p) - s_r_closed(p)) / s_r_closed(p)
        worst = np.maximum(worst, gap)
    return CheckResult("extremality", worst < 1e-6, f"max rel defect {worst:.3e}")


def _check_euler_lagrange(perturb: float) -> CheckResult:
    # the default radii on [1e-2, 1e2] and 25 more on [0.05, 20]
    radii = np.concatenate((DEFAULT_RESIDUAL_SAMPLES, np.geomspace(0.05, 20.0, 25)))
    worst = 0.0
    for N, a, b in EXTREMALITY_POINTS:
        p = validate(N, a, b)
        worst = np.maximum(worst, euler_lagrange_residual(extremal(p), p, radii))
    return CheckResult("euler_lagrange_residual", worst < 1e-8, f"max {worst:.3e}")


def _check_transform_chain(perturb: float) -> CheckResult:
    ts = np.concatenate((np.linspace(-6.0, 6.0, 101), np.linspace(-8.0, 8.0, 161)))
    worst = 0.0
    for m in (4.5, 5.0, 6.0, 8.0):
        worst = np.maximum(worst, np.max(np.abs(cosh_profile_residual(m, ts))))
    return CheckResult("transform_closed_form", worst < 1e-6, f"max {worst:.3e}")


def _check_fs_recoveries(perturb: float) -> CheckResult:
    worst_first_order = 0.0
    worst_spectral = 0.0
    for N, a in ((N, a) for N in (5, 6) for a in (0.5, 1.0, 2.0)):
        closed = beta_fs(N, a)
        mapped = fs_correspondence(N, a).beta_mapped
        worst_first_order = np.maximum(worst_first_order, abs(mapped - closed))
        located = fs_locate(N, a, 1e-4)
        worst_spectral = np.maximum(worst_spectral, abs(located - closed))
    ok = worst_first_order < 1e-10 and worst_spectral < 1e-4
    return CheckResult(
        "fs_curve_recoveries",
        ok,
        f"first-order {worst_first_order:.3e}, spectral {worst_spectral:.3e}",
    )


def _check_sign_law(perturb: float) -> CheckResult:
    # the sign must be nonzero and equal both the side of the curve and
    # the closed-form law q^2 (N-1) - (M-1)
    bad = []
    for N, a, b in SIGN_LAW_GRID:
        p = validate(N, a, b)
        d = derive(p)
        value = second_variation(p).value
        side = np.sign(beta_fs(N, a) - b)
        law = np.sign(d.q * d.q * (N - 1.0) - (d.M - 1.0))
        # np.sign maps NaN to NaN, which equals no sign
        if value == 0.0 or not np.sign(value) == side == law:
            bad.append((N, a, b))
    return CheckResult(
        "second_variation_sign_law",
        not bad,
        f"all {len(SIGN_LAW_GRID)} signs match curve side and law"
        if not bad
        else f"sign mismatches at {bad}",
    )


def _check_certificate(perturb: float) -> CheckResult:
    cert = certify(validate(5, 1.0, 1.0))
    ok = (
        cert.verdict is Verdict.BREAKING
        and not cert.discrepancies
        and cert.witness_signs == (-1, -1, -1)
    )
    return CheckResult(
        "breaking_certificate",
        ok,
        f"verdict {cert.verdict.value}, signs {cert.witness_signs}",
    )


def _check_kernel_at_curve(perturb: float) -> CheckResult:
    N, a = 5, 1.0
    curve = beta_fs(N, a)
    p = validate(N, a, curve)
    m = derive(p).M
    x1 = PowerPeakProfile([(1.0, 1, -(m - 2.0) / 2.0)], sigma=2, nu=1.0)
    q1 = mode_quadratic_form(x1, 1, p)
    # Relative to the (positive) zero-order part of the form, which equals
    # the operator part when the form vanishes.
    pot = integrate_semiinfinite(
        lambda s: power_weighted(x1.eval(s) / (1.0 + s * s) ** 2, s, 2.0, m - 1.0)
    ).value
    rel = abs(q1) / (_potential_constant(m) * pot)
    rho2 = ritz_min_eig(2, p, 16).min_eigenvalue
    below = ritz_min_eig(1, validate(N, a, curve - 0.05), 16).min_eigenvalue
    above = ritz_min_eig(1, validate(N, a, curve + 0.05), 16).min_eigenvalue
    ok = rel < 1e-8 and rho2 > 0.0 and below > 0.0 and above < 0.0
    return CheckResult(
        "kernel_at_curve",
        ok,
        f"rel |Q1(X1)| {rel:.3e}, rho2 {rho2:.3e}, bracket ({below:.3e}, {above:.3e})",
    )


def _check_identity_battery(perturb: float) -> CheckResult:
    worst = 0.0
    bound_failures = []
    for N, a, b in BATTERY_POINTS:
        p = validate(N, a, b)
        for _, prof in BATTERY_PROFILES:
            for k in (0, 1):
                u = TestFunction(prof, k)
                ratio, bound, ok = check_laplacian_bound(u, p)
                ok = ok and ratio <= bound * (1.0 + 1e-12)
                if a == 0.0:  # unweighted: the bound is an identity
                    ok = ok and bound == 1.0 and abs(ratio - 1.0) <= 1e-10
                if not ok:
                    bound_failures.append((N, a, b, k))
                worst = np.maximum(worst, check_divergence_expansion(u, p))
                worst = np.maximum(worst, check_pohozaev_identity(u, N))
                if k == 0:
                    worst = np.maximum(worst, check_cross_term_identity(u, p))
    eta_profile = TestFunction(PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0))
    for N, a in NEGATIVE_ALPHA_PAIRS:
        worst = np.maximum(worst, check_eta_substitution(eta_profile, N, a))
    detail = f"max defect {worst:.3e}"
    if bound_failures:
        detail += f", laplacian bound fails at {bound_failures}"
    return CheckResult("identity_battery", worst < 1e-8 and not bound_failures, detail)


def _check_boundary_equality(perturb: float) -> CheckResult:
    worst = consistency = 0.0
    for N, a in NEGATIVE_ALPHA_PAIRS:
        _, constant, defect = check_boundary_sharp_constant(N, a)
        specialized = s_r_closed(validate(N, a, N * a / (N - 2.0)))
        consistency = np.maximum(consistency, abs(specialized - constant) / constant)
        worst = np.maximum(worst, defect)
    mu = 1.0 / 3.0
    all_ok = True
    for amplitude, nu in ((1.0, 1.0), (3.0, 2.5)):
        v = rellich_sobolev_extremal(5, mu, amplitude, nu)
        lhs, rhs, ok = check_rellich_sobolev(v, 5, mu)
        all_ok = all_ok and ok
        worst = np.maximum(worst, abs(lhs / rhs - 1.0))
    ok = all_ok and worst < 1e-6 and consistency < 1e-10
    detail = f"max defect {worst:.3e}, closed-form consistency {consistency:.3e}"
    return CheckResult("boundary_equality", ok, detail)


#: The checks in the order of acceptance criteria 01-10.
CHECKS = (
    _check_closed_forms,
    _check_extremality,
    _check_euler_lagrange,
    _check_transform_chain,
    _check_fs_recoveries,
    _check_sign_law,
    _check_certificate,
    _check_kernel_at_curve,
    _check_identity_battery,
    _check_boundary_equality,
)


def run_all(perturb: float = 0.0) -> list[CheckResult]:
    return [check(perturb) for check in CHECKS]
