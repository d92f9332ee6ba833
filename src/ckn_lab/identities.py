"""Numerical verification of the integral identities behind the inequality.

Every identity is checked on separated test functions u = f(r) Y_k(x/|x|)
with Y_k a degree-k spherical harmonic.  Angular integrals are then exact
(orthonormality), so each N-dimensional statement reduces to 1D radial
quadrature and verifies to near machine precision — no Monte Carlo noise.
Both sides of a quadratic identity carry the same harmonic normalization
factor, which therefore cancels and is omitted throughout.

Mode-k reduction rules used below, for u = f(r) Y_k and lam_k =
`harmonic_eigenvalue(N, k)`:

    div(|x|^a grad u)    -> r^a mode_operator(f.jet(r, 2), r, N-1+a, lam_k)   (a = 0: Delta u)
    |grad u|^2           -> (f')^2 + lam_k f^2/r^2
    x . grad u           -> r f'
"""

from __future__ import annotations

from typing import NamedTuple

from .params import (
    Params,
    _dimension,
    _index,
    beta_strip,
    harmonic_eigenvalue,
    hardy_comparison_constants,
    s_0_closed,
    sphere_area,
    validate,
)
from .profiles import GaussianProfile, PowerPeakProfile, RadialProfile, extremal
from .quadrature import integrate_rows, mode_operator, power_weighted, quotient_radial, signed_weighted
from .specfun import DomainError

__all__ = [
    "TestFunction",
    "ShiftConstants",
    "BATTERY_PROFILES",
    "BATTERY_POINTS",
    "check_laplacian_bound",
    "check_cross_term_identity",
    "check_divergence_expansion",
    "check_pohozaev_identity",
    "rellich_sobolev_constants",
    "check_eta_substitution",
    "rellich_sobolev_extremal",
    "check_rellich_sobolev",
    "check_boundary_sharp_constant",
]


class TestFunction(NamedTuple("TestFunction", [("radial_part", RadialProfile), ("mode_k", int)])):
    """A separated test function: radial factor times the mode-k harmonic."""

    __slots__ = ()
    __test__ = False  # calculus-of-variations noun, not a pytest suite
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, radial_part: RadialProfile, mode_k: int = 0):
        return super().__new__(cls, radial_part, _index(mode_k, "mode index"))


#: Fixed battery: varied decay rates, origin behavior, and families.
BATTERY_PROFILES = (
    ("inverse_square_2", PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0)),
    ("inverse_square_3", PowerPeakProfile([(1.0, 0, -3)], sigma=2, nu=1.0)),
    ("gaussian", GaussianProfile([(1.0, 0.0)])),
    ("bump_r2", PowerPeakProfile([(1.0, 2, -4)], sigma=2, nu=1.0)),
    ("quartic_peak", PowerPeakProfile([(1.0, 0, -1.5)], sigma=4, nu=1.0)),
)

#: Fixed parameter points; all keep N + 2*alpha - beta inside (4, 12) so
#: that every integral in the battery converges for every profile above.
BATTERY_POINTS = (
    (5, 0.0, 0.0),
    (5, 1.0, 1.0),
    (5, 0.5, 0.2),
    (6, 1.0, 0.5),
    (5, -1.0, -1.7),
)


def check_laplacian_bound(u: TestFunction, p: Params):
    """Pure-Laplacian energy vs the full weighted energy.

    Returns (ratio, bound, passed): ratio of int |x|^(2a-b) |Delta u|^2 to
    the squared weighted norm, the closed-form comparison constant, and
    whether ratio <= bound + 1e-10 and ratio <= bound (1 + 1e-12).  At alpha = 0
    the two energies are one integral: passing also needs bound == 1 and ratio 1 to 1e-10.
    """
    f = u.radial_part
    lam = harmonic_eigenvalue(p.N, u.mode_k)
    w = 2.0 * p.alpha - p.beta + p.N - 1.0

    def rows(r):
        jet = f.jet(r, 2)
        return [power_weighted(mode_operator(jet, r, p.N - 1.0 + a, lam), r, 2.0, w) for a in (0.0, p.alpha)]

    numerator, denominator = (res.value for res in integrate_rows(rows))
    if denominator == 0.0:
        raise DomainError("test function annihilated by the weighted operator")
    ratio = numerator / denominator
    bound = hardy_comparison_constants(p).bound_c
    passed = ratio <= bound + 1e-10 and ratio <= bound * (1.0 + 1e-12)
    if p.alpha == 0.0:  # unweighted: the bound is an identity
        passed = passed and bound == 1.0 and abs(ratio - 1.0) <= 1e-10
    return ratio, bound, passed


def check_cross_term_identity(u: TestFunction, p: Params) -> float:
    """First-order/zeroth-order splitting of the mixed energy term.

    For radial u, the cross integral of the weighted operator against u
    equals a Hardy-type zeroth-order term plus the weighted gradient:

        -int r^(2a-b-2) [f'' + (N-1+a)f'/r] f r^(N-1) dr
          = (2+b-a)(N+2a-b-4)/2 * int r^(2a-b-4) f^2 r^(N-1) dr
            + int r^(2a-b-2) (f')^2 r^(N-1) dr

    Returns |LHS - RHS| / (|LHS| + |RHS|), 0 for the zero function.
    """
    if u.mode_k != 0:
        raise DomainError("cross-term identity applies to radial test functions")
    f = u.radial_part
    drift = p.N - 1.0 + p.alpha
    base = 2.0 * p.alpha - p.beta + p.N - 1.0

    def rows(r):
        jet = f.jet(r, 2)
        return (
            signed_weighted(-mode_operator(jet, r, drift, 0.0) * jet[0], r, base - 2.0),
            power_weighted(jet[0], r, 2.0, base - 4.0),
            power_weighted(jet[1], r, 2.0, base - 2.0),
        )

    lhs, zeroth, gradient = (res.value for res in integrate_rows(rows))
    coeff = (2.0 + p.beta - p.alpha) * (p.N + 2.0 * p.alpha - p.beta - 4.0) / 2.0
    rhs = coeff * zeroth + gradient
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def check_divergence_expansion(u: TestFunction, p: Params) -> float:
    """Three-term expansion of the weighted energy.

    div(|x|^a grad u) = |x|^a Delta u + a |x|^(a-2) (x . grad u), so the
    squared weighted norm expands into Laplacian, cross, and radial-
    gradient terms.  Returns the relative defect; exactly 0 at alpha = 0.
    """
    f = u.radial_part
    lam = harmonic_eigenvalue(p.N, u.mode_k)
    base = 2.0 * p.alpha - p.beta + p.N - 1.0

    def rows(r):  # lhs and the pure-Laplacian, cross and radial-gradient terms
        jet = f.jet(r, 2)
        laplacian = mode_operator(jet, r, p.N - 1.0, lam)
        out = [power_weighted(mode_operator(jet, r, p.N - 1.0 + p.alpha, lam), r, 2.0, base)]
        out.append(power_weighted(laplacian, r, 2.0, base))
        if p.alpha != 0.0:
            out += [signed_weighted(laplacian * jet[1], r, base - 1.0), power_weighted(jet[1], r, 2.0, base - 2.0)]
        return out

    lhs, pure, *terms = (res.value for res in integrate_rows(rows))
    if p.alpha == 0.0:
        rhs = pure
    else:
        cross, radial_sq = terms
        rhs = pure + 2.0 * p.alpha * cross + p.alpha**2 * radial_sq
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def check_pohozaev_identity(v: TestFunction, N: int) -> float:
    """Scaling identity for the inverse-square-weighted gradient energy.

    (N-4) int |x|^(-2) |grad v|^2 = 2 int (x . grad v) div(|x|^(-2) grad v);
    mode-k reduced, returns the relative defect.
    """
    N = _dimension(N)
    f = v.radial_part
    lam = harmonic_eigenvalue(N, v.mode_k)

    def rows(r):
        jet = f.jet(r, 2)
        grad_sq = power_weighted(jet[1], r, 2.0, N - 3.0)
        if lam != 0.0:
            grad_sq = grad_sq + lam * power_weighted(jet[0], r, 2.0, N - 5.0)
        return grad_sq, signed_weighted(jet[1] * mode_operator(jet, r, N - 3.0, lam), r, N - 2.0)

    lhs, rhs = (c * res.value for c, res in zip((N - 4.0, 2.0), integrate_rows(rows)))
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


# ---------------------------------------------------------------------------
# Negative-alpha regime: shifted Rellich--Sobolev reduction
# ---------------------------------------------------------------------------


class ShiftConstants(NamedTuple):
    """Constants of the power-shift reduction for 2-N < alpha < 0.

    mu5 is the shift exponent in (0, N-4); c_mu1 and c_mu2 are the
    coefficients of the Hardy-type intermediate terms; eta is the power
    of the substitution u = |x|^eta v that equalizes the critical norms.
    """

    mu5: float
    c_mu1: float
    c_mu2: float
    eta: float


def _negative_alpha(N: int, alpha: float) -> int:
    """N as a dimension where 2 - N < alpha < 0, the regime of the shift reduction; DomainError otherwise."""
    N = _dimension(N)
    if not (2 - N < alpha < 0):
        raise DomainError(f"shift reduction needs 2 - N < alpha < 0, got alpha={alpha} at N={N}")
    return N


def _shift_dimension(N: int, mu: float) -> int:
    """N as a dimension where the shift exponent mu lies in (0, N - 4); DomainError otherwise."""
    N = _dimension(N)
    if not (0.0 < mu < N - 4.0):
        raise DomainError(f"shift exponent must lie in (0, {N - 4}), got {mu}")
    return N


def _shift_coefficients(N: int, mu: float):
    core = mu * (2.0 * (N - 4.0) - mu)
    c1 = (N * N - 4.0 * N + 8.0) / (2.0 * (N - 4.0) ** 2) * core
    c2 = N * N / (16.0 * (N - 4.0) ** 2) * core**2 - (N - 2.0) / 2.0 * core
    return c1, c2


def rellich_sobolev_constants(N: int, alpha: float) -> ShiftConstants:
    N = _negative_alpha(N, alpha)
    mu = (N - 4.0) * alpha / (2.0 - N)
    c1, c2 = _shift_coefficients(_shift_dimension(N, mu), mu)  # mu may round onto an end of (0, N-4)
    eta = -(N - 4.0) * alpha / (2.0 * (N - 2.0))
    return ShiftConstants(mu5=mu, c_mu1=c1, c_mu2=c2, eta=eta)


def check_eta_substitution(N: int, alpha: float) -> float:
    """Equality of critical norms under the power substitution u = |x|^eta v.

    |x|^(N*alpha/(N-2)) |u|^(2N/(N-4)) = |x|^w |v|^(2N/(N-4)) with
    w = N*alpha/(N-2) + eta * 2N/(N-4), and the norms agree for every v
    because w = 0.  Returns |w| relative to its two terms (rounding only).
    """
    shift = rellich_sobolev_constants(N, alpha).eta * (2.0 * N / (N - 4.0))
    hi = beta_strip(N, alpha)[1]
    return abs(hi + shift) / (abs(hi) + abs(shift))


def rellich_sobolev_extremal(
    N: int, mu: float, amplitude: float = 1.0, nu: float = 1.0
) -> PowerPeakProfile:
    """Equality-case profile A r^(-mu/2) (nu + r^(2(1-mu/(N-4))))^(-(N-4)/2)."""
    N = _shift_dimension(N, mu)
    sigma = 2.0 * (1.0 - mu / (N - 4.0))
    return PowerPeakProfile(
        [(amplitude, -mu / 2.0, -(N - 4.0) / 2.0)], sigma=sigma, nu=nu
    )


def check_rellich_sobolev(v: RadialProfile, N: int, mu: float):
    """Shifted Rellich--Sobolev inequality at a radial profile.

    lhs = int |Delta v|^2 - c_mu1 int |grad v|^2/|x|^2 + c_mu2 int v^2/|x|^4,
    rhs = (1 - mu/(N-4))^(4-4/N) * S0 * (int |v|^(2N/(N-4)))^((N-4)/N),
    both with their full angular factors.  Returns (lhs, rhs, passed)
    with passed = lhs >= rhs*(1 - 1e-8); equality holds on the
    `rellich_sobolev_extremal` family.
    """
    N = _shift_dimension(N, mu)
    c1, c2 = _shift_coefficients(N, mu)
    omega = sphere_area(N)

    def rows(r):  # |Delta v|^2, |grad v|^2/|x|^2, v^2/|x|^4 and |v|^(2N/(N-4))
        jet = v.jet(r, 2)
        return (
            power_weighted(mode_operator(jet, r, N - 1.0, 0.0), r, 2.0, N - 1.0),
            power_weighted(jet[1], r, 2.0, N - 3.0),
            power_weighted(jet[0], r, 2.0, N - 5.0),
            power_weighted(jet[0], r, 2.0 * N / (N - 4.0), N - 1.0),
        )

    laplacian, gradient, zeroth, critical = (res.value for res in integrate_rows(rows))
    lhs = omega * (laplacian - c1 * gradient + c2 * zeroth)
    rhs = (1.0 - mu / (N - 4.0)) ** (4.0 - 4.0 / N) * s_0_closed(N) * (omega * critical) ** ((N - 4.0) / N)
    return lhs, rhs, lhs >= rhs * (1.0 - 1e-8)


def check_boundary_sharp_constant(N: int, alpha: float):
    """Sharp constant on the upper parameter boundary for alpha < 0.

    At beta = N*alpha/(N-2) the sharp constant collapses to
    (1 + alpha/(N-2))^(4-4/N) * S0.  Returns (quotient, constant, defect):
    the measured quotient of the minimizer, the closed-form constant, and
    their relative gap.
    """
    N = _negative_alpha(N, alpha)
    p = validate(N, alpha, beta_strip(N, alpha)[1])
    quotient = quotient_radial(extremal(p), p)
    constant = (1.0 + alpha / (N - 2.0)) ** (4.0 - 4.0 / N) * s_0_closed(N)
    return quotient, constant, abs(quotient - constant) / constant
