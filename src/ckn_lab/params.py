"""Parameter domain, derived exponents, and the region taxonomy.

The inequality under study compares a weighted second-order energy

    integral |x|^(-beta) |div(|x|^alpha grad u)|^2 dx

against a weighted critical Lebesgue norm with weight |x|^beta.  Its
admissible parameter set is

    N >= 5,    alpha > 2 - N,    alpha - 2 < beta <= N*alpha/(N - 2),

and every quantity downstream (critical exponent, transformed dimension,
sharp constants, symmetry-breaking thresholds) is a function of the
triple (N, alpha, beta).  This module owns that bookkeeping, and the
closed-form sharp constants with it, so that they need only the stdlib.
Every function taking N, but `harmonic_eigenvalue` and `sphere_area`,
refuses an N outside the domain with ParamError, as `beta_strip` does.
"""

from __future__ import annotations

import math
import operator
import sys
from enum import Enum
from typing import NamedTuple

from .specfun import DomainError, _finite, _or_inf, log_gamma

__all__ = [
    "ParamError",
    "Params",
    "validate",
    "beta_strip",
    "Derived",
    "derive",
    "beta_fs",
    "b_fs_first_order",
    "FsCorrespondence",
    "fs_correspondence",
    "RegionClass",
    "classify",
    "HardyConstants",
    "hardy_comparison_constants",
    "rellich_infimum",
    "sphere_area",
    "harmonic_eigenvalue",
    "gamma_m",
    "amplitude_constant",
    "b_closed",
    "s_r_closed",
    "s_0_closed",
    "DEFAULT_EPS",
    "DEFAULT_CERT_TOL",
]

#: Absolute tolerance for boundary comparisons in :func:`classify`.
BOUNDARY_TOL = 1e-12
#: Perturbation size and sign dead zone of `variation.certify` by default,
#: kept here so that the command line shows them without loading numpy.
DEFAULT_EPS = 1e-2
DEFAULT_CERT_TOL = 1e-6


class ParamError(ValueError):
    """Raised when a parameter triple violates the admissibility box.

    ``reasons`` lists every violated condition, not just the first.
    """

    def __init__(self, reasons: list[str]):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def _integral(N) -> int:
    """N as an int, from any integral type (numpy's too, where -N or N*N would wrap)."""
    try:
        return operator.index(N)
    except TypeError:
        raise ParamError([f"dimension must be an integer, got N={N!r}"]) from None


def _index(k, name: str) -> int:
    """An index k >= 0 as an int, from any integral type (numpy's unwrapped); DomainError otherwise."""
    try:
        i = operator.index(k)
    except TypeError:
        i = -1
    if i < 0:
        raise DomainError(f"{name} must be an integer >= 0, got {k!r}")
    return i


def _dimension(N) -> int:
    """N as an int where it is a dimension of the domain: an integer >= 5 whose square is a double."""
    n = _integral(N)  # any integral type, e.g. numpy's; 5.0 is no integer
    if n < 5:
        raise ParamError([f"dimension must be an integer >= 5, got N={N!r}"])
    if n * n > sys.float_info.max:  # beta_fs's radicand would leave double range
        raise ParamError([f"dimension N={N!r} is too large: N*N exceeds the largest double"])
    return n


def _strip(N: int, alpha: float) -> tuple[list[str], tuple[float, float] | None]:
    """Why N or alpha leaves the domain, and the ends of the beta strip (None at a bad N)."""
    try:
        n = _dimension(N)
    except ParamError as exc:
        return exc.reasons, None
    reasons = [] if alpha > 2 - n else [f"alpha must exceed 2 - N = {2 - n}, got alpha={alpha!r}"]
    hi = n * alpha / (n - 2.0)
    if (n >= 2**53 or not math.isfinite(hi)) and math.isfinite(alpha):  # N - 2.0 or N*alpha rounded off
        num, den = alpha.as_integer_ratio()
        try:
            hi = num * n / (den * (n - 2))  # int true division rounds once
        except OverflowError:
            hi = math.copysign(math.inf, alpha)
    return reasons, (alpha - 2.0, hi)


def beta_strip(N: int, alpha: float) -> tuple[float, float]:
    """Ends (lo, hi) = (alpha - 2, N*alpha/(N-2)) of the admissible strip lo < beta <= hi.

    hi is the float expression n * alpha / (n - 2.0) where N < 2^53 and that
    is finite; elsewhere it is N*alpha/(N-2) correctly rounded, since N - 2.0
    rounds to N from 2^54 and N*alpha may overflow where the end does not.
    Raises ParamError if N is not an integer >= 5, N*N exceeds the largest
    double (N >= 2^512, and a few N just below) or alpha <= 2 - N.
    """
    reasons, ends = _strip(N, alpha)
    if reasons:
        raise ParamError(reasons)
    return ends


def _violations(N: int, alpha: float, beta: float) -> tuple[list[str], tuple[float, float] | None]:
    """Every reason the triple leaves the domain, and the strip's ends where N and alpha are in it."""
    reasons, ends = _strip(N, alpha)
    if ends is None:
        return reasons, None
    alpha_ok, (lo, hi) = not reasons, ends  # at a bad alpha beta's reasons are listed too
    if not beta > lo:
        reasons.append(f"beta must exceed alpha - 2 = {lo}, got beta={beta!r}")
    if not beta <= hi:
        reasons.append(f"beta must not exceed N*alpha/(N-2) = {hi}, got beta={beta!r}")
    sig, kappa = _sigma_kappa(N, alpha, beta)
    if not reasons and not (sig > 0.0 and kappa > 0.0):
        reasons.append(f"2+beta-alpha={sig!r} and N-4+2*alpha-beta={kappa!r} must be > 0")
    return reasons, ends if alpha_ok else None


def _sigma_kappa(N: int, alpha: float, beta: float) -> tuple[float, float]:
    return 2.0 + beta - alpha, N - 4.0 + 2.0 * alpha - beta


class Params(NamedTuple("Params", [("N", int), ("alpha", float), ("beta", float)])):
    """Validated parameter triple.  Construction enforces admissibility."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, N: int, alpha: float, beta: float):
        reasons = _violations(N, alpha, beta)[0]
        if reasons:
            raise ParamError(reasons)
        return super().__new__(cls, _integral(N), alpha, beta)


def validate(N: int, alpha: float, beta: float) -> Params:
    """Return a validated :class:`Params` or raise :class:`ParamError`.

    N may be of any integral type, numpy's too; ``Params.N`` is an int."""
    return Params(N, float(alpha), float(beta))


class Derived(NamedTuple):
    """Derived exponents for a parameter triple.

    p_star: critical exponent 2(N+beta)/(N-4+2*alpha-beta), in (2, inf).
    q:      radial substitution exponent 2/(2+beta-alpha), positive.
    M:      transformed dimension 2(N+beta)/(2+beta-alpha), always > 4
            on the admissible set (and >= N, with equality exactly on
            the upper beta boundary).
    The surface area of S^(N-1) is `sphere_area(N)`, formed only where it is read.
    """

    p_star: float
    q: float
    M: float


def _log_half_sphere_area(n: int) -> float:
    return 0.5 * n * math.log(math.pi) - log_gamma(0.5 * n)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n: 2 pi^(n/2) / Gamma(n/2).

    Subnormal from n = 439 and 0.0 from n = 456."""
    return 2.0 * math.exp(_log_half_sphere_area(n))


def harmonic_eigenvalue(N: int, k: int) -> float:
    """lam_k = k(N-2+k), the eigenvalue of -Delta on degree-k harmonics of S^(N-1), k >= 0."""
    k = _index(k, "mode index")
    lam = k * (_integral(N) - 2 + k)
    if lam > sys.float_info.max:
        raise DomainError(f"sphere eigenvalue k(N-2+k) at N={N}, k={k} exceeds the largest double")
    return float(lam)


def derive(p: Params) -> Derived:
    """Compute the derived exponents for validated parameters."""
    sig, kappa = _sigma_kappa(p.N, p.alpha, p.beta)  # positive, as validated
    return Derived(
        p_star=2.0 * (p.N + p.beta) / kappa,
        q=2.0 / sig,
        M=2.0 * (p.N + p.beta) / sig,
    )


def beta_fs(N: int, alpha: float) -> float:
    """Symmetry-breaking threshold curve beta as a function of alpha.

    Defined by -N + sqrt(N^2 + alpha^2 + 2(N-2)alpha); the radicand
    equals (alpha + N - 2)^2 + 4(N - 1), positive at every dimension.
    Where the radicand overflows (from |alpha| near 1.34e154) its root is
    taken as hypot(alpha + N - 2, 2 sqrt(N - 1)); every finite radicand
    keeps its bits.
    """
    N = _dimension(N)
    radicand = N * N + alpha * alpha + 2.0 * (N - 2.0) * alpha
    if radicand == math.inf:
        return -N + math.hypot(alpha + N - 2.0, 2.0 * math.sqrt(N - 1.0))
    return -N + math.sqrt(radicand)


def b_fs_first_order(N: int, a: float) -> float:
    """First-order (gradient-level) symmetry-breaking curve b(a).

    Uses the L^2 normalisation a_c = (N-2)/2 and requires a < a_c.
    """
    N = _dimension(N)
    a_c = (N - 2.0) / 2.0
    if not a < a_c:
        raise ParamError([f"first-order curve needs a < (N-2)/2 = {a_c}, got a={a!r}"])
    d = a_c - a
    return N * d / (2.0 * math.sqrt(d * d + N - 1.0)) + a - a_c


class FsCorrespondence(NamedTuple):
    """(a, b, tau, beta_mapped) linking the first-order curve to ours."""

    a: float
    b: float
    tau: float
    beta_mapped: float


def fs_correspondence(N: int, alpha: float) -> FsCorrespondence:
    """Map alpha > 0 through the first-order curve and back.

    With a = -alpha/2, b = b(a) on the first-order curve and
    tau = 2N / (N - 2(1 + a - b)), the image beta_mapped = -b*tau
    reproduces :func:`beta_fs` exactly; the round trip is a consistency
    anchor between the two formulations.
    """
    N = _dimension(N)
    if not alpha > 0.0:
        raise ParamError([f"correspondence defined for alpha > 0, got {alpha!r}"])
    a = -alpha / 2.0
    b = b_fs_first_order(N, a)
    tau = 2.0 * N / (N - 2.0 * (1.0 + a - b))
    return FsCorrespondence(a, b, tau, -b * tau)


class RegionClass(Enum):
    """Taxonomy of the (alpha, beta) plane at fixed dimension."""

    INVALID = "Invalid"
    CLASSICAL = "Classical"
    SYMMETRY_BREAKING = "SymmetryBreaking"
    CONJECTURED_SYMMETRY = "ConjecturedSymmetry"
    PROVEN_SYMMETRY_BOUNDARY = "ProvenSymmetryBoundary"
    NOT_ATTAINED_BOUNDARY = "NotAttainedBoundary"
    RELLICH_DEGENERATE = "RellichDegenerate"


def classify(N: int, alpha: float, beta: float) -> RegionClass:
    """Classify a raw triple into exactly one :class:`RegionClass`.

    Invalid is exactly what `validate` refuses, from the same reasons; the
    absolute tolerance ``BOUNDARY_TOL`` only labels the on-edge tags.  The
    degenerate edge beta = alpha - 2 (critical exponent collapses to 2, the
    energy reduces to a pure Rellich form) sits outside the admissible box
    but is reported with its own tag rather than as plain Invalid.  On the
    upper edge with alpha > 0, S_0 < S_r = (1 + alpha/(N-2))^(4-4/N) S_0, so
    the radial profile is not optimal there: hence NotAttainedBoundary.
    """
    reasons, ends = _violations(N, alpha, beta)
    if ends is None:
        return RegionClass.INVALID
    lo, upper = ends
    if abs(beta - lo) <= BOUNDARY_TOL:
        return RegionClass.RELLICH_DEGENERATE
    if reasons:
        return RegionClass.INVALID
    if abs(alpha) <= BOUNDARY_TOL and abs(beta) <= BOUNDARY_TOL:
        return RegionClass.CLASSICAL
    on_upper = abs(beta - upper) <= BOUNDARY_TOL
    if on_upper and alpha > BOUNDARY_TOL:
        return RegionClass.NOT_ATTAINED_BOUNDARY
    if on_upper and alpha < -BOUNDARY_TOL:
        return RegionClass.PROVEN_SYMMETRY_BOUNDARY
    if alpha > BOUNDARY_TOL and beta > beta_fs(N, alpha) + BOUNDARY_TOL:
        return RegionClass.SYMMETRY_BREAKING
    return RegionClass.CONJECTURED_SYMMETRY


class HardyConstants(NamedTuple):
    """Constants of the second-order comparison bound.

    hardy_e is the square (2/(N-4+2*alpha-beta))^2 entering the weighted
    Hardy step; bound_c = 1 + |alpha| + hardy_e*(|alpha| + alpha^2)
    dominates the ratio of the pure-Laplacian energy to the full energy.
    """

    hardy_e: float
    bound_c: float


def hardy_comparison_constants(p: Params) -> HardyConstants:
    e = (2.0 / _sigma_kappa(p.N, p.alpha, p.beta)[1]) ** 2
    c = 1.0 + abs(p.alpha) + e * (abs(p.alpha) + p.alpha * p.alpha)
    return HardyConstants(hardy_e=e, bound_c=c)


def rellich_infimum(N: int, a: float) -> tuple[float, int]:
    """Sharp constant of the weighted Rellich inequality with weight |x|^(-2a).

    Returns ``(value, argmin_k)`` where value minimises
    f(k) = (k + N/2 + a)^2 (k + (N-4)/2 - a)^2 over integers k >= 0.

    The product inside the square is an upward parabola in k with roots
    at -N/2 - a and a - (N-4)/2, so on k >= 0 its absolute value is least
    at k = 0 or at an integer next to a nonnegative root; only those are
    tried.  Raises DomainError for a non-finite a, for |a| >= 2^52, where
    floats no longer resolve k + a and the formula loses all accuracy, and
    where the infimum overflows double precision (from N ~ 2.3e77 at a = 0).
    """
    N = _dimension(N)
    if not math.isfinite(a):
        raise DomainError(f"weight exponent a must be finite, got {a!r}")
    if abs(a) >= 2.0**52:
        raise DomainError(f"weight exponent a must satisfy |a| < 2**52, got {a!r}")

    def f(k: int) -> float:
        g = (k + N / 2.0 + a) * (k + (N - 4.0) / 2.0 - a)
        return g * g

    roots = [r for r in (-N / 2.0 - a, a - (N - 4.0) / 2.0) if r >= 0.0]
    candidates = sorted({0, *map(math.floor, roots), *map(math.ceil, roots)})
    best_k = min(candidates, key=f)  # the first k of the least value
    return _finite(f(best_k), "Rellich infimum", f"N={N!r}, a={a!r}"), best_k


# ---------------------------------------------------------------------------
# Sharp constants
# ---------------------------------------------------------------------------


def gamma_m(M: float) -> float:
    """(M-4)(M-2)M(M+2), the coupling constant of the transformed equation."""
    if not (M > 4.0):
        raise DomainError(f"requires M > 4, got {M}")
    return (M - 4.0) * (M - 2.0) * M * (M + 2.0)


def amplitude_constant(p: Params) -> float:
    """Normalization making the ground-state profile solve the equation.

    Equals [(N-4+2a-b)(N-2+a)(N+b)(N+2-a+2b)]^((N-4+2a-b)/(4(2+b-a))),
    or in transformed-dimension variables (gamma_m(M)/q^4)^((M-4)/8).

    Raises:
        DomainError: if the constant leaves the normal doubles: it overflows
            near the lower edge beta -> alpha - 2 of the strip (M -> inf), and
            underflows, where a subnormal would pass for an answer, at large q.
    """
    d = derive(p)
    log_value = (d.M - 4.0) / 8.0 * (math.log(gamma_m(d.M)) - 4.0 * math.log(d.q))
    value = _or_inf(math.exp, log_value)
    if value < sys.float_info.min:
        raise DomainError(f"amplitude constant underflows double precision at M={d.M!r}")
    return _finite(value, "amplitude constant", f"M={d.M!r}")


def b_closed(M: float) -> float:
    """gamma_m(M) * [Gamma(M/2)^2 / (2 Gamma(M))]^(4/M) for M > 4; inf from M ~ 2.3e77."""
    return _scaled_b_closed(M, 0.0)


def _scaled_b_closed(M: float, log_scale: float) -> float:
    """exp(log_scale) b_closed(M), inf where it overflows; in logs only where gamma_m(M) overflows,
    from M ~ 1.2e77, so every M below keeps its bits."""
    gamma = gamma_m(M)
    log_bracket = 4.0 / M * (2.0 * log_gamma(M / 2.0) - math.log(2.0) - log_gamma(M))
    if gamma < math.inf:
        return _or_inf(math.exp, log_scale) * (gamma * math.exp(log_bracket))
    return _or_inf(math.exp, log_scale + math.fsum(math.log(M + c) for c in (-4.0, -2.0, 0.0, 2.0)) + log_bracket)


def s_r_closed(p: Params) -> float:
    """Sharp constant of the radial problem, in closed form.

    q^(4/M - 4) * omega^(4/M) * b_closed(M), in logs where gamma_m(M) overflows;
    reduces to s_0_closed(N) at alpha = beta = 0 and to
    (1 + alpha/(N-2))^(4-4/N) * s_0_closed(N) on the upper boundary
    beta = N*alpha/(N-2).  Raises DomainError where it overflows double
    precision, as q = 2/(2+beta-alpha) -> 0, or falls below the smallest
    normal double, where a plausible 0.0 would come of underflow.
    """
    d, omega = derive(p), sphere_area(p.N)
    if omega >= sys.float_info.min:
        log_omega = math.log(omega)
    else:  # omega has lost precision or underflowed: take its log from the log-gamma sum
        log_omega = math.log(2.0) + _log_half_sphere_area(p.N)
    value = _scaled_b_closed(d.M, (4.0 / d.M - 4.0) * math.log(d.q) + 4.0 / d.M * log_omega)
    if value < sys.float_info.min:
        raise DomainError(f"radial constant underflows double precision at M={d.M!r}")
    return _finite(value, "radial constant", f"M={d.M!r}")


def s_0_closed(N: int) -> float:
    """Unweighted sharp constant pi^2 N(N-4)(N^2-4) (Gamma(N/2)/Gamma(N))^(4/N).

    The constant grows like N^2 while its polynomial grows like N^4, so from N ~ 1e77 the
    product is taken in logs; raises DomainError where the constant itself leaves double range.
    """
    N = _dimension(N)
    log_ratio = 4.0 / N * (log_gamma(N / 2.0) - log_gamma(float(N)))
    value = math.pi**2 * (N * (N - 4.0) * (N * N - 4.0)) * math.exp(log_ratio)
    if value == math.inf:  # the polynomial overflows, or pi^2 times it does
        log_value = 2.0 * math.log(math.pi) + math.log(N) + math.log(N - 4.0) + math.log(N * N - 4.0) + log_ratio
        value = _finite(_or_inf(math.exp, log_value), "sharp constant", f"N={N!r}")
    return value
