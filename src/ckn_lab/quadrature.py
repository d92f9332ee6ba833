"""Adaptive quadrature on (0, inf) and the weighted radial norms.

The integrator maps the half line through s = exp(pi*sinh(x)), i.e. the
double-exponential (tanh-sinh family) rule specialised to (0, inf): the
trapezoid sum in x converges geometrically in the step halvings for
integrands with algebraic endpoint behaviour, which is exactly the class
produced by the profile algebra (powers at the origin, power decay at
infinity).  Nodes are truncated per side once terms fall below a hard
relative floor, levels halve the step until two consecutive trapezoid
sums agree to the requested tolerance, and the final sum is compensated
(Kahan) in ascending node order so repeated runs are bit-identical.

The levels nest: node k at step h is node 2k at step h/2, bit for bit, so
each abscissa reaches the integrand once per integral.  Every level costs
one integrand call with its new (odd) nodes over the whole node range,
except that the first call covers levels 0-2 together, since level 2 is
the first that may converge; the four endpoint probes ride in it too.
Truncation is decided afterwards on each side's term array.

Before any sum is used, the integrand is probed near both endpoints and the
measured log-log slopes are screened: the power at the origin must
exceed -1 and the power at infinity must fall below -1, otherwise a
:class:`DivergentIntegralError` is raised with the offending exponent.
This catches nonintegrable weight combinations before they can produce
a plausible-looking but meaningless number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import Params, derive
from .specfun import DomainError

__all__ = [
    "QuadResult",
    "DivergentIntegralError",
    "AccuracyError",
    "integrate_semiinfinite",
    "norm_sq",
    "norm_star",
    "quotient_radial",
    "power_weighted",
    "signed_weighted",
    "set_default_tolerance",
    "set_node_cap",
    "DEFAULT_TOL",
    "NODE_CAP",
]

DEFAULT_TOL = 1e-10
NODE_CAP = 2**16

# |pi*sinh(x)| cap; keeps the node abscissae inside (1e-261, 1e261).
_X_MAX = 600.0
_X_CUT = math.asinh(_X_MAX / math.pi)
_H0 = 0.5
_TAIL_EPS = 1e-22  # per-term floor relative to the largest term seen


class DivergentIntegralError(DomainError):
    """Endpoint screening judged the integral nonintegrable."""


class AccuracyError(RuntimeError):
    """Node budget exhausted before the tolerance was met.

    The best estimate so far is attached as ``result``.
    """

    def __init__(self, message: str, result: "QuadResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadResult:
    """An integral with its error estimate (the difference of the last two
    levels) and ``nodes``, the number of terms summed over all levels.
    ``nodes`` counts terms, not integrand evaluations: a node reused at a
    finer level counts again there, and nodes evaluated beyond a side's
    truncation point do not count."""

    value: float
    abs_error_estimate: float
    nodes: int


def _vectorized(f):
    """Return a callable mapping float ndarray -> float ndarray of that shape."""

    def wrapped(s: np.ndarray) -> np.ndarray:
        arr = np.asarray(f(s), dtype=float)
        if arr.shape != s.shape:
            arr = np.broadcast_to(arr, s.shape).astype(float)
        return arr

    return wrapped


_PROBES = np.array([1e-7, 1e-6, 1e6, 1e7])


def _screen_endpoints(probe_vals: np.ndarray) -> None:
    lo_a, lo_b, hi_a, hi_b = (float(v) for v in np.abs(probe_vals))
    # Origin side: measured power must exceed -1.
    if max(lo_a, lo_b) > 1e-280:
        if not (math.isfinite(lo_a) and math.isfinite(lo_b)):
            raise DivergentIntegralError(
                "integrand not finite near the origin (probes at 1e-7, 1e-6)"
            )
        if lo_a > 0.0 and lo_b > 0.0:
            slope = (math.log(lo_b) - math.log(lo_a)) / math.log(10.0)
            if slope <= -1.0 + 1e-3:
                raise DivergentIntegralError(
                    f"integrand behaves like s^({slope:.6f}) near 0; "
                    "power must exceed -1 for integrability"
                )
    # Infinity side: measured power must fall below -1.
    if max(hi_a, hi_b) > 1e-280:
        if not (math.isfinite(hi_a) and math.isfinite(hi_b)):
            raise DivergentIntegralError(
                "integrand not finite near infinity (probes at 1e6, 1e7)"
            )
        if hi_b == 0.0:
            return  # dropped below underflow between the probes: decays fine
        slope = (math.log(hi_b) - math.log(hi_a)) / math.log(10.0)
        if slope >= -1.0 - 1e-3:
            raise DivergentIntegralError(
                f"integrand behaves like s^({slope:.6f}) near infinity; "
                "power must fall below -1 for integrability"
            )


@functools.cache
def _grid(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae s and weights w of the step-h level, nodes k = -K..K.

    K is the largest k with k*h <= _X_CUT, so node k sits at index k + K.
    Both arrays are read-only: they are shared by every integral.
    """
    k = math.floor(_X_CUT / h)
    x = np.arange(-k, k + 1) * h
    with np.errstate(all="ignore"):
        s = np.exp(math.pi * np.sinh(x))
        w = math.pi * np.cosh(x) * s * h
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def _refine(fv, coarse: np.ndarray, h: float) -> np.ndarray:
    """Integrand values on the step-h grid from those at step 2h.

    Node 2k at step h is node k at step 2h bit for bit, so only the odd
    nodes are new; they go to the integrand in one call.
    """
    s, _ = _grid(h)
    old = (s.size // 2) % 2  # even nodes sit at indices of the parity of K
    vals = np.empty(s.size)
    vals[old::2] = coarse
    with np.errstate(all="ignore"):
        vals[1 - old :: 2] = fv(s[1 - old :: 2].copy())
    return vals


def _side_count(terms: np.ndarray, s: np.ndarray) -> int:
    """How many of one side's terms (outward from k=+-1) the tail rule keeps.

    The side ends after three consecutive terms at most _TAIL_EPS times
    the largest term so far, or at a non-finite term that follows an
    astronomically small one (a negligible tail overflowed in an
    intermediate).  A non-finite term anywhere else is an error.
    """
    finite = np.isfinite(terms)
    n = terms.size if finite.all() else int(np.argmin(finite))
    mag = np.abs(terms[:n])
    scale = np.maximum.accumulate(mag)
    quiet = (scale > 0.0) & (mag <= _TAIL_EPS * scale)
    third = quiet[2:] & quiet[1:-1] & quiet[:-2]
    if third.any():
        return int(np.argmax(third)) + 3
    if n < terms.size and not (n > 0 and scale[-1] > 0.0 and mag[-1] <= 1e-18 * scale[-1]):
        raise DomainError(f"integrand produced a non-finite value at s={float(s[n]):.6e}")
    return n


def _level_sum(vals: np.ndarray, h: float) -> tuple[float, int]:
    """Truncated trapezoid sum of one level from its integrand values."""
    s, w = _grid(h)
    mid = s.size // 2
    center = float(vals[mid]) * math.pi * h
    if not math.isfinite(center):
        raise DomainError("integrand produced a non-finite value at s=1")
    with np.errstate(all="ignore"):
        terms = vals * w
    neg, neg_s = terms[mid - 1 :: -1], s[mid - 1 :: -1]
    pos, pos_s = terms[mid + 1 :], s[mid + 1 :]
    neg = neg[: _side_count(neg, neg_s)]
    pos = pos[: _side_count(pos, pos_s)]
    ordered = neg[::-1].tolist() + [center] + pos.tolist()
    # Kahan-compensated sum in fixed ascending-node order.
    total = 0.0
    comp = 0.0
    for t in ordered:
        y = t - comp
        acc = total + y
        comp = (acc - total) - y
        total = acc
    return total, len(ordered)


def set_default_tolerance(tol: float) -> None:
    """Override the default relative tolerance (config-file hook)."""
    global DEFAULT_TOL
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    DEFAULT_TOL = float(tol)


def set_node_cap(cap: int) -> None:
    """Override the refinement node budget (config-file hook)."""
    global NODE_CAP
    if not cap >= 16:
        raise DomainError(f"node cap too small: {cap}")
    NODE_CAP = int(cap)


def integrate_semiinfinite(
    f, tol: float | None = None, *, node_cap: int | None = None
) -> QuadResult:
    """Integrate ``f`` over (0, inf) to relative tolerance ``tol``.

    ``f`` maps a float ndarray of abscissae to an array of integrand
    values; a result that is constant in s may come back as a scalar.

    Raises:
        DivergentIntegralError: endpoint screening found a nonintegrable
            power (see module docstring).
        AccuracyError: the node budget ``node_cap`` was exhausted before
            two consecutive refinement levels agreed to ``tol``.
    """
    if tol is None:
        tol = DEFAULT_TOL
    if node_cap is None:
        node_cap = NODE_CAP
    fv = _vectorized(f)
    # Levels 0-2 (steps _H0, _H0/2, _H0/4) nest in the level-2 grid, the
    # first that may converge; one call evaluates it with the probes.
    fine, _ = _grid(_H0 / 4)
    with np.errstate(all="ignore"):
        vals = fv(np.concatenate((_PROBES, fine)))
    _screen_endpoints(vals[: _PROBES.size])
    vals = vals[_PROBES.size :]

    total_nodes = 0
    prev = None
    best_err = math.inf
    h = _H0
    level = 0
    while True:
        if level > 2:
            vals = _refine(fv, vals, h)
        stride = 1 << max(2 - level, 0)  # levels 0 and 1 read every 4th / 2nd node
        mid = vals.size // 2
        half = stride * math.floor(_X_CUT / h)
        value, n = _level_sum(vals[mid - half : mid + half + 1 : stride], h)
        total_nodes += n
        if prev is not None:
            err = abs(value - prev)
            best_err = err
            if level >= 2 and err <= max(tol * abs(value), 1e-300):
                return QuadResult(value=value, abs_error_estimate=err, nodes=total_nodes)
        if total_nodes >= node_cap:
            result = QuadResult(value=value, abs_error_estimate=best_err, nodes=total_nodes)
            raise AccuracyError(
                f"no convergence to tol={tol:g} within {node_cap} nodes "
                f"(best error estimate {best_err:g})",
                result,
            )
        prev = value
        h *= 0.5
        level += 1


def power_weighted(vals: np.ndarray, s: np.ndarray, expo: float, w: float) -> np.ndarray:
    """|vals|^expo * s^w evaluated in log space.

    Plain evaluation overflows: s^w alone exceeds double range long
    before the full product does (the vals factor has underflowed to a
    compensating tiny number by then).  Points where vals == 0 are
    exactly 0 regardless of the weight.
    """
    vals, s = np.broadcast_arrays(
        np.asarray(vals, dtype=float), np.asarray(s, dtype=float)
    )
    out = np.zeros(vals.shape)
    mask = (vals != 0.0) & np.isfinite(vals)
    if np.any(mask):
        with np.errstate(all="ignore"):
            out[mask] = np.exp(
                expo * np.log(np.abs(vals[mask])) + w * np.log(s[mask])
            )
    out[~np.isfinite(vals)] = np.nan
    return out


def signed_weighted(vals: np.ndarray, s: np.ndarray, w: float) -> np.ndarray:
    """vals * s^w in log space, preserving the sign of vals.

    Companion to :func:`power_weighted` for integrands that are signed
    products rather than even powers (cross terms in integral
    identities)."""
    return np.copysign(power_weighted(vals, s, 1.0, w), vals)


def norm_sq(u, p: Params, tol: float | None = None) -> float:
    """Squared second-order energy of a radial profile.

    For radial u the energy reduces to

        omega * integral (u'' + (N-1+alpha) u'/r)^2 r^(N+2*alpha-beta-1) dr.
    """
    d = derive(p)
    c1 = p.N - 1.0 + p.alpha
    w = p.N + 2.0 * p.alpha - p.beta - 1.0

    def integrand(s):
        bracket = u.deriv(s, 2) + c1 * u.deriv(s, 1) / s
        return power_weighted(bracket, s, 2.0, w)

    return d.omega * integrate_semiinfinite(integrand, tol).value


def norm_star(u, p: Params, tol: float | None = None) -> float:
    """Weighted critical norm (integral |x|^beta |u|^p* dx)^(1/p*)."""
    d = derive(p)
    w = p.beta + p.N - 1.0

    def integrand(s):
        return power_weighted(u.eval(s), s, d.p_star, w)

    val = d.omega * integrate_semiinfinite(integrand, tol).value
    return val ** (1.0 / d.p_star)


def quotient_radial(u, p: Params, tol: float | None = None) -> float:
    """Rayleigh quotient norm_sq(u) / norm_star(u)^2 over radial profiles."""
    denom = norm_star(u, p, tol)
    if denom == 0.0:
        raise DomainError("quotient undefined: norm_star(u) = 0")
    return norm_sq(u, p, tol) / (denom * denom)
