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
each abscissa reaches the integrand at most once per integral.  The first
call covers levels 0-2 together, since level 2 is the first that may
converge, and the four endpoint probes ride in it.  Each finer level costs
one call with its new (odd) nodes in a window that reaches _MARGIN coarse
nodes past each side's tail cut on the level before.  Truncation is then
decided by one outward pass per side; a pass that runs off the window
first costs one more call, for the rest of the level, and starts again.

Before any sum is used, the integrand is probed near both endpoints and the
measured log-log slopes are screened: the power at the origin must
exceed -1 and the power at infinity must fall below -1, otherwise a
:class:`DivergentIntegralError` is raised with the offending exponent.
This catches nonintegrable weight combinations before they can produce
a plausible-looking but meaningless number.

The tolerance ``DEFAULT_TOL`` and the node budget ``NODE_CAP`` are
constants that only :func:`integrate_semiinfinite` lets a caller change.

On u = f(r) Y_k (Y_k a degree-k harmonic), r^-a div(|x|^a grad u) is
f'' + (N-1+a) f'/r - lam_k f/r^2 with lam_k = k(N-2+k); :func:`mode_energy`
integrates its weighted square, and every such operator in the package is
evaluated by :func:`mode_operator`.  The package forms its radial integrals
of |g|^e r^w and g r^w with :func:`weighted_integral` and
:func:`signed_integral`, which take the weight in log space.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .params import Params, derive
from .specfun import AccuracyError, DivergentIntegralError, DomainError

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
    "weighted_integral",
    "signed_integral",
    "mode_energy",
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
_MARGIN = 3  # coarse nodes past a level's tail cut that the next level evaluates


class QuadResult(NamedTuple):
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


def _refine(fv, coarse: np.ndarray, known: np.ndarray, h: float, lo: int, hi: int):
    """Values on the step-h grid, and which are known, from those at step 2h
    (node k there is node 2k here, bit for bit) and one integrand call at
    the odd nodes among -lo..hi, for even lo and hi."""
    s, _ = _grid(h)
    mid = s.size // 2
    vals, got = np.empty(s.size), np.zeros(s.size, dtype=bool)
    vals[mid % 2 :: 2], got[mid % 2 :: 2] = coarse, known
    with np.errstate(all="ignore"):
        vals[mid - lo + 1 : mid + hi : 2] = fv(s[mid - lo + 1 : mid + hi : 2].copy())
    got[mid - lo : mid + hi + 1] = True
    return vals, got


def _side_count(terms: list, s: np.ndarray) -> int:
    """How many of one side's terms (outward from k=+-1) the tail rule keeps.

    The side ends after three consecutive terms at most _TAIL_EPS times
    the largest term so far, or at a non-finite term that follows an
    astronomically small one (a negligible tail overflowed in an
    intermediate).  A non-finite term anywhere else is an error.
    """
    scale, floor, quiet = 0.0, 0.0, 0  # floor = _TAIL_EPS * scale
    for kept, t in enumerate(terms):
        mag = abs(t)
        if mag <= floor and scale > 0.0:
            quiet += 1
            if quiet == 3:
                return kept + 1
        elif mag < math.inf:
            quiet = 0
            if mag > scale:
                scale, floor = mag, _TAIL_EPS * mag
        elif scale > 0.0 and abs(terms[kept - 1]) <= 1e-18 * scale:
            return kept
        else:
            raise DomainError(f"integrand produced a non-finite value at s={float(s[kept]):.6e}")
    return len(terms)


def _walk(vals: np.ndarray, h: float, lo: int) -> tuple[float, int, int] | None:
    """Truncated trapezoid sum of one level and the terms kept per side, from
    its values on the nodes -lo..; sides are walked outward, negative first,
    as far as the tail rule keeps.  None if one runs off vals before then."""
    s, w = _grid(h)
    mid = s.size // 2
    center = float(vals[lo]) * math.pi * h
    if not math.isfinite(center):
        raise DomainError("integrand produced a non-finite value at s=1")
    with np.errstate(all="ignore"):
        terms = (vals * w[mid - lo : mid - lo + vals.size]).tolist()
    kept = []
    for side, side_s in ((terms[lo - 1 :: -1], s[mid - 1 :: -1]), (terms[lo + 1 :], s[mid + 1 :])):
        kept.append(side[: _side_count(side, side_s)])
        if len(kept[-1]) == len(side) < mid:  # off the window's edge, short of the grid's
            return None
    ordered = kept[0][::-1] + [center] + kept[1]
    # Kahan-compensated sum in fixed ascending-node order.
    total = comp = 0.0
    for t in ordered:
        y = t - comp
        acc = total + y
        comp = (acc - total) - y
        total = acc
    return total, len(kept[0]), len(kept[1])


def _level_sum(vals: np.ndarray, h: float) -> tuple[float, int]:
    """Truncated trapezoid sum and term count of one level from its whole grid."""
    total, n_neg, n_pos = _walk(vals, h, vals.size // 2)
    return total, n_neg + n_pos + 1


def integrate_semiinfinite(f, tol: float = DEFAULT_TOL, *, node_cap: int = NODE_CAP) -> QuadResult:
    """Integrate ``f`` over (0, inf) to relative tolerance ``tol``.

    ``f`` maps a float ndarray of abscissae to an array of integrand
    values; a result that is constant in s may come back as a scalar.

    Raises:
        DivergentIntegralError: endpoint screening found a nonintegrable
            power (see module docstring).
        AccuracyError: the node budget ``node_cap`` was exhausted before
            two consecutive refinement levels agreed to ``tol``.
    """
    fv = _vectorized(f)
    # Levels 0-2 (steps _H0, _H0/2, _H0/4) nest in the level-2 grid, the
    # first that may converge; one call evaluates it with the probes.
    fine, _ = _grid(_H0 / 4)
    with np.errstate(all="ignore"):
        vals = fv(np.concatenate((_PROBES, fine)))
    _screen_endpoints(vals[: _PROBES.size])
    vals = vals[_PROBES.size :]
    got = np.ones(vals.size, dtype=bool)

    total_nodes = 0
    prev = None
    best_err = math.inf
    h = _H0
    level = 0
    while True:
        if level > 2:  # the new odd nodes up to _MARGIN coarse nodes past the cut
            lo, hi = 2 * min(n_neg + _MARGIN, lo), 2 * min(n_pos + _MARGIN, hi)
            vals, got = _refine(fv, vals, got, h, lo, hi)
        else:
            lo = hi = math.floor(_X_CUT / h)
        stride = 1 << max(2 - level, 0)  # levels 0 and 1 read every 4th / 2nd node
        mid = vals.size // 2
        while (walked := _walk(vals[mid - stride * lo : mid + stride * hi + 1 : stride], h, lo)) is None:
            lo = hi = mid  # a tail runs off the window: evaluate the rest of the level
            with np.errstate(all="ignore"):
                vals[~got] = fv(_grid(h)[0][~got])
            got[:] = True
        value, n_neg, n_pos = walked
        total_nodes += n_neg + n_pos + 1
        if prev is not None:
            best_err = abs(value - prev)
            if level >= 2 and best_err <= max(tol * abs(value), 1e-300):
                return QuadResult(value=value, abs_error_estimate=best_err, nodes=total_nodes)
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
    vals = np.asarray(vals, dtype=float)
    s = np.asarray(s, dtype=float)
    if vals.shape != s.shape:
        vals, s = np.broadcast_arrays(vals, s)
    with np.errstate(all="ignore"):
        out = np.asarray(np.exp(expo * np.log(np.abs(vals)) + w * np.log(s)))
    out[vals == 0.0] = 0.0
    out[~np.isfinite(vals)] = np.nan
    return out


def signed_weighted(vals: np.ndarray, s: np.ndarray, w: float) -> np.ndarray:
    """vals * s^w in log space, preserving the sign of vals.

    Companion to :func:`power_weighted` for integrands that are signed
    products rather than even powers (cross terms in integral
    identities)."""
    return np.copysign(power_weighted(vals, s, 1.0, w), vals)


def weighted_integral(g, expo: float, w: float) -> float:
    """integral of |g(r)|^expo r^w dr over (0, inf), the weight taken in log space."""
    return integrate_semiinfinite(lambda r: power_weighted(g(r), r, expo, w)).value


def signed_integral(g, w: float) -> float:
    """integral of g(r) r^w dr over (0, inf), the weight taken in log space."""
    return integrate_semiinfinite(lambda r: signed_weighted(g(r), r, w)).value


def mode_operator(jet, r, drift: float, lam: float) -> np.ndarray:
    """f'' + drift f'/r - lam f/r^2 at the nodes r, from jet = f.jet(r, 2).

    The lam term is skipped when lam == 0: 0 * f/r^2 is NaN where r^2
    underflows.  Not in ``__all__``: it runs once per integrand call,
    and the perfbench tracer wraps every function listed there.
    """
    f0, f1, f2 = jet
    vals = f2 + drift * f1 / r
    if lam != 0.0:
        vals = vals - lam * f0 / r**2
    return vals


def mode_energy(f, drift: float, lam: float, w: float) -> float:
    """integral of [f'' + drift f'/r - lam f/r^2]^2 r^w dr over (0, inf)."""
    return weighted_integral(lambda r: mode_operator(f.jet(r, 2), r, drift, lam), 2.0, w)


def norm_sq(u, p: Params) -> float:
    """Squared second-order energy of a radial profile.

    For radial u the energy reduces to

        omega * integral (u'' + (N-1+alpha) u'/r)^2 r^(N+2*alpha-beta-1) dr.
    """
    w = p.N + 2.0 * p.alpha - p.beta - 1.0
    return derive(p).omega * mode_energy(u, p.N - 1.0 + p.alpha, 0.0, w)


def norm_star(u, p: Params) -> float:
    """Weighted critical norm (integral |x|^beta |u|^p* dx)^(1/p*)."""
    d = derive(p)
    val = d.omega * weighted_integral(u.eval, d.p_star, p.beta + p.N - 1.0)
    return val ** (1.0 / d.p_star)


def quotient_radial(u, p: Params) -> float:
    """Rayleigh quotient norm_sq(u) / norm_star(u)^2 over radial profiles."""
    denom = norm_star(u, p)
    if denom == 0.0:
        raise DomainError("quotient undefined: norm_star(u) = 0")
    return norm_sq(u, p) / (denom * denom)
