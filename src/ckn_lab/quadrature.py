"""Adaptive quadrature on (0, inf) and the radial Rayleigh quotient.

The integrator maps the half line through s = exp(sinh(x)), i.e. the
double-exponential (tanh-sinh family) rule specialised to (0, inf): the
trapezoid sum in x converges geometrically in the step halvings for
integrands with algebraic endpoint behaviour, which is exactly the class
produced by the profile algebra (powers at the origin, power decay at
infinity).  Nodes are truncated per side once terms fall below a hard
relative floor, levels halve the step until two consecutive trapezoid
sums agree to the requested tolerance, and each level's kept terms are
summed by :func:`math.fsum`, correctly rounded and order-free.

The levels nest: node k at step h is node 2k at step h/2, bit for bit, so
each abscissa reaches the integrand at most once per integration.  Calls,
not abscissae, set the cost, so the first call carries the whole
level-_FIRST grid, of which every coarser level is a strided view; most
integrals converge inside it.  Each finer level costs one call with its
new (odd) nodes over the whole node range, and truncation is decided on
it by one outward pass per side.

:func:`integrate_rows` integrates several integrands on shared abscissae,
one row per integral, one row after the other: each row runs that loop on
its own cuts, levels and error estimate, reading every level as a strided
view of the finest grid evaluated so far, so it gets the bits it would get
alone.  A row that needs a finer level refines the grid for all rows in one
call, and the rows after it find that level evaluated.
:func:`integrate_semiinfinite` is the one-row case.

The tail rule that truncates each side also judges integrability: a side
whose terms still grow at its last node, or overflow right after their
largest, raises :class:`DivergentIntegralError` naming the end (0 or
infinity) and the abscissa.  Level 0 already reaches s = 1e-238 and
1e238, so a nonintegrable integrand raises in the first call, before any
sum is used, and cannot produce a plausible-looking but meaningless number.

The tolerance ``DEFAULT_TOL`` and the node budget ``NODE_CAP`` are
constants that only the two integrators let a caller change.

On u = f(r) Y_k (Y_k a degree-k harmonic), r^-a div(|x|^a grad u) is
f'' + (N-1+a) f'/r - lam_k f/r^2 with lam_k = k(N-2+k), evaluated by
:func:`mode_operator`.  Integrands |g|^e r^w and g r^w are formed in log
space by :func:`power_weighted` and :func:`signed_weighted`; the package
passes those of one profile jet together to :func:`integrate_rows`.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .params import Params, derive, sphere_area
from .specfun import AccuracyError, DivergentIntegralError, DomainError

__all__ = [
    "QuadResult",
    "integrate_semiinfinite",
    "integrate_rows",
    "quotient_radial",
    "power_weighted",
    "signed_weighted",
    "DEFAULT_TOL",
    "NODE_CAP",
]

DEFAULT_TOL = 1e-10
NODE_CAP = 2**16

# |sinh(x)| cap; keeps the node abscissae inside (1e-261, 1e261).
_X_MAX = 600.0
_X_CUT = math.asinh(_X_MAX)
_H0 = 0.5
_FIRST = 4  # the finest level of the first call: step _H0 / 16, 453 nodes
_TAIL_EPS = 1e-22  # per-term floor relative to the largest term seen
# |k| bound of quotient_radial's shift r = 2^k s: each 2^k s, s in e^(+-_X_MAX), stays a normal double
_K_MAX = math.floor(1 - sys.float_info.min_exp - _X_MAX / math.log(2.0))  # 156


class QuadResult(NamedTuple):
    """An integral, the correctly rounded sum of the last level's kept terms, with its
    error estimate (the last two levels' difference) and ``nodes``, the terms summed over all levels.
    ``nodes`` counts terms, not integrand evaluations: a node reused at a
    finer level counts again there, and a node past a side's truncation
    point does not count, though the first call evaluates it."""

    value: float
    abs_error_estimate: float
    nodes: int


@functools.cache
def _grid(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae s and weights w of the step-h level, nodes k = -K..K.

    K is the largest k with k*h <= _X_CUT, so node k sits at index k + K.
    Both arrays are read-only: they are shared by every integral.
    """
    k = math.floor(_X_CUT / h)
    x = np.arange(-k, k + 1) * h
    with np.errstate(all="ignore"):
        s = np.exp(np.sinh(x))
        w = np.cosh(x) * s * h
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def _refine(vals: list, f, h: float) -> list:
    """Each row's values on the step-h grid: those at step 2h on its even nodes,
    as node k there is node 2k here, bit for bit, and one call of f on its odd
    nodes."""
    s = _grid(h)[0]
    old, new = slice(s.size // 2 % 2, None, 2), slice(1 - s.size // 2 % 2, None, 2)
    fine = [np.empty(s.size) for _ in vals]
    for row, v, odd in zip(fine, vals, f(s[new].copy())):  # a row constant in s may be a scalar
        row[old], row[new] = v, odd
    return fine


def _side_count(terms: list, s: np.ndarray) -> int:
    """How many of one side's terms (outward from k=+-1) the tail rule keeps.

    The side ends after three consecutive terms at most _TAIL_EPS times
    the largest term so far, or at a non-finite term that follows an
    astronomically small one (a negligible tail overflowed in an
    intermediate).  A side whose last node carries its largest term, or
    whose terms turn non-finite right after their largest, does not decay:
    the integral diverges at that end.  A non-finite term anywhere else is
    an error.
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
        elif scale > 0.0 and abs(terms[kept - 1]) == scale:
            break
        else:
            raise DomainError(f"integrand produced a non-finite value at s={float(s[kept]):.6e}")
    else:
        if scale == 0.0 or abs(terms[-1]) < scale:
            return len(terms)
    # s[kept] is the last node or the first non-finite term
    side = "0" if s[kept] < 1.0 else "infinity"
    raise DivergentIntegralError(f"integrand does not decay toward {side}: its terms grow up to s={float(s[kept]):.6e}")


def _walk(vals: np.ndarray, h: float) -> tuple[float, int, int]:
    """Truncated trapezoid sum of one level and the terms kept per side, from
    its values on the whole grid; sides are walked outward, negative first,
    as far as the tail rule keeps.  Called under np.errstate(all="ignore"),
    like the integrand."""
    s, w = _grid(h)
    mid = s.size // 2
    center = float(vals[mid]) * h
    if not math.isfinite(center):
        raise DomainError("integrand produced a non-finite value at s=1")
    terms = (vals * w).tolist()
    neg = terms[mid - 1 :: -1]
    neg = neg[: _side_count(neg, s[mid - 1 :: -1])]
    pos = terms[mid + 1 :]
    pos = pos[: _side_count(pos, s[mid + 1 :])]
    # math.fsum, correctly rounded and order-free; taking each side outward from
    # s = 1, largest terms first, keeps its partials few and halves its time.
    kept = neg + pos + [center]
    try:
        return math.fsum(kept), len(neg), len(pos)
    except OverflowError:  # a partial left double range; the exact sum may not
        try:
            return float(sum(map(Fraction, kept))), len(neg), len(pos)
        except OverflowError:
            raise DomainError(f"level sum at step h={h:g} exceeds double range") from None


def _integrate(f, tol: float, node_cap: int) -> tuple[QuadResult, ...]:
    """The body of both integrators, so that a trace times each apart.  Runs
    under np.errstate(all="ignore"): the tail rule, not numpy, judges overflow.
    Rows run one by one, each to its result or its error (module docstring)."""
    finest = _FIRST
    s = _grid(_H0 / 2**finest)[0].copy()  # levels 0 to _FIRST, writable for the integrand
    grid = [np.asarray(v, dtype=float) for v in f(s)]
    grid = [v if v.shape == s.shape else np.broadcast_to(v, s.shape) for v in grid]
    results = []
    for i in range(len(grid)):
        total_nodes, prev, best_err, level = 0, None, math.inf, 0
        while True:
            h = _H0 / 2**level
            if level > finest:
                finest, grid = level, _refine(grid, f, h)
            stride = 1 << (finest - level)  # this level is every stride-th node, centred on s = 1
            value, n_neg, n_pos = _walk(grid[i][grid[i].size // 2 % stride :: stride], h)
            total_nodes += n_neg + n_pos + 1
            if level:
                best_err = abs(value - prev)
            result = QuadResult(value=value, abs_error_estimate=best_err, nodes=total_nodes)
            if level >= 2 and best_err <= tol * max(abs(value), sys.float_info.min):
                break
            if total_nodes >= node_cap:
                raise AccuracyError(
                    f"no convergence to tol={tol:g} within {node_cap} nodes (best error estimate {best_err:g})", result
                )
            prev = value
            level += 1
        results.append(result)
    return tuple(results)


def integrate_rows(f, tol: float = DEFAULT_TOL, *, node_cap: int = NODE_CAP) -> tuple[QuadResult, ...]:
    """Integrate each row of ``f`` over (0, inf) to relative tolerance ``tol``.

    ``f`` maps a float ndarray of abscissae to a sequence of integrand rows,
    one per integral (a row constant in s may be a scalar).  The rows are
    integrated one by one, in order, on one grid that each call of ``f``
    refines for all of them: row i's result is :func:`integrate_semiinfinite`
    of row i alone, bit for bit, and the first row that fails raises what it
    would raise alone.
    """
    with np.errstate(all="ignore"):
        return _integrate(f, tol, node_cap)


def integrate_semiinfinite(f, tol: float = DEFAULT_TOL, *, node_cap: int = NODE_CAP) -> QuadResult:
    """Integrate ``f`` over (0, inf) to relative tolerance ``tol``.

    ``f`` maps a float ndarray of abscissae to an array of integrand
    values; a result that is constant in s may come back as a scalar.

    Raises:
        DivergentIntegralError: the terms of one side do not decay
            toward its end (see module docstring).
        AccuracyError: the node budget ``node_cap`` was exhausted before
            two consecutive refinement levels agreed to ``tol``.
        DomainError: a significant term is non-finite, or a level sum
            exceeds double range.
    """
    with np.errstate(all="ignore"):
        return _integrate(lambda s: (f(s),), tol, node_cap)[0]


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


def quotient_radial(u, p: Params) -> float:
    """Rayleigh quotient ||u||^2 / ||u||_*^2 over radial profiles.

    The energy is omega * integral (u'' + (N-1+alpha) u'/r)^2 r^(N+2*alpha-beta-1) dr,
    the critical norm ||u||_* is (omega * integral |u|^p* r^(beta+N-1) dr)^(1/p*).

    Both are integrated in s = r / 2^k, 2^k the power of two nearest u's radius 2^u.log2_radius
    (|k| <= _K_MAX = 156), so a scaled extremal costs what lam = 1 costs: the rows are taken at
    r = 2^k s times dr/ds = 2^k, both products exact and the identity at k = 0.  Errors name s.
    """
    d, omega = derive(p), sphere_area(p.N)
    scale = 2.0 ** round(min(max(u.log2_radius, -_K_MAX), _K_MAX))

    def rows(s):  # the integrands of ||u||_* and ||u||^2 in s, from one jet at r = 2^k s
        r = s * scale
        jet = u.jet(r, 2)
        lap = mode_operator(jet, r, p.N - 1.0 + p.alpha, 0.0)
        star = power_weighted(jet[0], r, d.p_star, p.beta + p.N - 1.0)
        return scale * star, scale * power_weighted(lap, r, 2.0, p.N + 2.0 * p.alpha - p.beta - 1.0)

    star, energy = (res.value for res in integrate_rows(rows))
    denom = (omega * star) ** (1.0 / d.p_star)
    if denom == 0.0:
        raise DomainError("quotient undefined: ||u||_* = 0")
    return omega * energy / (denom * denom)
