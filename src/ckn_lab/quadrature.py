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

Before integrating, the integrand is probed near both endpoints and the
measured log-log slopes are screened: the power at the origin must
exceed -1 and the power at infinity must fall below -1, otherwise a
:class:`DivergentIntegralError` is raised with the offending exponent.
This catches nonintegrable weight combinations before they can produce
a plausible-looking but meaningless number.
"""

from __future__ import annotations

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
_CHUNK = 64


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


def _screen_endpoints(fv) -> None:
    with np.errstate(all="ignore"):
        vals = np.abs(fv(np.array([1e-7, 1e-6, 1e6, 1e7])))
    lo_a, lo_b, hi_a, hi_b = (float(v) for v in vals)
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


def _side_terms(fv, h: float, direction: int):
    """Collect (k, term) outward from k=+-1 until the tail is negligible."""
    terms = []
    scale = 0.0
    quiet = 0
    k = direction
    while abs(k * h) <= _X_CUT:
        ks = np.arange(k, k + direction * _CHUNK, direction)
        x = ks * h
        x = x[np.abs(x) <= _X_CUT]
        if x.size == 0:
            break
        with np.errstate(all="ignore"):
            s = np.exp(math.pi * np.sinh(x))
            w = math.pi * np.cosh(x) * s * h
            vals = fv(s)
            chunk = vals * w
        stop = False
        for i in range(x.size):
            t = float(chunk[i])
            if not math.isfinite(t):
                if scale > 0.0 and abs(terms[-1][1]) <= 1e-18 * scale:
                    # astronomically small tail overflowed in an
                    # intermediate; its true contribution is negligible
                    stop = True
                    break
                raise DomainError(
                    f"integrand produced a non-finite value at s={float(s[i]):.6e}"
                )
            terms.append((int(ks[i]), t))
            mag = abs(t)
            scale = max(scale, mag)
            if scale > 0.0 and mag <= _TAIL_EPS * scale:
                quiet += 1
                if quiet >= 3:
                    stop = True
                    break
            else:
                quiet = 0
        if stop:
            break
        k = int(ks[-1]) + direction
    return terms


def _level_sum(fv, h: float) -> tuple[float, int]:
    with np.errstate(all="ignore"):
        center = float(fv(np.array([1.0]))[0]) * math.pi * h
    if not math.isfinite(center):
        raise DomainError("integrand produced a non-finite value at s=1")
    neg = _side_terms(fv, h, -1)
    pos = _side_terms(fv, h, +1)
    ordered = [t for _, t in reversed(neg)] + [center] + [t for _, t in pos]
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
    _screen_endpoints(fv)

    total_nodes = 0
    prev = None
    best_err = math.inf
    h = _H0
    level = 0
    while True:
        value, n = _level_sum(fv, h)
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
