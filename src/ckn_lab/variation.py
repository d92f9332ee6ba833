"""Second variation at the radial minimizer and the breaking certificate.

Perturbing the radial minimizer U by a first-harmonic direction
Z_i = g(r) x_i/|x| lowers the Rayleigh quotient exactly when the
transformed dimension/exponent pair crosses the transition curve.  This
module evaluates that statement three independent ways:

* a closed-form factored expression for the second variation (Beta
  integrals, sign carried by a single factor; the tests check the Beta
  reductions against quadrature),
* the directional quotient I(U + eps Z_i) by explicit 2D quadrature,
* the least Ritz eigenvalue of the mode-1 stability form (spectral).

`certify` bundles the three witnesses into a verdict and never
reconciles disagreement silently: mismatches between measured signs and
the analytic classification are reported as discrepancies.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .params import (
    DEFAULT_CERT_TOL,
    DEFAULT_EPS,
    Params,
    RegionClass,
    beta_fs,
    classify,
    derive,
    harmonic_eigenvalue,
    s_r_closed,
    sphere_area,
)
from .profiles import PowerPeakProfile, _exponents, kernel_mode
from .quadrature import integrate_rows, mode_operator, power_weighted
from .spectral import ritz_min_eig
from .specfun import DomainError, beta_fn

__all__ = [
    "SecondVariation",
    "Verdict",
    "BreakingCertificate",
    "second_variation",
    "directional_quotient",
    "certify",
]


class SecondVariation(NamedTuple):
    """Factored second variation of the quotient at the radial minimizer.

    value = prefactor * factor * (2*I1 + ((2M-5)+mu)*I2), where
    mu = q^2 (N-1), factor = mu - (M-1), prefactor = omega/(N q^3), and
    I1, I2 are the two positive profile integrals of the kernel-mode
    radial factor.  The sign lives entirely in `factor`.
    """

    value: float
    mu: float
    factor: float
    I1: float
    I2: float
    prefactor: float


def second_variation(p: Params) -> SecondVariation:
    """Closed-form second variation, by Beta-function reduction.

    I1 = int (X1')^2 s^(M-4) ds and I2 = int X1^2 s^(M-5) ds with
    X1 = s(1+s^2)^(-(M-2)/2).  Raises DomainError where the value overflows
    double precision, or a Beta value or a nonzero value underflows it.
    """
    d = derive(p)
    m = d.M
    mu = d.q**2 * (p.N - 1.0)
    factor = mu - (m - 1.0)
    try:
        prefactor = sphere_area(p.N) / p.N * d.q**-3
    except OverflowError:
        prefactor = math.inf
    # Beta reduction: X1' = (1+s^2)^(-M/2) (1 - (M-3)s^2), so (X1')^2 s^(M-4)
    # integrates to half of B((M-3)/2,(M+3)/2) + (M-3)(M-5) B((M-1)/2,(M+1)/2).
    betas = (
        beta_fn((m - 3.0) / 2.0, (m + 3.0) / 2.0),
        beta_fn((m - 1.0) / 2.0, (m + 1.0) / 2.0),
        beta_fn((m - 2.0) / 2.0, (m - 2.0) / 2.0),
    )
    i1 = 0.5 * (betas[0] + (m - 3.0) * (m - 5.0) * betas[1])
    i2 = 0.5 * betas[2]
    value = prefactor * factor * (2.0 * i1 + ((2.0 * m - 5.0) + mu) * i2)
    if not math.isfinite(value):
        raise DomainError(f"second variation overflows double precision at M={m!r}")
    if min(betas) < sys.float_info.min or (factor != 0.0 and abs(value) < sys.float_info.min):
        raise DomainError(f"second variation underflows double precision at M={m!r}")
    return SecondVariation(
        value=value, mu=mu, factor=factor, I1=i1, I2=i2, prefactor=prefactor
    )


_GL_THETA_NODES = 64


@functools.cache
def _theta_rule(N: int):
    """Polar-angle nodes cos(theta) and weights; read-only, built once per N."""
    x, w = np.polynomial.legendre.leggauss(_GL_THETA_NODES)
    theta = 0.5 * math.pi * (x + 1.0)
    weight = 0.5 * math.pi * w * np.sin(theta) ** (N - 2)
    cos_t = np.cos(theta)
    cos_t.flags.writeable = False
    weight.flags.writeable = False
    return cos_t, weight


def _angular_sum(uv, gv, eps: float, cos_t, w_t, p_star: float):
    """w_t @ |uv + eps cos_t gv|^p_star: the angular sum at each radial node.

    The (theta, r) array is built in place by the operations of
    uv[None, :] + eps * np.outer(cos_t, gv), so every entry keeps its bits.
    p_star is raised only over the span from the first to the last radial
    column that eps g moves off uv.  Outside it every theta entry is |uv_j|
    itself (eps g is below an ulp of U1 toward r = 0, and both underflow far
    out), so the column is filled with that one power, bit for bit the
    whole-grid power, and the product with w_t is the same BLAS call.
    """
    terms = np.multiply.outer(cos_t, gv)
    terms *= eps
    terms += uv
    moved = np.flatnonzero((terms != uv).any(axis=0))
    lo, hi = (moved[0], moved[-1] + 1) if moved.size else (0, 0)
    np.abs(terms, out=terms)
    terms[:, lo:hi] **= p_star
    terms[:, :lo] = np.abs(uv[:lo]) ** p_star
    terms[:, hi:] = np.abs(uv[hi:]) ** p_star
    return w_t @ terms


def directional_quotient(p: Params, eps: float) -> float:
    """Rayleigh quotient of U1 + eps * g(r) x_i/|x| (first harmonic).

    U1 is U at amplitude 1: the quotient has degree 0, so eps is relative to U.
    Numerator: ||U1||^2 + eps^2 ||Z||^2 (the cross term vanishes by
    harmonic orthogonality, so it is not quadratured away).  Denominator:
    full 2D quadrature, a 64-node Gauss-Legendre rule in the polar angle
    tensored with the adaptive radial rule.  The angular powers are raised
    only over the span of radial nodes where eps g moves U1, bit for bit
    the whole-grid power (`_angular_sum`).  At eps = 0 this is the
    radial quotient; below the transition curve it exceeds the radial
    constant for small eps, above the curve it drops strictly below.
    """
    if not abs(eps) < 0.5:
        raise DomainError(f"|eps| must be < 0.5, got {eps}")
    d, omega = derive(p), sphere_area(p.N)
    S, K, D = _exponents(p)
    u = PowerPeakProfile([(1.0, 0, Fraction(-K, S))], sigma=Fraction(S, D))  # U1, with e = -kappa/sigma
    g = kernel_mode(p, "Z1_radial")
    w, drift = p.N + 2.0 * p.alpha - p.beta - 1.0, p.N - 1.0 + p.alpha
    lams = (0.0, harmonic_eigenvalue(p.N, 1))  # ||U1||^2, and g's mode-1 energy
    cos_t, w_t = _theta_rule(p.N)
    radial_power = p.beta + p.N - 1.0

    def rows(r):  # the energies, then the angular sum of the denominator
        jets = u.jet(r, 2), g.jet(r, 2)  # one log pass each
        energies = [power_weighted(mode_operator(jet, r, drift, lam), r, 2.0, w) for jet, lam in zip(jets, lams)]
        uv, gv = (jet[0] for jet in jets)
        angular = _angular_sum(uv, gv, eps, cos_t, w_t, d.p_star)
        return [*energies, angular * power_weighted(np.ones_like(r), r, 1.0, radial_power)]

    energy_u, energy_g, raw = (res.value for res in integrate_rows(rows))
    # ||Z||^2: omega/N (the mean of (x_i/|x|)^2) times the mode-1 energy of g
    numerator = omega * energy_u + eps**2 * (omega / p.N * energy_g)
    area_factor = sphere_area(p.N - 1)  # (N-2)-sphere, polar-angle reduction
    denominator = (area_factor * raw) ** (2.0 / d.p_star)
    return numerator / denominator


class Verdict(Enum):
    BREAKING = "Breaking"
    NOT_BREAKING = "NotBreaking"
    BOUNDARY = "Boundary"


class BreakingCertificate(NamedTuple):  # fields in the order the command line prints them
    params: Params
    verdict: Verdict
    expected: Verdict
    witness_signs: tuple  # (second variation, quotient drop, ritz), each in {-1,0,+1}
    s_r: float
    second_variation: float
    directional_quotient: float
    eps: float
    ritz_rho1: float
    discrepancies: tuple

    # compared and hashed by identity, like RitzResult
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


_CURVE_WINDOW = 1e-9  # |beta - beta_fs| treated as exactly on the curve


def _expected_verdict(p: Params) -> Verdict:
    cls = classify(p.N, p.alpha, p.beta)
    if p.alpha > 0.0 and abs(p.beta - beta_fs(p.N, p.alpha)) <= _CURVE_WINDOW:
        return Verdict.BOUNDARY
    if cls in (RegionClass.SYMMETRY_BREAKING, RegionClass.NOT_ATTAINED_BOUNDARY):
        return Verdict.BREAKING
    return Verdict.NOT_BREAKING


def certify(p: Params, eps: float = DEFAULT_EPS, tol: float = DEFAULT_CERT_TOL) -> BreakingCertificate:
    """Three-witness symmetry-breaking certificate at one parameter point.

    Witnesses (independent code paths): the factored second variation,
    the measured quotient drop I(U1+eps Z) - S_r with U at unit amplitude,
    and the least mode-1 Ritz eigenvalue in a basis of 16 functions.  Each
    is reduced to a sign with dead zone `tol` (the second variation through
    its sign-carrying factor, the quotient drop against tol * S_r * eps^2,
    its natural second-order scale).
    All-negative yields Breaking, all-positive NotBreaking, zeros without
    sign conflict Boundary.
    The verdict is what was *measured*; if it differs from the analytic
    classification (or the witnesses conflict), the discrepancies field
    says so explicitly.  On the upper edge beta = N*alpha/(N-2), alpha > 0,
    S_0 < S_r, so the radial profile is not optimal and Breaking is expected.
    """
    if eps == 0.0 or not abs(eps) < 0.5:
        raise DomainError(f"certificate perturbation needs 0 < |eps| < 0.5, got {eps}")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be >= 0 and finite, got {tol}")
    sv = second_variation(p)
    s_r = s_r_closed(p)
    quotient = directional_quotient(p, eps)
    rho1 = ritz_min_eig(1, p, 16).min_eigenvalue

    def sign_with_dead_zone(x: float, threshold: float) -> int:
        if abs(x) <= threshold:
            return 0
        return -1 if x < 0.0 else 1

    signs = (
        sign_with_dead_zone(sv.factor, tol),  # value is factor times a positive bracket
        sign_with_dead_zone(quotient - s_r, tol * s_r * eps**2),
        sign_with_dead_zone(rho1, tol),
    )

    if all(s == -1 for s in signs):
        verdict = Verdict.BREAKING
    elif all(s == 1 for s in signs):
        verdict = Verdict.NOT_BREAKING
    else:
        verdict = Verdict.BOUNDARY

    discrepancies = []
    if -1 in signs and 1 in signs:
        discrepancies.append(
            f"witness signs conflict: second_variation/quotient/ritz = {signs}"
        )
    expected = _expected_verdict(p)
    if verdict is not expected:
        discrepancies.append(
            f"measured verdict {verdict.value} != expected {expected.value} "
            f"from classification {classify(p.N, p.alpha, p.beta).value}"
        )
    return BreakingCertificate(
        params=p,
        verdict=verdict,
        expected=expected,
        witness_signs=signs,
        s_r=s_r,
        second_variation=sv.value,
        directional_quotient=quotient,
        eps=eps,
        ritz_rho1=rho1,
        discrepancies=tuple(discrepancies),
    )
