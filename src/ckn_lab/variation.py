"""Second variation at the radial minimizer and the breaking certificate.

Perturbing the radial minimizer U by a first-harmonic direction
Z_i = g(r) x_i/|x| lowers the Rayleigh quotient exactly when the
transformed dimension/exponent pair crosses the transition curve.  This
module evaluates that statement three independent ways:

* a closed-form factored expression for the second variation (Beta
  integrals, sign carried by a single factor; the tests check the Beta
  reductions against quadrature),
* the quotient drop D = I(U + eps Z_i)/I(U) - 1 by radial quadrature of closed-form
  integrands in C.-S. Lin's variable s = r^(sigma/2), on one grid, its polar mean a
  hypergeometric series (the directional quotient is S_r (1 + D)),
* the least Ritz eigenvalue of the mode-1 stability form (spectral).

`certify` signs the factor, D and rho_1 (it forms neither the second variation's
value nor S_r) and never reconciles disagreement silently: mismatches between
measured signs and the analytic classification are reported as discrepancies.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
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
    gamma_m,
    s_r_closed,
    sphere_area,
)
from .quadrature import integrate_rows
from .spectral import _coupling, ritz_min_eig
from .specfun import DomainError, _finite, _or_inf, beta_fn

__all__ = [
    "SecondVariation",
    "Verdict",
    "BreakingCertificate",
    "second_variation",
    "quotient_drop",
    "kernel_coefficients",
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
    mu, m, factor = _coupling(1, p)
    prefactor = sphere_area(p.N) / p.N * _or_inf(pow, derive(p).q, -3)
    # Beta reduction: X1' = (1+s^2)^(-M/2) (1 - (M-3)s^2), so (X1')^2 s^(M-4)
    # integrates to half of B((M-3)/2,(M+3)/2) + (M-3)(M-5) B((M-1)/2,(M+1)/2).
    betas = (
        beta_fn((m - 3.0) / 2.0, (m + 3.0) / 2.0),
        beta_fn((m - 1.0) / 2.0, (m + 1.0) / 2.0),
        beta_fn((m - 2.0) / 2.0, (m - 2.0) / 2.0),
    )
    i1 = 0.5 * (betas[0] + (m - 3.0) * (m - 5.0) * betas[1])
    i2 = 0.5 * betas[2]
    value = _finite(prefactor * factor * (2.0 * i1 + ((2.0 * m - 5.0) + mu) * i2), "second variation", f"M={m!r}")
    if min(betas) < sys.float_info.min or (factor != 0.0 and abs(value) < sys.float_info.min):
        raise DomainError(f"second variation underflows double precision at M={m!r}")
    return SecondVariation(
        value=value, mu=mu, factor=factor, I1=i1, I2=i2, prefactor=prefactor
    )


def _polar_excess(x2, p_star: float, N: int):
    """Mean of (1 + x cos(theta))^p* over S^(N-1), less 1, at each x2 = x^2 < 1, by Funk-Hecke.

    E[cos^(2j) theta] = (1/2)_j/(N/2)_j, so the mean is 2F1(-p*/2, (1-p*)/2; N/2; x^2); its series
    from j = 1 is summed until every term is below an ulp of its partial sum, to full relative
    precision as x -> 0.  It is exactly 0.0 where x2 = 0, and ends where p* is an integer.
    """
    a, b, c = -0.5 * p_star, 0.5 * (1.0 - p_star), 0.5 * N
    term, total, j = 1.0, np.zeros_like(x2), 0
    while np.any(np.abs(term) >= np.spacing(total)):
        term = term * ((a + j) * (b + j) / ((c + j) * (j + 1.0))) * x2
        total += term
        j += 1
    return total


def quotient_drop(p: Params, eps: float) -> float:
    """D = Q(U + eps g x_i/|x|)/Q(U) - 1 on one grid, where S_r's prefactor cancels.

    In C.-S. Lin's variable s = r^(sigma/2), with q = 2/sigma, t = s^2/(1+s^2) and h = s/(1+s^2)
    <= 1/2, U = ((1+s^2)/2)^(-(M-4)/2) is the ground state scaled to 1 at s = 1 (Q has degree 0)
    and g = h U its first kernel mode.  On them s^2 v'' + (M-1) s v' - q^2 lam v is
    U (M-4) t ((M-2) t - M) and U h ((M-1-mu) - (M-2)(M+2) t + (M-2) M t^2), mu = q^2 (N-1).  With
    E = int (.)^2 s^(M-5) ds, 2/p* = 1 - 4/M and U's equation E_U = gamma_m(M)/16 int U^p* s^(M-1) ds,

        1 + D = (1 + eps^2 E_g/(N E_U)) / (1 + gamma_m(M) X/(16 E_U))^(2/p*),

    the cross term vanishing by harmonic orthogonality; X = int U^p* (A - 1) s^(M-1) ds, A the polar
    mean of (1 + eps h cos(theta))^p* (`_polar_excess`).  E_U, E_g and X are rows of one
    `integrate_rows` call in x = s^sqrt(M), of unit peak width at every M, with log-space weights
    U^2 s^(M-4) = cosh(ln s)^-(M-4) and U^p* s^M = cosh(ln s)^-M.  A non-finite D is a DomainError,
    and so is eps outside |eps| < 0.5 or with eps^2 neither 0.0 nor a normal double, before any quadrature.
    """
    if not (abs(eps) < 0.5 and (eps == 0.0 or eps * eps >= sys.float_info.min)):
        raise DomainError(f"quotient drop needs |eps| < 0.5 with eps^2 0.0 or a normal double, got {eps}")
    d = derive(p)
    m, root = d.M, math.sqrt(d.M)
    factor = _coupling(1, p)[2]  # certify's factor mu - (M-1)

    def rows(x):  # the energies of U and g, then the denominator's polar excess
        lx = np.log(x)
        y = lx / root  # ln s
        log_cosh = 0.5 * np.log1p(np.sinh(y) ** 2)  # to full relative precision near y = 0
        t, h = 1.0 / (1.0 + np.exp(-2.0 * y)), 0.5 / np.cosh(y)
        log_dx = -lx - 0.5 * math.log(m)  # ds/s = dx/(sqrt(M) x)
        w = np.exp(log_dx - (m - 4.0) * log_cosh)
        return [
            ((m - 4.0) * t * ((m - 2.0) * t - m)) ** 2 * w,
            (h * ((m - 2.0) * t * (m * t - (m + 2.0)) - factor)) ** 2 * w,
            _polar_excess((eps * h) ** 2, d.p_star, p.N) * np.exp(log_dx - m * log_cosh),
        ]

    energy_u, energy_g, excess = (res.value for res in integrate_rows(rows))
    drop = math.expm1(
        math.log1p(eps**2 * energy_g / (p.N * energy_u))
        - 2.0 / d.p_star * math.log1p(gamma_m(m) * excess / (16.0 * energy_u))
    )
    if not math.isfinite(drop):
        raise DomainError(f"directional quotient drop is not finite at M={m!r}")
    return drop


def kernel_coefficients(p: Params) -> tuple[float, float]:
    """(c2, c4'): `quotient_drop` is D(eps) = c2 eps^2 + c4' eps^4 + O(eps^6), in closed form.

    Each row of the drop is a Beta moment, so 1 + D = (1 + a1 eps^2) (1 + sum_j b_j eps^(2j))^(-r), r = 2/p*,
    with b_j `_polar_excess`'s term j times prod_(i<j) (M+2i)/(4(M+2i+1)) = B(M/2+j, M/2+j)/B(M/2, M/2).
    N c2 = 2 factor (M^3 - 2M^2 - 4M + 6 + 2 mu (M-1)) / (M (M-4) (M-2)^2 (M+2)), with certify's
    factor = mu - (M-1) and the rest, taken over powers of M, positive on the strip: c2 has factor's
    sign.  With a1 = c2 + r b1, c4' = -r b2 + r(r+1)/2 b1^2 - a1 r b1 = -r b2 + r(1-r)/2 b1^2 - r b1 c2,
    where p* = 2M/(M-4), so p*-1, 2-p*, 3-p*, r and 1-r are taken from M, free of cancellation as
    p* -> 2.  A DomainError where c4', or c2 off factor = 0, underflows the normal doubles.
    """
    mu, m, factor = _coupling(1, p)
    n, w = p.N, m - 4.0
    cubic = 1.0 - (2.0 + (4.0 - 6.0 / m) / m) / m + 2.0 * mu / m * (1.0 - 1.0 / m) / m  # over M^3
    c2 = 2.0 * factor / m * cubic / ((1.0 - 4.0 / m) * (1.0 - 2.0 / m) ** 2 * (1.0 + 2.0 / m)) / m / n
    b1 = 2.0 * m / w * ((m + 4.0) / w) / (2.0 * n) * m / (4.0 * (m + 1.0))
    b2 = b1 * (-8.0 / w) * ((m - 12.0) / w) / (4.0 * (n + 2.0)) * (m + 2.0) / (4.0 * (m + 3.0))
    r = w / m
    c4 = -r * b2 + r * (4.0 / m) / 2.0 * b1**2 - r * b1 * c2
    if abs(c4) < sys.float_info.min or (factor != 0.0 and abs(c2) < sys.float_info.min):
        raise DomainError(f"kernel coefficients underflow double precision at M={m!r}")
    return c2, c4


def directional_quotient(p: Params, eps: float) -> float:
    """Rayleigh quotient of U + eps g x_i/|x|, S_r (1 + D) with D `quotient_drop`'s: S_r itself at eps = 0,
    and wherever |D| < ulp(1)/2 (value - S_r is 0.0 at (5, 1, 1), eps = 1e-8, D = -4.32e-18); certify signs D."""
    return s_r_closed(p) * (1.0 + quotient_drop(p, eps))


class Verdict(Enum):
    BREAKING = "Breaking"
    NOT_BREAKING = "NotBreaking"
    BOUNDARY = "Boundary"


class BreakingCertificate(NamedTuple):  # fields in the order the command line prints them
    params: Params
    verdict: Verdict
    expected: Verdict
    witness_signs: tuple  # the signs of factor, quotient_drop and ritz_rho1, each in {-1,0,+1}
    factor: float  # mu - (M-1), the second variation's sign-carrying factor
    quotient_drop: float  # D = Q(U + eps Z)/Q(U) - 1
    eps: float
    ritz_rho1: float
    discrepancies: tuple

    # compared and hashed by identity, like RitzResult
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


_CURVE_WINDOW = 1e-9  # |beta - beta_fs| treated as exactly on the curve


def _expected_verdict(p: Params) -> Verdict:
    cls = classify(p.N, p.alpha, p.beta)
    if p.alpha >= 0.0 and abs(p.beta - beta_fs(p.N, p.alpha)) <= _CURVE_WINDOW:
        return Verdict.BOUNDARY
    if cls in (RegionClass.SYMMETRY_BREAKING, RegionClass.NOT_ATTAINED_BOUNDARY):
        return Verdict.BREAKING
    return Verdict.NOT_BREAKING


def certify(p: Params, eps: float = DEFAULT_EPS, tol: float = DEFAULT_CERT_TOL) -> BreakingCertificate:
    """Three-witness symmetry-breaking certificate at one parameter point.

    Witnesses (independent code paths): the second variation's sign-carrying
    factor mu - (M-1), the quotient drop D = I(U+eps Z)/I(U) - 1 on one grid, and
    the least mode-1 Ritz eigenvalue in a basis of 16 functions.  Each is
    reduced to a sign with dead zone `tol` (D against tol * eps^2 for a normal
    eps^2).  Neither the second variation's value nor S_r is formed, so certify
    answers where they leave double range.  All-negative yields Breaking,
    all-positive NotBreaking, zeros without sign conflict Boundary.
    The verdict is what was *measured*; if it differs from the analytic
    classification (or the witnesses conflict), the discrepancies field
    says so explicitly.  On the upper edge beta = N*alpha/(N-2), alpha > 0,
    S_0 < S_r, so the radial profile is not optimal and Breaking is expected.
    """
    if not (eps != 0.0 and 0.0 <= tol < math.inf):  # quotient_drop judges eps further
        raise DomainError(f"certificate needs eps != 0 and tol >= 0 finite, got eps={eps}, tol={tol}")
    factor = _coupling(1, p)[2]  # second_variation's: its value is factor times a positive bracket
    drop = quotient_drop(p, eps)
    rho1 = ritz_min_eig(1, p, 16).min_eigenvalue

    def sign_with_dead_zone(x: float, threshold: float) -> int:
        if abs(x) <= threshold:
            return 0
        return -1 if x < 0.0 else 1

    signs = (
        sign_with_dead_zone(factor, tol),
        sign_with_dead_zone(drop, tol * eps**2),
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
        factor=factor,
        quotient_drop=drop,
        eps=eps,
        ritz_rho1=rho1,
        discrepancies=tuple(discrepancies),
    )
