"""Mode decomposition data and the linearized stability eigenproblem.

The stability of the radial minimizer against a spherical-harmonic mode
of index k reduces to the sign of a one-dimensional quadratic form

    Q_k(X) = int [X'' + (M-1)X'/s - q^2 lambda_k X/s^2]^2 s^(M-1) ds
             - (M+4)(M-2)M(M+2) int (1+s^2)^(-4) X^2 s^(M-1) ds

over decaying profiles X.  This module provides the mode data, direct
evaluation of Q_k, a Rayleigh-Ritz minimizer for its smallest
generalized eigenvalue, and Brent's method on that sign to locate the
symmetry-breaking transition curve in beta.

Two deliberately independent numerical routes coexist: `mode_quadratic_form`
integrates adaptively one profile at a time in s, while `ritz_min_eig`
maps the basis to w = (s^2-1)/(s^2+1) and assembles its matrices exactly
by Gauss-Jacobi quadrature; the test suite checks the Rayleigh quotient of
the Ritz minimizer on the adaptive route against the Ritz eigenvalue.
The root search needs only the smallest basis, because every basis holds
the exact mode-1 ground state on the curve (see `fs_locate`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as _legendre

from .params import Params, derive, harmonic_eigenvalue, validate
from .quadrature import integrate_semiinfinite, mode_energy, power_weighted
from .specfun import DomainError

__all__ = [
    "ModeData",
    "RitzResult",
    "ConditioningError",
    "BracketError",
    "mode_data",
    "mode_quadratic_form",
    "ritz_min_eig",
    "ritz_min_eig_fallback",
    "fs_locate",
]


class ConditioningError(RuntimeError):
    """Gram matrix of the Ritz basis is numerically singular."""


class BracketError(RuntimeError):
    """No sign change of the least eigenvalue inside the search interval."""


@dataclass(frozen=True)
class ModeData:
    """Angular data of spherical-harmonic mode k in dimension N."""

    k: int
    lambda_k: float  # eigenvalue k(N-2+k) of the sphere Laplacian
    l_k: int  # multiplicity of the eigenspace
    varpi_k: float  # transformed eigenvalue k(M-2+k)


@dataclass(frozen=True, eq=False)
class RitzResult:
    min_eigenvalue: float
    coefficients: np.ndarray
    basis_size: int
    gram_condition: float


def mode_data(k: int, p: Params) -> ModeData:
    if k < 0:
        raise DomainError(f"mode index must be >= 0, got {k}")
    N = p.N
    lam = harmonic_eigenvalue(N, k)
    if k == 0:
        mult = 1
    else:
        mult = (N + 2 * k - 2) * math.factorial(N + k - 3) // (
            math.factorial(N - 2) * math.factorial(k)
        )
    m = derive(p).M
    return ModeData(k=k, lambda_k=lam, l_k=mult, varpi_k=float(k) * (m - 2.0 + k))


def _potential_constant(M: float) -> float:
    # (2M/(M-4) - 1) * profiles.gamma_m(M), simplified
    return (M + 4.0) * (M - 2.0) * M * (M + 2.0)


def mode_quadratic_form(X, k: int, p: Params) -> float:
    """Q_k(X): stability form of mode k at the radial minimizer.

    Negative values certify an energy-lowering perturbation in mode k.
    Raises the quadrature layer's divergence error if X is inadmissible
    (e.g. non-decaying, or k >= 1 with X(0) != 0).
    """
    d = derive(p)
    m = d.M
    lead = mode_energy(X, m - 1.0, d.q**2 * mode_data(k, p).lambda_k, m - 1.0)

    def potential_part(s):
        return power_weighted(X.eval(s), s, 2.0, m - 1.0) / (1.0 + s * s) ** 4

    pot = integrate_semiinfinite(potential_part).value
    return lead - _potential_constant(m) * pot


# ---------------------------------------------------------------------------
# Rayleigh-Ritz
# ---------------------------------------------------------------------------

GRAM_CONDITION_LIMIT = 1e12
_EXTRA_NODES = 8  # Gauss-Jacobi nodes beyond J; J+2 already integrate exactly


def _gauss_jacobi(n: int, a: float, b: float):
    """n-point Gauss-Jacobi rule for the weight (1-w)^a (1+w)^b on (-1, 1).

    Golub-Welsch: nodes are the eigenvalues of the monic recurrence's
    Jacobi matrix, weights mu0 * v0^2 from the first eigenvector components.
    Returns (nodes, v0^2, log mu0), mu0 = 2^(a+b+1) B(a+1, b+1) the mass.
    """
    i = np.arange(n, dtype=float)
    t = 2.0 * i + a + b
    diag = (b - a) * (b + a) / (t * (t + 2.0))
    i, t = i[1:], t[1:]
    off = np.sqrt(4.0 * i * (i + a) * (i + b) * (i + a + b))
    off /= np.sqrt(t * t * (t + 1.0) * (t - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    log_mu0 = (a + b + 1) * math.log(2) + math.lgamma(a + 1) + math.lgamma(b + 1)
    return nodes, vecs[0] ** 2, log_mu0 - math.lgamma(a + b + 2)


@functools.cache
def _legendre_tables(J: int):
    """Coefficients of P_j, P_j' and P_j'' for j < J; read-only, built once per J."""
    unit = np.eye(J)
    tables = (unit, _legendre.legder(unit), _legendre.legder(unit, 2))
    for table in tables:
        table.flags.writeable = False
    return tables


def ritz_min_eig(k: int, p: Params, J: int) -> RitzResult:
    """Least generalized eigenvalue of the mode-k stability form.

    Minimizes Q_k over the span of s^k (1+s^2)^(-(M-2)/2) P_j(w), j < J,
    with w = (s^2-1)/(s^2+1) and Legendre P_j: the ladder
    s^k (1+s^2)^(-(M-2)/2-j) regraded to a moderate Gram condition.  With
    A the operator part and B the potential-weight Gram, the reported value
    is rho = (tau_min - g)/g where tau_min is the least eigenvalue of
    A c = tau B c and g = (M+4)(M-2)M(M+2), so that sign(rho) equals the
    sign of the minimum of Q_k over the span and rho = 0 marks kernel.
    Coefficients refer to that basis.

    In w, B's integrand is 2^(-M-2) (1-w)^a (1+w)^b P_i P_j with
    (a, b) = (M/2-k+1, M/2+k-1) and A's is 2^(2-M) (1-w)^(a-2) (1+w)^(b-2)
    R_i R_j with R_j a polynomial of degree j+2, so J+8 Gauss-Jacobi nodes
    assemble both exactly.  A Jacobi exponent <= -1 means the form
    diverges on the basis: DomainError.
    """
    if J < 4:
        raise DomainError(f"basis size must be >= 4, got {J}")
    d = derive(p)
    m = d.M
    qql = d.q**2 * mode_data(k, p).lambda_k
    a, b = m / 2.0 - k + 1.0, m / 2.0 + k - 1.0
    if min(a, b) - 2.0 <= -1.0:
        raise DomainError(
            f"mode k={k} is inadmissible at M={m:.6g}: its stability form "
            f"diverges on the Ritz basis (needs M > {max(2 * k, 4 - 2 * k)})"
        )
    unit, d_unit, d2_unit = _legendre_tables(J)
    w, weight_b, log_mu_b = _gauss_jacobi(J + _EXTRA_NODES, a, b)
    rows_b = _legendre.legval(w, unit) * np.sqrt(weight_b)
    B = rows_b @ rows_b.T
    # judge B before building A: a basis that fails here is discarded anyway
    gram_condition = float(np.linalg.cond(B))
    if not np.isfinite(gram_condition) or gram_condition > GRAM_CONDITION_LIMIT:
        raise ConditioningError(
            f"Gram condition {gram_condition:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e} "
            f"at basis size {J}; retry with smaller J"
        )
    try:
        chol = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"potential Gram not positive definite at basis size {J}; "
            "retry with smaller J"
        ) from exc
    w, weight_a, log_mu_a = _gauss_jacobi(J + _EXTRA_NODES, a - 2.0, b - 2.0)
    # chain rule: L phi_j = s^k (1+s^2)^(-(M-2)/2) (1-w)/(1+w) R_j(w)
    up, cap = 1.0 + w, 1.0 - w * w
    potential = k * (k + m - 2.0) - qql
    potential -= (m - 2.0) * up * ((m + 2.0 * k) / 2.0 - m * up / 4.0)
    r_j = (
        potential * _legendre.legval(w, unit)
        + cap * (2.0 * k - m * w) * _legendre.legval(w, d_unit)
        + cap**2 * _legendre.legval(w, d2_unit)
    )
    # both matrices are divided by B's constant 2^(-M-2) mu0_B, which
    # leaves the eigenpairs and the Gram condition unchanged at any M
    rows_a = r_j * (4.0 * np.sqrt(weight_a) * math.exp(0.5 * (log_mu_a - log_mu_b)))
    A = rows_a @ rows_a.T
    gamma = _potential_constant(m)
    inv_l = np.linalg.inv(chol)
    reduced = inv_l @ A @ inv_l.T
    evals, evecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    tau_min = float(evals[0])
    coeff = inv_l.T @ evecs[:, 0]
    coeff = coeff / np.max(np.abs(coeff))
    rho = (tau_min - gamma) / gamma
    return RitzResult(
        min_eigenvalue=rho,
        coefficients=coeff,
        basis_size=J,
        gram_condition=gram_condition,
    )


#: Ritz basis sizes tried in turn by `ritz_min_eig_fallback`.
FALLBACK_BASES = (16, 12, 8, 4)


def ritz_min_eig_fallback(k: int, p: Params) -> RitzResult:
    """`ritz_min_eig` at the first size in FALLBACK_BASES whose Gram conditions.

    Deep in the strip M grows and the Gram matrix degrades; the last
    size's ConditioningError propagates.
    """
    for J in FALLBACK_BASES[:-1]:
        try:
            return ritz_min_eig(k, p, J)
        except ConditioningError:
            pass
    return ritz_min_eig(k, p, FALLBACK_BASES[-1])


def fs_locate(N: int, alpha: float, tol: float) -> float:
    """Locate the symmetry-breaking transition in beta by Brent's method.

    Brackets the sign change of rho_1(beta) over beta in (alpha-2,
    N*alpha/(N-2)); the least mode-1 eigenvalue is positive below the curve
    and negative above it.  Brent's method (Brent 1973) mixes inverse
    quadratic interpolation, secant and bisection steps, and returns the end
    with the smaller |rho_1| once the bracket is at most `tol` wide (or a
    few ulps of beta).  Requires alpha > 0 (the transition leaves the
    admissible strip otherwise).

    Every step solves the smallest basis, J = FALLBACK_BASES[-1].  On the
    curve nu_1 = 1, so the first basis function s (1+s^2)^(-(M-2)/2) is the
    exact mode-1 ground state: rho_J vanishes there for every J, and the
    root does not depend on the basis.  Elsewhere Rayleigh-Ritz keeps rho_J
    at or above the true rho_1.  Exact assembly makes B_4 the leading block
    of B_J, and by interlacing cond(B_4) <= cond(B_J): the smallest basis
    conditions wherever a larger one does.
    """
    if alpha <= 0.0:
        raise DomainError(f"transition search requires alpha > 0, got {alpha}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    beta_max = N * alpha / (N - 2.0)
    width = beta_max - (alpha - 2.0)
    lo = (alpha - 2.0) + 0.1 * width
    hi = 0.99 * beta_max

    def rho_at(beta: float) -> float:
        return ritz_min_eig(1, validate(N, alpha, beta), FALLBACK_BASES[-1]).min_eigenvalue

    rho_lo = rho_at(lo)
    rho_hi = rho_at(hi)
    if rho_lo == 0.0:
        return lo
    if rho_hi == 0.0:
        return hi
    if not (rho_lo > 0.0 > rho_hi):
        raise BracketError(
            f"least eigenvalue does not change sign on [{lo:.6g}, {hi:.6g}] "
            f"(rho: {rho_lo:.3e}, {rho_hi:.3e})"
        )
    # b is the best estimate, [b, c] brackets the root, a is the previous b
    a, fa, b, fb, c, fc = lo, rho_lo, hi, rho_hi, lo, rho_lo
    step = prev_step = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        half_tol = 0.5 * max(tol, 4.0 * math.ulp(b))
        half_gap = 0.5 * (c - b)
        if abs(half_gap) <= half_tol or fb == 0.0:
            return b
        bisect = True
        if abs(prev_step) >= half_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                num, den = 2.0 * half_gap * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                num = s * (2.0 * half_gap * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            num, den = abs(num), (-den if num > 0.0 else den)
            if 2.0 * num < min(
                3.0 * half_gap * den - abs(half_tol * den), abs(prev_step * den)
            ):
                prev_step, step, bisect = step, num / den, False
        if bisect:
            step = prev_step = half_gap
        a, fa = b, fb
        b += step if abs(step) > half_tol else math.copysign(half_tol, half_gap)
        fb = rho_at(b)
