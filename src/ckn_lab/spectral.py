"""Mode decomposition data and the linearized stability eigenproblem.

The stability of the radial minimizer against a spherical-harmonic mode
of index k reduces to the sign of a one-dimensional quadratic form

    Q_k(X) = int [X'' + (M-1)X'/s - q^2 lambda_k X/s^2]^2 s^(M-1) ds
             - (M+4)(M-2)M(M+2) int (1+s^2)^(-4) X^2 s^(M-1) ds

over decaying profiles X.  This module provides the mode records, direct
evaluation of Q_k, the closed form of its generalized eigenvalues, a
Rayleigh-Ritz minimizer for the smallest one, and Brent's method on its
log(1 + rho) to locate the symmetry-breaking transition curve in beta.

Three deliberately independent routes coexist: `mode_quadratic_form`
integrates adaptively one profile at a time in s; `ritz_min_eig` maps the
basis to w = (s^2-1)/(s^2+1), makes it orthonormal for the potential
weight and assembles the operator exactly by Gauss-Jacobi quadrature; and
`mode_eigenvalue` is the closed form the Ritz value falls to from above.
A Ritz solve in use works on J + 2 nodes and J polynomials, J = 16 for
the certificate: too few for numpy's per-call cost to pay off.  Its
recurrences and its assembly run node by node on Python floats, and the
only numpy calls that decide bits are the three linear algebra steps (the
nodes' `eigvalsh_lo`, the factor's product with its transpose, `eigh_lo`),
inside one error state per solve; the `_lo` kernels are what
`numpy.linalg.eigvalsh` and `eigh` call, without the wrappers' checks.
The test suite checks the Ritz minimizer's Rayleigh quotient on the
adaptive route and the Ritz value against the closed form.  The root
search reads only the smallest basis, whose three Gauss-Gegenbauer nodes
are known in closed form (`_x1_rho`, no eigen-solve): every basis holds
the exact mode-1 ground state on the curve (see `fs_locate`).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, eigvalsh_lo

from .params import Params, _index, beta_strip, derive, harmonic_eigenvalue, validate
from .quadrature import integrate_rows, power_weighted
from .specfun import AccuracyError, BracketError, ConditioningError, DomainError

__all__ = [
    "Mode",
    "RitzResult",
    "mode",
    "mode_eigenvalue",
    "mode_quadratic_form",
    "ritz_min_eig",
    "fs_locate",
]


class Mode(NamedTuple):
    """Closed-form record of spherical-harmonic mode k at one parameter point."""

    k: int
    lambda_k: float  # eigenvalue k(N-2+k) of the sphere Laplacian
    l_k: int  # multiplicity of the eigenspace
    nu_k: float  # root nu >= 0 of nu (nu + M - 2) = q^2 lambda_k; 1 at k = 1 on the curve
    rho_k: float  # least generalized eigenvalue of the mode-k form, `mode_eigenvalue(k, p)`


class RitzResult(NamedTuple):
    min_eigenvalue: float
    coefficients: np.ndarray
    basis_size: int
    gram_condition: float

    # compared and hashed by identity: tuple equality over the ndarray would raise
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _coupling(k: int, p: Params) -> tuple[float, float, float]:
    """(q^2 lambda_k, M, q^2 lambda_k - (M-1)): mode k's coupling in the stability form, the transformed
    dimension and the excess, formed here alone; at k = 1 its sign is the breaking criterion (`certify`'s factor)."""
    d = derive(p)
    qql = d.q**2 * harmonic_eigenvalue(p.N, k)
    return qql, d.M, qql - (d.M - 1.0)


def _nu(qql: float, m: float) -> float:
    """The root nu >= 0 of nu (nu + M - 2) = qql, free of cancellation.  ldexp(qql, 2) is 4 qql,
    but raises OverflowError (from k near 1e154) where the product is inf."""
    return 2.0 * qql / ((m - 2.0) + math.sqrt((m - 2.0) ** 2 + math.ldexp(qql, 2)))


def mode(k: int, p: Params) -> Mode:
    """Mode k's record; DomainError where lambda_k or rho_k exceeds the largest double."""
    k, N = _index(k, "mode index"), p.N
    rho = mode_eigenvalue(k, p)  # raises first where nu's 4 q^2 lambda_k would overflow
    mult = (N + 2 * k - 2) * math.comb(N + k - 3, N - 3) // (N - 2)
    return Mode(k, harmonic_eigenvalue(N, k), mult, _nu(*_coupling(k, p)[:2]), rho)


def _potential_constant(M: float) -> float:
    # (2M/(M-4) - 1) * params.gamma_m(M), simplified
    return (M + 4.0) * (M - 2.0) * M * (M + 2.0)


def mode_quadratic_form(X, k: int, p: Params) -> float:
    """Q_k(X): stability form of mode k at the radial minimizer.

    Negative values certify an energy-lowering perturbation in mode k.
    Raises the quadrature layer's divergence error where X does not decay
    at infinity, and AccuracyError, with the part's QuadResult, where a
    part's largest terms are subnormal.  X(0) != 0 is admissible at every
    k: the lead term near 0 is (q^2 lam X(0))^2 s^(M-5), integrable for M > 4.
    """
    lam, m, _ = _coupling(k, p)

    def rows(s):  # the lead energy and the potential part, from one jet; s^-2 and (1+s^2)^-4 in the weights
        x, x1, x2 = X.jet(s, 2)
        return (
            power_weighted(s * (s * x2 + (m - 1.0) * x1) - lam * x, s, 2.0, m - 5.0),
            power_weighted(x / (1.0 + s * s) ** 2, s, 2.0, m - 1.0),
        )

    lead, pot = integrate_rows(rows)
    floor = sys.float_info.min / sys.float_info.epsilon  # 2^-970: below it the largest terms are subnormal
    for name, part in (("lead energy", lead), ("potential part", pot)):
        if part.value < floor:
            raise AccuracyError(f"mode-{k} form's {name} {part.value!r} is below {floor!r} at M={m!r}", part)
    return lead.value - _potential_constant(m) * pot.value


def mode_eigenvalue(k: int, p: Params, j: int = 0) -> float:
    """Closed-form j-th generalized eigenvalue of the mode-k stability form.

    With nu >= 0 solving nu (nu + M - 2) = q^2 lambda_k, the form has
    eigenvalues tau_j = (x+M-4)(x+M-2)(x+M)(x+M+2), x = 2 nu + 2j, against
    the potential weight, and the value returned is rho = tau_j/g - 1 with
    g = (M+4)(M-2)M(M+2), the quantity `ritz_min_eig` approximates from
    above at j = 0.  Valid for every k, also where M <= 2k.  Each factor
    of tau_j/g is 1 + 2(nu-1+j)/c, c in (M-2, M, M+2, M+4), and
    nu - 1 = (q^2 lambda_k - (M-1))/(nu + M - 1), so rho keeps its
    relative accuracy near the curve and at large M.
    """
    j = _index(j, "eigenvalue index")
    qql, m, excess = _coupling(k, p)
    try:
        shift = 2.0 * (excess / (_nu(qql, m) + m - 1.0) + j)
        return math.expm1(math.fsum(math.log1p(shift / c) for c in (m - 2.0, m, m + 2.0, m + 4.0)))
    except OverflowError:  # rho itself overflows from k near 1e77 M
        raise DomainError(f"eigenvalue {j} of mode k={k} exceeds the largest double at M={m!r}") from None


# ---------------------------------------------------------------------------
# Rayleigh-Ritz
# ---------------------------------------------------------------------------

def _jacobi_recurrence(n: int, a: float, b: float):
    """Three-term recurrence of the orthonormal Jacobi polynomials p_0..p_n-1.

    For the weight (1-w)^a (1+w)^b normalized to unit mass:
    w p_j = off[j] p_(j+1) + diag[j] p_j + off[j-1] p_(j-1), p_0 = 1.
    Returns diag (length n) and off (length n-1), the Jacobi matrix, as
    lists of Python floats: n <= J + 2 = 18 for every caller, and the whole
    Ritz solve, not only this recurrence, is too small for numpy to pay off
    outside its three linear algebra steps.  Raises ConditioningError where
    an entry is not finite or an off-diagonal one is zero: its products
    leave double range from a + b near 1.2e77.
    """
    t = [2.0 * i + a + b for i in range(n)]
    diag = [(b - a) * (b + a) / (u * (u + 2.0)) for u in t]
    off = [math.sqrt(4.0 * i * (i + a) * (i + b) * (i + a + b)) / math.sqrt(u * u * (u + 1.0) * (u - 1.0))
           for i, u in enumerate(t[1:], 1)]
    # every entry lies in [-1, 1] and each off[j] is positive: a non-finite sum or a zero off[j]
    # means that a product above left double range
    if not math.isfinite(sum(diag) + sum(off)) or 0.0 in off:
        raise ConditioningError(
            f"the Jacobi recurrence for the exponents a={a!r}, b={b!r} leaves double range"
        )
    return diag, off


def _orthonormal_jacobi(
    x: float, steps: list[tuple[float, float, float]], c0: float, c1: float, c2: float, scale: float
) -> list[float]:
    """(c0 p_j(x) + c1 p_j'(x) + c2 p_j''(x)) scale for j <= len(steps).

    p_j are the orthonormal polynomials of `_jacobi_recurrence`, and
    (w p)^(r) = r p^(r-1) + w p^(r) carries their recurrence over to the
    derivatives.  steps is zip(diag, [0.0, *off], off), listed once per
    solve.  Step j takes (x - diag[j]) v_j, subtracts off[j-1] v_(j-1),
    adds 1 v_j and 2 v_j' to the first and second derivatives and divides
    by off[j], in the order of the array loop the tests keep, so every
    value agrees with it to the bit; the step at j = 0 subtracts 0 * 0,
    which changes no value.  The combination is formed as each p_j comes,
    with the recurrence's values in local names: handing (p_j, p_j', p_j'')
    back for the caller to combine made a J = 16 solve slower than the array
    loop it replaces.
    """
    v0, v1, v2 = 1.0, 0.0, 0.0
    u0 = u1 = u2 = 0.0
    column = [(c0 * v0 + c1 * v1 + c2 * v2) * scale]
    append = column.append
    for centre, below, above in steps:
        shift = x - centre
        n0 = shift * v0 - below * u0
        n1 = shift * v1 - below * u1 + v0
        n2 = shift * v2 - below * u2 + 2.0 * v1
        u0, u1, u2 = v0, v1, v2
        v0, v1, v2 = n0 / above, n1 / above, n2 / above
        append((c0 * v0 + c1 * v1 + c2 * v2) * scale)
    return column


def _gauss_jacobi(n: int, a: float, b: float):
    """n-point Gauss-Jacobi rule for the weight (1-w)^a (1+w)^b on (-1, 1).

    Golub-Welsch: nodes are the eigenvalues of the recurrence's Jacobi
    matrix, by the LAPACK kernel `eigvalsh_lo`.  The weights, normalized
    to sum 1, are the Christoffel numbers 1 / sum_j p_j(w)^2, summed over j
    along each node's scalar recurrence; they keep their relative accuracy
    where the squared eigenvector components would not (the tail nodes of a
    skewed weight).  Returns the nodes and the weights divided by the mass
    of the weight function, as Python float lists.  Raises ConditioningError
    where the recurrence leaves double range or the kernel fails, which it
    sees under its caller's np.errstate(invalid="raise") (`ritz_min_eig`'s).
    """
    diag, off = _jacobi_recurrence(n, a, b)
    flat = [0.0] * (n * n)  # the matrix, row by row
    flat[:: n + 1], flat[1 :: n + 1], flat[n :: n + 1] = diag, off, off
    try:
        nodes = eigvalsh_lo(np.array(flat).reshape(n, n)).tolist()
    except FloatingPointError:
        raise ConditioningError(
            f"the Gauss-Jacobi nodes for the exponents a={a!r}, b={b!r} did not converge"
        ) from None
    steps = list(zip(diag, [0.0, *off], off))
    weights = []
    for x in nodes:
        prev, cur, total = 0.0, 1.0, 1.0
        for centre, below, above in steps:
            prev, cur = cur, ((x - centre) * cur - below * prev) / above
            total += cur * cur
        weights.append(1.0 / total)
    return nodes, weights


def ritz_min_eig(k: int, p: Params, J: int) -> RitzResult:
    """Least generalized eigenvalue of the mode-k stability form.

    Minimizes Q_k over the span of s^k (1+s^2)^(-(M-2)/2) p_j(w), j < J, w = (s^2-1)/(s^2+1), with
    p_j the polynomials orthonormal for the potential weight, so that the potential Gram B is the
    identity.  The reported value is rho = (tau_min - g)/g, tau_min the least eigenvalue of the
    operator matrix A and g = (M+4)(M-2)M(M+2): sign(rho) is the sign of the minimum of Q_k over the
    span, rho = 0 marks kernel, and rho >= mode_eigenvalue(k, p).  Coefficients refer to the p_j
    basis.

    In w, B's integrand is 2^(-M-2) (1-w)^a (1+w)^b p_i p_j with (a, b) = (M/2-k+1, M/2+k-1), and
    A's is 2^(2-M) (1-w)^(a-2) (1+w)^(b-2) R_i R_j with R_j of degree j+2, so J+2 Gauss-Jacobi nodes
    assemble A exactly.  Both are divided by B's constant 2^(-M-2) mu0, which leaves the eigenpairs
    unchanged at any M; `gram_condition` is 1.  A Jacobi exponent <= -1 means the form diverges on
    the basis: DomainError.  A recurrence that leaves double range (from M near 1.2e77), a
    non-finite A or a failed eigen-solve raises ConditioningError naming M.

    A's factor is assembled node by node on Python floats, in the order of operations of the
    whole-array assembly the tests keep.  Three numpy calls decide bits: `eigvalsh_lo` for the
    nodes, the product of the factor with its transpose, and `eigh_lo`, all under the one
    np.errstate that the solve enters, where a failed kernel raises FloatingPointError.
    """
    J = _index(J, "basis size")
    if J < 1:
        raise DomainError(f"basis size must be >= 1, got {J}")
    qql, m, _ = _coupling(k, p)
    a, b = m / 2.0 - k + 1.0, m / 2.0 + k - 1.0
    if min(a, b) - 2.0 <= -1.0:
        raise DomainError(
            f"mode k={k} is inadmissible at M={m:.6g}: its stability form "
            f"diverges on the Ritz basis (needs M > {max(2 * k, 4 - 2 * k)})"
        )
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            nodes, weights = _gauss_jacobi(J + 2, a - 2.0, b - 2.0)
            diag, off = _jacobi_recurrence(J, a, b)
        except ConditioningError as exc:
            raise ConditioningError(f"{exc}, at M={m:.6g}, basis size {J}") from None
        steps = list(zip(diag, [0.0, *off], off))
        # 2^(2-M) mu0_A / (2^(-M-2) mu0_B), rational since Gamma(x+1) = x Gamma(x)
        mass_ratio = (m + 1.0) * m * (m - 1.0) * (m - 2.0) / (a * (a - 1.0) * b * (b - 1.0))
        base, centre, slope = k * (k + m - 2.0) - qql, (m + 2.0 * k) / 2.0, 2.0 * k
        entries = []
        for w, weight in zip(nodes, weights):
            # chain rule: L phi_j = s^k (1+s^2)^(-(M-2)/2) (1-w)/(1+w) R_j(w)
            up, cap = 1.0 + w, 1.0 - w * w
            potential = base - (m - 2.0) * up * (centre - m * up / 4.0)
            drift, curve = cap * (slope - m * w), cap * cap
            scale = math.sqrt(weight * mass_ratio)
            entries += _orthonormal_jacobi(w, steps, potential, drift, curve, scale)
        # one node per row of entries; A's factor is C-contiguous (J, J+2), as BLAS has always met it
        rows_a = np.array(entries).reshape(J + 2, J).T.copy()
        try:  # past an overflow a sum in the product can meet inf - inf, which raises the invalid flag
            A = rows_a @ rows_a.T
            if not np.isfinite(A).all():
                raise FloatingPointError
        except FloatingPointError:
            raise ConditioningError(f"operator matrix is not finite at M={m:.6g}, basis size {J}") from None
        # eigh_lo, not eigvalsh_lo: their least eigenvalues can differ in the last bit (8 of 4000 J = 4 samples)
        try:
            evals, evecs = eigh_lo(A)
        except FloatingPointError:
            raise ConditioningError(
                f"the operator matrix's eigh did not converge at M={m:.6g}, basis size {J}"
            ) from None
    gamma = _potential_constant(m)
    lead = evecs[:, 0]
    return RitzResult((float(evals[0]) - gamma) / gamma, lead / max(map(abs, lead.tolist())), J, 1.0)


def _x1_rho(p: Params) -> float:
    """ritz_min_eig(1, p, 1)'s value on its rule in closed form: at k = 1 the weight (1-w^2)^(M/2-2) is
    symmetric, with nodes 0, +-sqrt(3/(M+1)), weights 2(M-2)/(3(M-1)), (M+1)/(6(M-1)) and A's mass ratio
    16(M+1)(M-1)/(M(M-2)).  ConditioningError naming M where a00 or g is not finite (from M near 1.16e77)."""
    _, m, excess = _coupling(1, p)
    x, centre = math.sqrt(3.0 / (m + 1.0)), (m + 2.0) / 2.0
    p0, p1, p2 = (-excess - (m - 2.0) * up * (centre - m * up / 4.0) for up in (1.0, 1.0 + x, 1.0 - x))
    a00 = 8.0 * (m + 1.0) / (3.0 * m) * (4.0 * p0 * p0 + (m + 1.0) / (m - 2.0) * (p1 * p1 + p2 * p2))
    gamma = _potential_constant(m)
    if not (math.isfinite(a00) and math.isfinite(gamma)):
        raise ConditioningError(f"X1's Rayleigh quotient leaves double range at M={m:.6g}")
    return (a00 - gamma) / gamma


#: the largest M at which fs_locate's lower bracket end may solve: the J = 1
#: Ritz value keeps the closed form's sign beyond it, and there
#: 2 + beta - alpha = 2(N + beta)/M is still about 1e4 ulps of N + beta
M_CAP = 1e12

#: the rounding floor of fs_locate's J = 1 value `_x1_rho`: on the float curve, where rho_1 vanishes, |rho|
#: stayed below 3.6 eps at 30000 seeded points (N to 1e22, alpha 1e-4 to 1e6), and below 5.3 eps on the
#: Golub-Welsch rule of ritz_min_eig(1, p, 1); three times the latter, rounded up to a power of two
RHO_FLOOR = 16.0 * sys.float_info.epsilon


def fs_locate(N: int, alpha: float, tol: float) -> float:
    """Locate the symmetry-breaking transition in beta by Brent's method.

    Brackets the sign change of rho_1(beta) over beta in (alpha-2,
    N*alpha/(N-2)); the least mode-1 eigenvalue is positive below the curve
    and negative above it.  Brent's method (Brent 1973) mixes inverse
    quadratic interpolation, secant and bisection steps on log(1 + rho_1),
    nearly linear in beta, and returns the end with the smaller |log(1 +
    rho_1)| once the bracket is at most `tol` wide (or a few ulps of beta).
    Requires a finite alpha > 0 (the transition leaves the strip otherwise).

    Every step solves the smallest basis, J = 1, on three Gauss-Gegenbauer
    nodes in closed form (`_x1_rho`).  On the curve nu_1 = 1, so the first
    basis function s (1+s^2)^(-(M-2)/2) is the exact mode-1 ground state:
    rho_J vanishes there for every J, and the root does not depend on it.
    Elsewhere Rayleigh-Ritz keeps rho_J at or above the true rho_1; with
    J = 1 it is the Rayleigh quotient of that one function.

    The bracket starts at lo = beta_min + width/10 and hi = 0.99 beta_max.
    Where hi is no upper end (at large N beta_FS/beta_max tends to 1) it
    moves to beta_max itself: there M = N and q < 1, so rho_1 < 0 exactly.
    Where rho_1(lo) < 0 (at large alpha beta_FS sinks toward beta_min) lo
    moves to beta_min + (lo - beta_min)/8 until rho_1 turns positive, or
    until M passes M_CAP: BracketError.

    At large N rho_1(beta_max) is about -16 alpha/N^2, so rounding, not the
    curve, decides its sign from N near 1e7 at alpha = 1.  The final bracket
    must have rho_1(lo) > RHO_FLOOR > -rho_1(hi), and a chord steep enough
    that an error of RHO_FLOOR moves its root by at most tol/2 (tol read as
    at least 2^-32 of the bracket): otherwise BracketError, rather than an
    answer read from rounding.
    """
    if alpha <= 0.0:
        raise DomainError(f"transition search requires alpha > 0, got {alpha}")
    if not alpha < math.inf:
        raise DomainError(f"transition search requires a finite alpha, got alpha={alpha}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    beta_min, beta_max = beta_strip(N, alpha)
    lo = beta_min + 0.1 * (beta_max - beta_min)
    hi = 0.99 * beta_max

    def rho_at(beta: float) -> float:
        return _x1_rho(validate(N, alpha, beta))

    rho_lo = rho_at(lo)
    rho_hi = rho_at(hi) if hi > lo else math.inf
    if rho_hi > 0.0:
        hi, rho_hi = beta_max, rho_at(beta_max)
    while rho_lo < 0.0:
        lo = beta_min + (lo - beta_min) / 8.0
        m = derive(validate(N, alpha, lo)).M
        if m > M_CAP:
            raise BracketError(
                f"least eigenvalue stays negative toward alpha - 2 = {beta_min:.6g}: "
                f"the next lower end, beta={lo:.9g}, has M={m:.3g} above the cap {M_CAP:.0e}"
            )
        rho_lo = rho_at(lo)
    # below 2^-32 of the bracket a tol asks only for the search's stop at a few ulps
    resolve = max(tol, math.ldexp(hi - lo, -32))
    if not (min(rho_lo, -rho_hi) > RHO_FLOOR and RHO_FLOOR * (hi - lo) <= 0.5 * resolve * (rho_lo - rho_hi)):
        raise BracketError(
            f"least eigenvalue does not change sign on [{lo:.6g}, {hi:.6g}] (rho: {rho_lo:.3e}, {rho_hi:.3e}) "
            f"clear of its rounding floor {RHO_FLOOR:.3g} and steeply enough to resolve tol={resolve:.3g}"
        )

    def log1p_rho(beta: float, rho: float) -> float:  # Brent's variable log(tau/g), nearly linear in beta
        if rho <= -1.0:  # no solve gives one: a00 >= 0, and a Ritz value is at least rho_1 > -1 as M > 4
            raise ConditioningError(f"least eigenvalue rho={rho!r} at beta={beta!r} has no log(1 + rho)")
        return math.log1p(rho)

    # b is the best estimate, [b, c] brackets the root, a is the previous b
    a, fa, b, fb = lo, log1p_rho(lo, rho_lo), hi, log1p_rho(hi, rho_hi)
    c, fc = a, fa
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
        fb = log1p_rho(b, rho_at(b))
