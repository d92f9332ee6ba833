"""Spherical-mode data, quadratic forms, Ritz minimization, curve location."""

import itertools
import math
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import ckn_lab.spectral as spectral
from ckn_lab.params import ParamError, beta_fs, beta_strip, derive, harmonic_eigenvalue, validate
from ckn_lab.profiles import PowerPeakProfile, gamma_m
from ckn_lab.quadrature import AccuracyError, integrate_semiinfinite, power_weighted
from ckn_lab.specfun import DomainError
from ckn_lab.spectral import (
    M_CAP,
    RHO_FLOOR,
    BracketError,
    ConditioningError,
    RitzResult,
    _gauss_jacobi,
    _jacobi_recurrence,
    _orthonormal_jacobi,
    _potential_constant,
    fs_locate,
    mode,
    mode_eigenvalue,
    mode_quadratic_form,
    ritz_min_eig,
)
from ckn_lab.verify import EXTREMALITY_POINTS, SIGN_LAW_GRID


def test_mode_reference_values(p511):
    """At (5, 1, 1), M = 6 and q = 1: nu_k solves nu (nu + 4) = lambda_k, so nu_0 = 0 and
    nu_2 = sqrt(14) - 2; nu_1 = sqrt(8) - 2 < 1, the breaking side of the curve."""
    m0 = mode(0, p511)
    assert (m0.k, m0.lambda_k, m0.l_k, m0.nu_k) == (0, 0.0, 1, 0.0)
    m1 = mode(1, p511)
    assert (m1.k, m1.lambda_k, m1.l_k) == (1, 4.0, 5)
    assert m1.nu_k == pytest.approx(math.sqrt(8.0) - 2.0, rel=1e-15)
    m2 = mode(2, p511)
    assert (m2.k, m2.lambda_k, m2.l_k) == (2, 10.0, 14)
    assert m2.nu_k == pytest.approx(math.sqrt(14.0) - 2.0, rel=1e-15)
    assert m1.rho_k < 0.0 < m2.rho_k


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=5, max_value=10), st.integers(min_value=0, max_value=8))
def test_mode_combinatorics(N, k):
    """lambda_k = k(N-2+k); multiplicities are the usual binomial difference."""
    p = validate(N, 0.0, 0.0)
    data = mode(k, p)
    assert data.lambda_k == k * (N - 2 + k)
    expected_l = (N + 2 * k - 2) * math.factorial(N + k - 3) // (
        math.factorial(N - 2) * math.factorial(k)
    )
    assert data.l_k == expected_l
    assert data.l_k >= 1


def test_multiplicity_is_the_factorial_formula_and_fast_at_large_k():
    """(N+2k-2) C(N+k-3, N-3) / (N-2) is the factorial formula's integer; at k = 10^6 the
    factorials took about 25 s, the binomial microseconds."""
    for N in range(5, 40):
        p = validate(N, 0.0, 0.0)
        for k in range(60):
            factorials = (N + 2 * k - 2) * math.factorial(N + k - 3) // (math.factorial(N - 2) * math.factorial(k))
            assert mode(k, p).l_k == factorials
    k = 10**6
    assert mode(k, validate(5, 1.0, 1.0)).l_k == (2 * k + 3) * (k + 2) * (k + 1) // 6


def test_mode_indices_beyond_double_range_are_domain_errors(p511):
    """lambda_k leaves double range from k near 1.3e154, 4 q^2 lambda_k a little before, and
    mode_eigenvalue's rho from k near 1e77 M: each raised OverflowError or returned NaN.  The
    record carries rho_k, so it raises where rho_k does."""
    for compute in (lambda: harmonic_eigenvalue(5, 2 * 10**154), lambda: mode(2 * 10**154, p511)):
        with pytest.raises(DomainError, match=r"^sphere eigenvalue k\(N-2\+k\) at N=5, k=2\d{154} exceeds"):
            compute()
    for k in (10**154, 10**80):
        for compute in (lambda: mode_eigenvalue(k, p511), lambda: mode(k, p511)):
            with pytest.raises(DomainError, match=f"^eigenvalue 0 of mode k={k} exceeds the largest double at M="):
                compute()
    assert math.isfinite(mode_eigenvalue(10**76, p511))
    assert math.isfinite(mode(10**76, p511).nu_k)


@pytest.mark.parametrize("J", [4.0, np.float64(16.0), "16", None], ids=["float", "float64", "str", "none"])
def test_a_non_integral_basis_size_is_a_domain_error(p511, J):
    """J = 4.0 leaked TypeError from range; J is read as mode indices are."""
    with pytest.raises(DomainError, match="^basis size must be an integer >= 0, got "):
        ritz_min_eig(1, p511, J)


def test_an_integral_basis_size_of_any_type_is_accepted(p511):
    result = ritz_min_eig(1, p511, np.int64(4))
    assert result.basis_size == 4 and type(result.basis_size) is int
    assert result.min_eigenvalue == ritz_min_eig(1, p511, 4).min_eigenvalue


def test_negative_mode_index_is_a_domain_error(p511):
    _, x1 = _x_modes(derive(p511).M)
    for compute in (
        lambda: mode(-1, p511),
        lambda: mode_eigenvalue(-1, p511),
        lambda: mode_quadratic_form(x1, -1, p511),
        lambda: ritz_min_eig(-1, p511, 4),
        lambda: harmonic_eigenvalue(5, -1),
    ):
        with pytest.raises(DomainError, match="mode index"):
            compute()


@pytest.mark.parametrize("index", [1.5, 0.5, np.float64(1.0), "1", None], ids=["half", "low", "float64", "str", "none"])
def test_a_non_integral_mode_index_is_a_domain_error(p511, index):
    """Unchecked, k = 1.5 and j = 0.5 give plausible eigenvalues (0.4062, 0.4895)."""
    for compute in (
        lambda: harmonic_eigenvalue(5, index),
        lambda: mode_eigenvalue(index, p511),
        lambda: mode_eigenvalue(1, p511, index),
        lambda: mode(index, p511),
    ):
        with pytest.raises(DomainError, match="index must be an integer >= 0"):
            compute()


def test_numpy_mode_indices_do_not_wrap(p511):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert harmonic_eigenvalue(5, np.uint8(200)) == 40600.0  # not 200 * 203 mod 256
        assert mode_eigenvalue(np.uint8(200), p511) == mode_eigenvalue(200, p511)
        assert mode_eigenvalue(1, p511, np.uint8(200)) == mode_eigenvalue(1, p511, 200)
        assert mode_eigenvalue(np.int64(1), p511, np.int32(0)) == mode_eigenvalue(1, p511)
        data = mode(np.uint8(200), p511)
    assert data == mode(200, p511) and type(data.k) is type(data.l_k) is int


def test_multiplicity_small_modes(p511):
    assert mode(0, p511).l_k == 1
    assert mode(1, p511).l_k == 5  # = N


def test_gamma_m_values():
    assert gamma_m(6.0) == pytest.approx(384.0, rel=1e-14)
    assert gamma_m(5.0) == pytest.approx(105.0, rel=1e-14)
    with pytest.raises(DomainError):
        gamma_m(4.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=4.2, max_value=14.0))
def test_potential_strength_identity(m):
    """(2M/(M-4) - 1) * Gamma_M = (M+4)(M-2)M(M+2)."""
    lhs = (2.0 * m / (m - 4.0) - 1.0) * gamma_m(m)
    rhs = (m + 4.0) * (m - 2.0) * m * (m + 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def _x_modes(m):
    half = -(m - 2.0) / 2.0
    x0 = PowerPeakProfile([(1.0, 0, half), (-1.0, 2, half)], sigma=2, nu=1.0)
    x1 = PowerPeakProfile([(1.0, 1, half)], sigma=2, nu=1.0)
    return x0, x1


def test_scaling_mode_is_always_a_zero_direction(p511):
    x0, _ = _x_modes(derive(p511).M)
    assert mode_quadratic_form(x0, 0, p511) == pytest.approx(0.0, abs=1e-10)


def test_translation_mode_value_at_breaking_point(p511):
    _, x1 = _x_modes(derive(p511).M)
    assert mode_quadratic_form(x1, 1, p511) == pytest.approx(-83.0 / 60.0, rel=1e-9)


def test_translation_mode_vanishes_exactly_on_curve():
    N, alpha = 5, 1.0
    p = validate(N, alpha, beta_fs(N, alpha))
    _, x1 = _x_modes(derive(p).M)
    assert mode_quadratic_form(x1, 1, p) == pytest.approx(0.0, abs=1e-10)
    x0, _ = _x_modes(derive(p).M)
    assert mode_quadratic_form(x0, 0, p) == pytest.approx(0.0, abs=1e-10)


def test_quadratic_form_homogeneity(p511):
    _, x1 = _x_modes(derive(p511).M)
    scaled = PowerPeakProfile(
        [(3.0 * c, pp, ee) for c, pp, ee in x1.terms], sigma=2, nu=1.0
    )
    assert mode_quadratic_form(scaled, 1, p511) == pytest.approx(
        9.0 * mode_quadratic_form(x1, 1, p511), rel=1e-12
    )


def test_mode_gap_ordering():
    """nu_k >= k for k >= 1 below/at the curve.

    nu (nu + M - 2) increases in nu, so nu_k >= k says q^2 lambda_k >= k(M-2+k).  Equality holds
    only for k = 1 exactly on the curve; the k = 2 gap stays strictly positive there.
    """
    N, alpha = 5, 1.0
    curve = beta_fs(N, alpha)
    for beta in (0.2, 0.5, curve):
        p = validate(N, alpha, beta)
        for k in (1, 2, 3):
            gap = mode(k, p).nu_k - k
            if k == 1 and beta == curve:
                assert gap == pytest.approx(0.0, abs=1e-12)
            else:
                assert gap > 1e-6


def _mode_eigenvalue_reference(k, p, j):
    """`mode_eigenvalue` as it read before the mode record, with nu and q^2 lambda_k inline."""
    d = derive(p)
    m = d.M
    qql = d.q**2 * harmonic_eigenvalue(p.N, k)
    nu = 2.0 * qql / ((m - 2.0) + math.sqrt((m - 2.0) ** 2 + math.ldexp(qql, 2)))
    shift = 2.0 * ((qql - (m - 1.0)) / (nu + m - 1.0) + j)
    return math.expm1(math.fsum(math.log1p(shift / c) for c in (m - 2.0, m, m + 2.0, m + 4.0)))


@settings(max_examples=1200, deadline=None)
@given(
    N=st.one_of(st.integers(5, 40), st.integers(41, 10**15)),
    log_alpha=st.floats(-3.0, 3.0),
    sign=st.sampled_from([1.0, -0.5, 0.0]),
    t=st.floats(0.0, 1.0),
    k=st.integers(0, 8),
    j=st.integers(0, 3),
)
@example(N=5, log_alpha=0.0, sign=1.0, t=1.0, k=1, j=0)
@example(N=10**15, log_alpha=3.0, sign=1.0, t=1e-12, k=8, j=3)
def test_mode_eigenvalue_keeps_the_inline_expressions_bits(N, log_alpha, sign, t, k, j):
    """mode_eigenvalue reads q^2 lambda_k and nu from the record's helpers; every value keeps the
    bits of the expression it replaced.  alpha = sign 10^log_alpha, beta = lo + t (hi - lo)."""
    alpha = sign * 10.0**log_alpha
    try:
        lo, hi = beta_strip(N, alpha)
        p = validate(N, alpha, lo + t * (hi - lo))
    except ParamError:
        assume(False)
    assert mode_eigenvalue(k, p, j).hex() == _mode_eigenvalue_reference(k, p, j).hex()


def test_the_record_is_the_closed_form():
    """rho_k is mode_eigenvalue(k, p) to the bit, and nu_k solves nu (nu + M - 2) = q^2 lambda_k
    to 1e-15 relative, over 2000 sampled points from N = 5 to 1e15 and k up to 60."""
    rng = np.random.default_rng(22)
    for _ in range(2000):
        N = int(rng.choice([rng.integers(5, 40), 10.0 ** rng.uniform(1.6, 15.0)]))
        alpha = float(10.0 ** rng.uniform(-3.0, 3.0))
        lo, hi = beta_strip(N, alpha)
        p = validate(N, alpha, lo + float(rng.uniform(1e-9, 1.0)) * (hi - lo))
        k = int(rng.integers(0, 61))
        record, d = mode(k, p), derive(p)
        assert record.rho_k.hex() == mode_eigenvalue(k, p).hex()
        nu, qql = record.nu_k, d.q**2 * record.lambda_k
        assert abs(nu * (nu + d.M - 2.0) - qql) <= 1e-15 * qql


def test_nu_1_is_one_on_the_curve():
    """On beta_fs, q^2 (N-1) = M-1, so nu_1 = 1; at the sign-law grid's (N, alpha) to 1e-13."""
    for N, alpha in sorted({(N, a) for N, a, _ in SIGN_LAW_GRID}):
        assert abs(mode(1, validate(N, alpha, beta_fs(N, alpha))).nu_k - 1.0) <= 1e-13


def test_ritz_reference_value(p511):
    res = ritz_min_eig(1, p511, 16)
    assert res.min_eigenvalue == pytest.approx(-0.20334538714081252, rel=1e-6)
    assert res.basis_size == 16
    assert res.gram_condition < 1e12
    assert np.max(np.abs(res.coefficients)) == pytest.approx(1.0, rel=1e-14)


def test_ritz_minimum_is_monotone_in_basis_size(p511):
    rho16 = ritz_min_eig(1, p511, 16).min_eigenvalue
    rho20 = ritz_min_eig(1, p511, 20).min_eigenvalue
    assert rho20 <= rho16 + 1e-10


def _by_nodes(w, n, a, b):
    """p_j, p_j', p_j'' at every node of w from `_orthonormal_jacobi`'s unit combinations, shape (n, 3, len(w))."""
    diag, off = _jacobi_recurrence(n, a, b)
    steps = list(zip(diag, [0.0, *off], off))
    unit = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return np.array([[_orthonormal_jacobi(x, steps, *c, 1.0) for c in unit] for x in w]).transpose(2, 1, 0)


def _jacobi_polynomials(J, a, b):
    """p_0..p_(J-1) as numpy Polynomials in w, by the orthonormal recurrence."""
    diag, off = _jacobi_recurrence(J, a, b)
    w = Polynomial([0.0, 1.0])
    polys = [Polynomial([1.0]), (w - diag[0]) / off[0]]
    for j in range(1, J - 1):
        polys.append(((w - diag[j]) * polys[j] - off[j - 1] * polys[j - 1]) / off[j])
    return polys


@pytest.mark.parametrize(("M", "k"), [(6.0, 1), (11.3, 2), (301.75, 1)])
def test_orthonormal_jacobi_values_and_derivatives(M, k):
    """The recurrence's p_j, p_j', p_j'' against the same recurrence on Polynomials."""
    a, b = M / 2.0 - k + 1.0, M / 2.0 + k - 1.0
    w = np.linspace(-0.95, 0.95, 11)
    vals = _by_nodes(w, 8, a, b)
    assert vals.shape == (8, 3, 11)
    for j, poly in enumerate(_jacobi_polynomials(8, a, b)):
        for r in range(3):
            expected = poly.deriv(r)(w)
            assert np.max(np.abs(vals[j, r] - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("M", [6.0, 11.3, 24.0, 301.75, 3002.0, 3e7])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("J", [4, 16])
def test_ritz_basis_is_orthonormal_for_the_potential_weight(M, k, J):
    """B = I in the Ritz basis: the premise that lets `ritz_min_eig` skip B.

    B's integrand in w is (1-w)^a (1+w)^b p_i p_j up to a constant, and
    an (a, b) Gauss-Jacobi rule with J + 2 nodes integrates it exactly
    (`test_gauss_jacobi_matches_scipy` checks the rule itself).
    """
    a, b = M / 2.0 - k + 1.0, M / 2.0 + k - 1.0
    w, weights = _gauss_jacobi(J + 2, a, b)
    p = _by_nodes(w, J, a, b)[:, 0]
    gram = (p * weights) @ p.T
    assert np.max(np.abs(gram - np.eye(J))) <= 1e-12


def test_ritz_conditions_where_the_legendre_gram_did_not():
    """At (8, 1, -0.95), M = 282, a J = 16 Legendre Gram had condition 6e18;
    the orthonormal basis answers there, on the closed form, without warnings."""
    p = validate(8, 1.0, -0.95)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ritz_min_eig(1, p, 16)
    assert res.basis_size == 16
    assert res.gram_condition == 1.0
    assert res.min_eigenvalue == pytest.approx(mode_eigenvalue(1, p), rel=1e-10)


def test_ritz_rejects_tiny_basis(p511):
    with pytest.raises(DomainError, match="basis size must be >= 1, got 0"):
        ritz_min_eig(1, p511, 0)


def test_ritz_rejects_inadmissible_mode(p511):
    """M <= 2k makes the form diverge on the basis: a typed error, no warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"k=4.*M=6"):
            ritz_min_eig(4, p511, 16)


@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("M", [6.0, 11.3, 24.0, 301.75])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_gauss_jacobi_matches_scipy(n, M, k, shift):
    """Golub-Welsch nodes and weights for the Ritz exponents, against scipy."""
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    a, b = M / 2.0 - k + 1.0 - shift, M / 2.0 + k - 1.0 - shift
    nodes, normalized = map(np.array, _gauss_jacobi(n, a, b))
    ref_nodes, ref_weights = roots_jacobi(n, a, b)
    log_mu0 = (a + b + 1) * math.log(2) + math.lgamma(a + 1) + math.lgamma(b + 1)
    weights = math.exp(log_mu0 - math.lgamma(a + b + 2)) * normalized
    assert np.max(np.abs(nodes - ref_nodes)) < 1e-13
    assert math.fsum(normalized) == pytest.approx(1.0, rel=1e-13)
    assert np.max(np.abs(weights - ref_weights)) < 1e-12 * np.max(ref_weights)


def _jacobi_recurrence_by_arrays(n, a, b):
    """The recurrence coefficients as whole-array numpy passes, as the kernel once computed them."""
    i = np.arange(n, dtype=float)
    t = 2.0 * i + a + b
    diag = (b - a) * (b + a) / (t * (t + 2.0))
    i, t = i[1:], t[1:]
    off = np.sqrt(4.0 * i * (i + a) * (i + b) * (i + a + b))
    off /= np.sqrt(t * t * (t + 1.0) * (t - 1.0))
    return diag, off


def _orthonormal_jacobi_by_arrays(w, n, a, b, order=0):
    """p_j and derivatives with a subtraction and a derivative update at every step, as once computed."""
    diag, off = _jacobi_recurrence_by_arrays(n, a, b)
    rise = np.arange(1.0, order + 1.0)[:, None]
    vals = np.zeros((n, order + 1, w.size))
    vals[0, 0] = 1.0
    for j in range(n - 1):
        step = (w - diag[j]) * vals[j] - (off[j - 1] * vals[j - 1] if j else 0.0)
        step[1:] += rise * vals[j, :order]
        vals[j + 1] = step / off[j]
    return vals


def _gauss_jacobi_by_arrays(n, a, b):
    """The rule with the Christoffel sums as an axis-0 numpy sum, as once computed."""
    diag, off = _jacobi_recurrence_by_arrays(n, a, b)
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    values = _orthonormal_jacobi_by_arrays(nodes, n, a, b)[:, 0]
    return nodes, 1.0 / np.sum(values * values, axis=0)


def _ritz_by_arrays(k, p, J):
    """`ritz_min_eig` with whole-array numpy passes over the nodes, as it once assembled A."""
    if J < 1:
        raise DomainError(f"basis size must be >= 1, got {J}")
    d = derive(p)
    m = d.M
    qql = d.q**2 * harmonic_eigenvalue(p.N, k)
    a, b = m / 2.0 - k + 1.0, m / 2.0 + k - 1.0
    if min(a, b) - 2.0 <= -1.0:
        raise DomainError(f"mode k={k} is inadmissible at M={m:.6g}")
    for n, c, d in ((J + 2, a - 2.0, b - 2.0), (J, a, b)):  # both recurrences' range checks
        with np.errstate(over="ignore", invalid="ignore"):
            diag, off = _jacobi_recurrence_by_arrays(n, c, d)
        if not (np.isfinite(diag).all() and np.isfinite(off).all() and (off != 0.0).all()):
            raise ConditioningError(f"the Jacobi recurrence leaves double range at M={m:.6g}, basis size {J}")
    w, weight_a = _gauss_jacobi_by_arrays(J + 2, a - 2.0, b - 2.0)
    p_j, dp_j, d2p_j = _orthonormal_jacobi_by_arrays(w, J, a, b, order=2).transpose(1, 0, 2)
    up, cap = 1.0 + w, 1.0 - w * w
    potential = k * (k + m - 2.0) - qql
    potential -= (m - 2.0) * up * ((m + 2.0 * k) / 2.0 - m * up / 4.0)
    r_j = potential * p_j + cap * (2.0 * k - m * w) * dp_j + cap**2 * d2p_j
    mass_ratio = (m + 1.0) * m * (m - 1.0) * (m - 2.0) / (a * (a - 1.0) * b * (b - 1.0))
    rows_a = r_j * np.sqrt(weight_a * mass_ratio)
    A = rows_a @ rows_a.T
    if not np.all(np.isfinite(A)):
        raise ConditioningError(f"operator matrix is not finite at M={m:.6g}, basis size {J}")
    evals, evecs = np.linalg.eigh(A)
    gamma = _potential_constant(m)
    coeff = evecs[:, 0] / np.max(np.abs(evecs[:, 0]))
    return RitzResult((float(evals[0]) - gamma) / gamma, coeff, J, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    log_m=st.floats(min_value=math.log10(4.5), max_value=16.0),
    k=st.integers(min_value=0, max_value=3),
    shift=st.sampled_from([0.0, 2.0]),
    n=st.integers(min_value=2, max_value=22),
    order=st.integers(min_value=0, max_value=2),
    w=st.lists(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=24),
)
@example(log_m=16.0, k=3, shift=2.0, n=22, order=2, w=[-0.999, 0.0, 0.999])
@example(log_m=math.log10(4.5), k=0, shift=2.0, n=2, order=0, w=[0.5])
def test_ritz_kernels_match_the_array_loops_bit_for_bit(log_m, k, shift, n, order, w):
    """The scalar kernels repeat the array loops' floating-point operations
    in the same order, so they agree exactly; numpy's axis-0 sum adds the
    squares row by row, as the Christoffel sums do in increasing j.  The
    exponents are those of either Ritz rule wherever the mode is admissible."""
    m = 10.0**log_m
    a, b = m / 2.0 - k + 1.0 - shift, m / 2.0 + k - 1.0 - shift
    assume(min(a, b) > -1.0)
    w = np.array(sorted(w))
    for got, expected in (
        (_jacobi_recurrence(n, a, b), _jacobi_recurrence_by_arrays(n, a, b)),
        ((_by_nodes(w, n, a, b)[:, : order + 1],), (_orthonormal_jacobi_by_arrays(w, n, a, b, order),)),
        (_gauss_jacobi(n, a, b), _gauss_jacobi_by_arrays(n, a, b)),
    ):
        for x, y in zip(got, expected):
            assert np.array_equal(x, y)


def _hex(values):
    return " ".join(float(v).hex() for v in values)


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=5, max_value=40),
    alpha=st.floats(min_value=-1.0, max_value=4.0),
    reach=st.floats(min_value=0.0, max_value=1.0),
    k=st.integers(min_value=0, max_value=3),
    J=st.sampled_from([1, 2, 4, 5, 8, 16, 20, 22]),
)
@example(N=8, alpha=1.0, reach=0.0, k=3, J=22)
@example(N=5, alpha=1.0, reach=1.0, k=1, J=1)
@example(N=5, alpha=0.1, reach=0.0, k=1, J=16)
@example(N=5, alpha=1.0, reach=1.0, k=1, J=4)
@example(N=5, alpha=1.0, reach=1.0, k=3, J=4)
@example(N=7, alpha=0.5, reach=0.6, k=0, J=1)
@example(N=7, alpha=0.5, reach=0.6, k=2, J=1)
@example(N=8, alpha=1.0, reach=1.0, k=3, J=1)
@example(N=5, alpha=1.0, reach=0.0, k=1, J=1)  # depth 1e-13, M near 1e14
@example(N=10**154, alpha=1.0, reach=1.0, k=1, J=1)  # M = 1e154: the three-node recurrence leaves double range
@example(N=5, alpha=1.0, reach=1.0, k=3, J=1)  # M = 5 <= 2k: inadmissible
def test_ritz_min_eig_matches_the_array_path_bit_for_bit(N, alpha, reach, k, J):
    """The per-node scalar assembly repeats the array path's floating-point
    operations in the same order and hands numpy the same matrices, so rho
    and the coefficients agree to the bit, and a refusal raises the same
    typed error.  At J = 1 the solve takes syevd's answer for a 1 x 1 matrix,
    (a00, [1.0]), without the call; the array path makes the call.
    beta = alpha - 2 + depth, with log10(depth) spread evenly from -13
    (M near 1e14) to the top of the strip (reach = 1)."""
    lo, hi = beta_strip(N, alpha)
    beta = hi if reach == 1.0 else min(hi, lo + 10.0 ** (-13.0 + reach * (math.log10(hi - lo) + 13.0)))
    p = validate(N, alpha, beta)
    try:
        expected = _ritz_by_arrays(k, p, J)
    except (DomainError, ConditioningError) as exc:
        with pytest.raises(type(exc)):
            ritz_min_eig(k, p, J)
        return
    got = ritz_min_eig(k, p, J)
    assert got.min_eigenvalue.hex() == expected.min_eigenvalue.hex()
    assert _hex(got.coefficients) == _hex(expected.coefficients)
    assert (got.coefficients.dtype, got.coefficients.shape, got.basis_size, got.gram_condition) == (
        np.float64, (J,), J, 1.0
    )
    if J == 1:
        assert got.coefficients.tolist() == [1.0]


# Pinned bit for bit: the (a-2, b-2) rule that assembles A and the Ritz
# solutions, as the array loops computed them.
@pytest.mark.parametrize(
    ("n", "M", "k", "nodes", "weights"),
    [
        (
            6,
            6.0,
            1,
            (
                "-0x1.be54b988eafaap-1 -0x1.2ef3538095d14p-1 -0x1.aca5117fc1966p-3 0x1.aca5117fc1956p-3 "
                "0x1.2ef3538095d16p-1 0x1.be54b988eafa9p-1"
            ),
            (
                "0x1.36c91657f86f3p-5 0x1.54850cf8d32b3p-3 0x1.2ee456b8975c9p-2 0x1.2ee456b8975cbp-2 "
                "0x1.54850cf8d32aep-3 0x1.36c91657f86f9p-5"
            ),
        ),
        (
            18,
            301.75,
            2,
            (
                "-0x1.8581170e5b52cp-2 -0x1.4a7c4995a9e95p-2 -0x1.174463a125e00p-2 -0x1.cf7f4552487bcp-3 "
                "-0x1.74c9ec3c75c02p-3 -0x1.1cd69824bf539p-3 -0x1.8d6285ec37573p-4 -0x1.c6ca0179c1fdap-5 "
                "-0x1.d5a82edba1526p-7 0x1.b61879f94d46fp-6 0x1.161927e296cdfp-4 0x1.bfdc18a8c4714p-4 "
                "0x1.35e68450e2150p-3 0x1.8d9c162523b96p-3 0x1.e8008f765ecb9p-3 0x1.235117cb4686bp-2 "
                "0x1.5645b218b4602p-2 0x1.90edca907832cp-2"
            ),
            (
                "0x1.13bb069f69b35p-36 0x1.ebacb2f578b61p-27 0x1.fa95d05f09289p-20 0x1.46b5eb2c3280cp-14 "
                "0x1.66c95b56fa7d8p-10 0x1.8951f76374c5ap-7 0x1.d801db5a86d66p-5 0x1.47ba2622872f3p-3 "
                "0x1.0fe0f57a4ce38p-2 0x1.117ed67111bc2p-2 0x1.4d9f2d557f1a3p-3 0x1.e64eee1e11aadp-5 "
                "0x1.9a3aa2a8ae3dep-7 0x1.7af3846c5eb94p-10 0x1.5da029c2e92fdp-14 0x1.12dabd2a4d799p-19 "
                "0x1.0edc7ebd3ba04p-26 0x1.354da5ae60927p-36"
            ),
        ),
        (
            18,
            30000000.0,
            1,
            (
                "-0x1.55b323034a8ddp-10 -0x1.1f88f162033d2p-10 -0x1.e3c870b7b3adcp-11 "
                "-0x1.90e21b98bb5a2p-11 -0x1.4308da5b3dafdp-11 -0x1.f0f42ca05bd8ep-12 "
                "-0x1.60367534f6384p-12 -0x1.a48f59a553835p-13 -0x1.17b1dc9d09251p-14 "
                "0x1.17b1dc9d09254p-14 0x1.a48f59a553831p-13 0x1.60367534f6380p-12 0x1.f0f42ca05bd8ep-12 "
                "0x1.4308da5b3dafbp-11 0x1.90e21b98bb5a5p-11 0x1.e3c870b7b3adcp-11 0x1.1f88f162033d6p-10 "
                "0x1.55b323034a8ddp-10"
            ),
            (
                "0x1.36cb510ff75f4p-38 0x1.95d37c2872b58p-28 0x1.123908ce99618p-20 0x1.b285f1a754cdep-15 "
                "0x1.174faf4c66d23p-10 0x1.589b169ff69f9p-7 0x1.c1b6a90f42590p-5 0x1.491561ac59debp-3 "
                "0x1.1754788046ef8p-2 0x1.1754788046ef8p-2 0x1.491561ac59df0p-3 0x1.c1b6a90f4259fp-5 "
                "0x1.589b169ff69f9p-7 0x1.174faf4c66d3ap-10 0x1.b285f1a754c9ep-15 0x1.123908ce99618p-20 "
                "0x1.95d37c2872a8ep-28 0x1.36cb510ff75f4p-38"
            ),
        ),
    ],
    ids=["M6", "M301.75", "M3e7"],
)
def test_gauss_jacobi_is_pinned(n, M, k, nodes, weights):
    got_nodes, got_weights = _gauss_jacobi(n, M / 2.0 - k - 1.0, M / 2.0 + k - 3.0)
    assert (_hex(got_nodes), _hex(got_weights)) == (nodes, weights)


@pytest.mark.parametrize(
    ("k", "point", "J", "rho", "coefficients"),
    [
        (
            1,
            (5, 1.0, 1.0),
            4,
            "-0x1.9fdbfbd680f22p-3",
            "0x1.0000000000000p+0 0x1.d80ee60dbbd24p-52 0x1.014b6e433e85dp-6 -0x1.dedfe8b2daa9cp-53",
        ),
        (
            1,
            (5, 1.0, 1.0),
            16,
            "-0x1.a0738bdc7b6ebp-3",
            (
                "0x1.0000000000000p+0 -0x1.560bd467d3a36p-52 0x1.07eacdf934bb0p-6 -0x1.b3019bff06764p-55 "
                "0x1.95c6afce3e573p-9 0x1.e33cb7fbed107p-55 0x1.02eb4757662ddp-10 -0x1.966b610c35d66p-54 "
                "0x1.a9513e0f7d022p-12 -0x1.20402bbe6d42cp-56 0x1.976281ff9fb0fp-13 "
                "-0x1.7de4ef891b03cp-55 0x1.b048a599bcc59p-14 0x1.210c59e95c060p-54 "
                "0x1.ec442f851aa8dp-15 -0x1.943fe1832fbecp-55"
            ),
        ),
        (
            2,
            (5, 1.0, beta_fs(5, 1.0)),
            16,
            "0x1.e6005d38278cap+0",
            (
                "0x1.0000000000000p+0 -0x1.9ec6f799512b1p-2 -0x1.6c3ec23ba96acp-8 0x1.eefd4c26bab1dp-9 "
                "-0x1.4a0b9f7315732p-11 0x1.1549cbad253f0p-11 -0x1.210dc5f0d08f4p-13 "
                "0x1.12fe3073bb558p-13 -0x1.60609336b377ep-15 0x1.6d05d03b2c553p-15 "
                "-0x1.077cb512d3ea2p-16 0x1.245d362bd7a14p-16 -0x1.c34d39e36ef43p-18 "
                "0x1.0d839d89b84adp-17 -0x1.a4b80e49327eap-19 0x1.191227589c5dap-18"
            ),
        ),
        (
            1,
            (5, 0.1, -1.89793),
            16,
            "0x1.8512da53d441dp+2",
            (
                "0x1.0000000000000p+0 -0x1.6151e2b2809fbp-44 -0x1.5b615d22b479cp-3 "
                "-0x1.4bea2052c424cp-45 0x1.1fe7420f64bbbp-5 0x1.567751e18c0d8p-44 -0x1.f5b68b20846e0p-8 "
                "-0x1.59cf639c99f45p-44 0x1.bec4223d4ad26p-10 0x1.326fb5143f872p-44 "
                "-0x1.9256886bbe566p-12 -0x1.c14c461cb073cp-45 0x1.6b856af8a19fcp-14 "
                "0x1.1614169c1a730p-45 -0x1.37d110043fcb4p-16 -0x1.08a3938f6f5b5p-46"
            ),
        ),
        (
            1,
            (8, 1.0, -1.0 + 1e-13),
            16,
            "0x1.7829cbc14e322p+0",
            (
                "0x1.0000000000000p+0 0x1.3af8dea61b7a8p-9 -0x1.3dddba046992ap-4 0x1.3cc5561bb36b5p-11 "
                "0x1.f757548c9f247p-8 -0x1.3735b2cea37abp-10 -0x1.74f8c76b8c83dp-10 "
                "0x1.fc2d19b4864bcp-11 0x1.90ffa0e0d14a5p-11 -0x1.3fb4012d16a23p-11 "
                "-0x1.ffc2d4091985cp-12 0x1.201bb006e5732p-12 0x1.9f0bd16da244bp-13 "
                "-0x1.595fbba377cd9p-13 -0x1.eed16e3aef661p-14 0x1.a71ccb47dd754p-13"
            ),
        ),
    ],
    ids=["511_J4", "511_J16", "k2_on_curve", "lower_edge_N5", "lower_edge_N8"],
)
def test_ritz_solution_is_pinned(k, point, J, rho, coefficients):
    res = ritz_min_eig(k, validate(*point), J)
    assert (res.min_eigenvalue.hex(), _hex(res.coefficients)) == (rho, coefficients)


@pytest.mark.parametrize("N", [2 * 10**77, 10**100, 10**153], ids=["2e77", "1e100", "1e153"])
def test_a_recurrence_beyond_double_range_is_a_conditioning_error(N):
    """On the upper edge M = N.  From M near 1.2e77 an off-diagonal entry's denominator
    overflows and the entry reads 0 (ZeroDivisionError leaked); from about 1e102 its
    numerator overflows too and it reads NaN (numpy's LinAlgError leaked)."""
    p = validate(N, 1.0, beta_strip(N, 1.0)[1])
    m = derive(p).M
    with pytest.raises(ConditioningError, match="leaves double range"):
        _gauss_jacobi(6, m / 2.0 - 2.0, m / 2.0 - 2.0)  # the rule ritz_min_eig(1, p, 4) assembles on
    with pytest.raises(ConditioningError) as info:
        ritz_min_eig(1, p, 4)
    assert str(info.value).endswith(f"leaves double range, at M={m:.6g}, basis size 4")


def test_the_largest_recurrence_in_double_range_still_solves():
    p = validate(10**77, 1.0, beta_strip(10**77, 1.0)[1])
    assert abs(ritz_min_eig(1, p, 4).min_eigenvalue) < 1e-14  # M = N: on the curve's far end, rho is 0


@pytest.mark.parametrize("solver", ["eigvalsh", "eigh"])
def test_a_failed_eigen_solve_is_a_conditioning_error(monkeypatch, solver):
    """The kernel `spectral` calls fails as a LAPACK kernel does: NaNs out and the invalid flag
    raised.  The solve raises ConditioningError, and no RuntimeWarning escapes."""
    def fail(a):
        nans = np.sqrt(np.full(a.shape, -1.0))
        return nans[0] if solver == "eigvalsh" else (nans[0], nans)

    monkeypatch.setattr(spectral, f"{solver}_lo", fail)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConditioningError, match="did not converge,? at M=6, basis size 4$"):
            ritz_min_eig(1, validate(5, 1.0, 1.0), 4)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("big", [math.inf, 1e200], ids=["inf", "overflow"])
def test_a_non_finite_operator_is_a_conditioning_error(monkeypatch, big):
    """A factor whose rows 0 and 1 agree in sign at every other node and differ at the rest:
    with inf entries their product meets inf - inf, the invalid flag under the solve's error
    state, and with 1e200 it overflows.  Either is a ConditioningError naming M, and no
    RuntimeWarning escapes."""
    columns = itertools.cycle([[big, big, 1.0, 1.0], [big, -big, 1.0, 1.0]])
    monkeypatch.setattr(spectral, "_orthonormal_jacobi", lambda *args: next(columns))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConditioningError, match="^operator matrix is not finite at M=6, basis size 4$"):
            ritz_min_eig(1, validate(5, 1.0, 1.0), 4)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=300, deadline=None)
@given(
    jacobi=st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        st.lists(st.floats(1e-3, 1.0), min_size=5, max_size=5),
    ),
    J=st.sampled_from([4, 16, 22]),
    seed=st.integers(0, 2**32 - 1),
    cols=st.integers(0, 6),
)
def test_the_lapack_kernels_are_numpy_linalg_to_the_bit(jacobi, J, seed, cols):
    """`spectral` calls the gufuncs numpy.linalg.eigvalsh and eigh dispatch to for float64 input
    and the lower triangle.  On symmetric tridiagonal 6 x 6 matrices, as the Gauss-Jacobi rule
    solves, and on SPD J x J products F F^T, as the Ritz operator is formed, the kernels give the
    wrappers' bits.  Should a numpy release dispatch elsewhere, this fails."""
    diag, off = jacobi
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert spectral.eigvalsh_lo(matrix).tobytes() == np.linalg.eigvalsh(matrix).tobytes()
    factor = np.random.default_rng(seed).standard_normal((J, J + 2 + cols))
    spd = factor @ factor.T
    evals, evecs = spectral.eigh_lo(spd)
    expected = np.linalg.eigh(spd)
    assert evals.tobytes() == expected.eigenvalues.tobytes()
    assert evecs.tobytes() == expected.eigenvectors.tobytes()


def _ritz_profile(coefficients, k, m):
    """sum_j c_j s^k (1+s^2)^(-(M-2)/2) p_j(w) as a PowerPeakProfile.

    p_j are expanded into powers of w by the orthonormal recurrence, and
    w^i = (s^2-1)^i (1+s^2)^(-i) term by term.
    """
    half = (m - 2.0) / 2.0
    polys = _jacobi_polynomials(len(coefficients), m / 2.0 - k + 1.0, m / 2.0 + k - 1.0)
    combined = sum((c * poly for c, poly in zip(coefficients, polys)), Polynomial([0.0]))
    terms = []
    for i, a_i in enumerate(combined.coef):
        for t in range(i + 1):
            terms.append((a_i * math.comb(i, t) * (-1.0) ** (i - t), k + 2 * t, -half - i))
    return PowerPeakProfile(terms, sigma=2, nu=1.0)


@pytest.mark.parametrize(
    ("N", "alpha", "beta", "J"), [(5, 1.0, 1.0, 16), (8, 0.1, -1.8593, 4)]
)
def test_ritz_matches_adaptive_rayleigh_quotient(N, alpha, beta, J):
    """The Ritz minimizer's Rayleigh quotient, by adaptive quadrature in s.

    (8, 0.1, -1.8593) sits at M ~ 302, where the integrands are sharply
    peaked.
    """
    p = validate(N, alpha, beta)
    m = derive(p).M
    res = ritz_min_eig(1, p, J)
    x = _ritz_profile(res.coefficients, 1, m)
    potential = integrate_semiinfinite(
        lambda s: power_weighted(x.eval(s), s, 2.0, m - 1.0) / (1.0 + s * s) ** 4
    ).value
    quotient = mode_quadratic_form(x, 1, p) / (_potential_constant(m) * potential)
    assert quotient == pytest.approx(res.min_eigenvalue, rel=1e-9)


def test_adaptive_quadratic_form_never_reads_zero_at_the_lower_edge():
    """At (5, 0.1, -1.89793), M ~ 2997, every integral of the J = 4 Ritz
    minimizer is about 1e-900: the adaptive form must refuse there or
    reproduce the Ritz value, never read the underflow as 0.0.  Folding
    1/r^2 into `power_weighted` alone turns today's refusal into 0.0, so
    that change needs log-space integrals with it."""
    p = validate(5, 0.1, -1.89793)
    m = derive(p).M
    res = ritz_min_eig(1, p, 4)
    x = _ritz_profile(res.coefficients, 1, m)
    try:
        form = mode_quadratic_form(x, 1, p)
    except (DomainError, AccuracyError):
        return
    assert form != 0.0
    potential = integrate_semiinfinite(
        lambda s: power_weighted(x.eval(s), s, 2.0, m - 1.0) / (1.0 + s * s) ** 4
    ).value
    assert form / (_potential_constant(m) * potential) == pytest.approx(res.min_eigenvalue, rel=1e-9)


def _mode_ground_state(k, p):
    """X = s^nu (1+s^2)^(-(M+2nu-4)/2) with nu(nu+M-2) = q^2 lambda_k: the exact ground state of the
    mode-k form, whose Rayleigh quotient is mode_eigenvalue(k, p)."""
    m, nu = derive(p).M, mode(k, p).nu_k
    return PowerPeakProfile([(1.0, nu, -(m + 2.0 * nu - 4.0) / 2.0)], sigma=2, nu=1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_adaptive_form_of_the_ground_state_is_its_eigenvalue_at_m_302(k):
    """At (8, 0.1, -1.8593), M = 301.75, a separate s^-2 factor underflowed below s ~ 1e-162 and
    made the integrand non-finite for k = 2 and 3; in the log-space weight it cannot."""
    p = validate(8, 0.1, -1.8593)
    m = derive(p).M
    x = _mode_ground_state(k, p)
    potential = integrate_semiinfinite(
        lambda s: power_weighted(x.eval(s) / (1.0 + s * s) ** 2, s, 2.0, m - 1.0)
    ).value
    quotient = mode_quadratic_form(x, k, p) / (_potential_constant(m) * potential)
    assert quotient == pytest.approx(mode_eigenvalue(k, p), rel=1e-12)


def test_adaptive_form_refuses_where_its_parts_are_subnormal():
    """At (5, 0.1, -1.89), M = 622, the ground state's lead energy is about 4e-295 and its potential
    part 2e-306, so their largest terms are subnormal and their quotient is 93 % off rho_1."""
    p = validate(5, 0.1, -1.89)
    with pytest.raises(AccuracyError, match="below") as err:
        mode_quadratic_form(_mode_ground_state(1, p), 1, p)
    assert 0.0 < err.value.result.value < 2.0**-970


def test_ritz_sign_flips_across_curve():
    N, alpha = 5, 1.0
    curve = beta_fs(N, alpha)
    below = ritz_min_eig(1, validate(N, alpha, curve - 0.05), 16).min_eigenvalue
    above = ritz_min_eig(1, validate(N, alpha, curve + 0.05), 16).min_eigenvalue
    assert below > 0.0 > above


def test_ritz_second_mode_is_coercive_on_curve():
    N, alpha = 5, 1.0
    p = validate(N, alpha, beta_fs(N, alpha))
    assert ritz_min_eig(2, p, 16).min_eigenvalue == pytest.approx(
        1.8984430015612932, rel=1e-6
    )


@pytest.mark.parametrize("N", [5, 6, 8, 12])
def test_ritz_vanishes_on_the_curve_at_every_basis_size(N):
    """On beta = beta_FS, nu_1 = 1 and the first basis function
    s (1+s^2)^(-(M-2)/2) is the exact mode-1 ground state, so rho_J = 0
    for every J: the root `fs_locate` seeks does not depend on the basis."""
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        p = validate(N, alpha, beta_fs(N, alpha))
        for J in (1, 4, 8, 12, 16):
            assert abs(ritz_min_eig(1, p, J).min_eigenvalue) <= 1e-12


@pytest.mark.parametrize("point", EXTREMALITY_POINTS)
def test_smallest_ritz_basis_bounds_the_larger_from_above(point):
    """Rayleigh-Ritz: the J = 4 span lies inside every larger one."""
    p = validate(*point)
    assert (
        ritz_min_eig(1, p, 4).min_eigenvalue
        >= ritz_min_eig(1, p, 16).min_eigenvalue - 1e-12
    )


LOWER_EDGE_POINTS = ((5, 0.1, -1.89793), (8, 0.1, -1.8593), (8, 1.0, -0.95))


@pytest.mark.parametrize("point", EXTREMALITY_POINTS + LOWER_EDGE_POINTS)
def test_ritz_falls_to_the_closed_form_from_above(point):
    """Rayleigh-Ritz: rho_J >= mode_eigenvalue, and rho_J does not rise with J."""
    p = validate(*point)
    m = derive(p).M
    for k in (1, 2, 3):
        if m <= 2 * k:  # the mode's form diverges on the Ritz basis
            continue
        rho = mode_eigenvalue(k, p)
        slack = 1e-12 * max(1.0, abs(rho))
        ritz = [ritz_min_eig(k, p, J).min_eigenvalue for J in (1, 4, 8, 16)]
        assert min(ritz) >= rho - slack
        assert all(larger <= smaller + slack for smaller, larger in itertools.pairwise(ritz))


@pytest.mark.parametrize("point", LOWER_EDGE_POINTS)
def test_ritz_matches_the_closed_form_at_the_lower_edge(point):
    p = validate(*point)
    assert ritz_min_eig(1, p, 16).min_eigenvalue == pytest.approx(
        mode_eigenvalue(1, p), rel=1e-10
    )


@pytest.mark.parametrize("depth", [1e-5, 1e-9, 1e-13])
@pytest.mark.parametrize(("N", "alpha"), [(5, 0.1), (8, 1.0)])
def test_ritz_stays_on_the_closed_form_deep_in_the_strip(N, alpha, depth):
    """beta = alpha - 2 + depth puts M between 6e5 and 1.4e14; the weight
    masses must enter as their exact ratio, not as a difference of lgammas."""
    p = validate(N, alpha, alpha - 2.0 + depth)
    assert ritz_min_eig(1, p, 16).min_eigenvalue == pytest.approx(
        mode_eigenvalue(1, p), rel=1e-12
    )


def test_mode_eigenvalue_special_values(p511):
    """Kernel on the curve (k = 1, j = 0) and the dilation (k = 0, j = 1)."""
    on_curve = validate(5, 1.0, beta_fs(5, 1.0))
    assert abs(mode_eigenvalue(1, on_curve)) <= 1e-15
    m = derive(p511).M
    assert mode_eigenvalue(0, p511) == pytest.approx(-8.0 / (m + 4.0), rel=1e-14)
    assert abs(mode_eigenvalue(0, p511, 1)) <= 1e-15
    assert mode_eigenvalue(1, p511) < 0.0 < mode_eigenvalue(2, p511)
    # defined also where the Ritz basis rejects the mode (M = 6 <= 2k)
    assert mode_eigenvalue(4, p511) > mode_eigenvalue(3, p511)
    with pytest.raises(DomainError):
        mode_eigenvalue(1, p511, -1)


#: every beta fs_locate solves at tol 1e-4, in order: the bracket ends, then Brent's steps
_SOLVE_PATHS = {
    (5, 1.0): (
        "-0x1.7777777777777p-1", "0x1.a666666666667p+0", "0x1.95b7ac0df357fp-1", "0x1.5096494732aefp-1",
        "0x1.504f461fd5069p-1", "0x1.5048b8671a3f8p-1",
    ),
    (6, 2.0): (
        "0x1.3333333333334p-2", "0x1.7c28f5c28f5c2p+1", "0x1.a15787712191ep+0", "0x1.7fe33de69be42p+0",
        "0x1.7bbb07035e2ddp+0", "0x1.7bb7c02700ca4p+0",
    ),
}


def test_fs_locate_matches_closed_form(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return ritz_min_eig(*args)

    monkeypatch.setattr(spectral, "ritz_min_eig", counted)
    for N, alpha, pinned in ((5, 1.0, "0.6568548120362837"), (6, 2.0, "1.4833225615713481")):
        calls.clear()
        located = fs_locate(N, alpha, 1e-4)
        assert located == pytest.approx(beta_fs(N, alpha), abs=1e-4)
        assert repr(located) == pinned
        assert tuple(p.beta.hex() for _, p, _ in calls) == _SOLVE_PATHS[N, alpha]
        assert all(k == 1 and p[:2] == (N, alpha) and J == 1 for k, p, J in calls)


@pytest.mark.parametrize("N", [5, 6, 7, 8, 10, 12, 20, 40])
def test_fs_locate_finds_the_curve_wherever_its_bracket_holds_it(N):
    """fs_locate starts from [alpha-2 + width/10, 0.99 N alpha/(N-2)].

    Where beta_FS lies inside it returns beta_FS to the tolerance; elsewhere
    the bracket widens toward the strip's ends until it holds beta_FS, so
    the curve comes back to the tolerance there too.
    """
    for alpha in np.geomspace(0.02, 50.0, 30):
        alpha = float(alpha)
        assert fs_locate(N, alpha, 1e-4) == pytest.approx(beta_fs(N, alpha), abs=1e-4)


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_fs_locate_finds_the_curve_on_the_whole_alpha_axis(monkeypatch, tol):
    """At large alpha beta_FS sinks toward alpha - 2 and at large N it nears
    N alpha/(N-2); the widened bracket finds it at both ends, in at most
    eleven J = 1 solves."""
    calls = []

    def counted(*args):
        calls.append(args)
        return ritz_min_eig(*args)

    monkeypatch.setattr(spectral, "ritz_min_eig", counted)
    for N in (5, 6, 8, 12, 100, 500, 1000):
        for alpha in (1e-3, 0.1, 1.0, 2.0, 8.0, 20.0, 100.0, 1000.0):
            calls.clear()
            assert abs(fs_locate(N, alpha, tol) - beta_fs(N, alpha)) <= tol, (N, alpha)
            assert len(calls) <= 11, (N, alpha)


def test_fs_locate_caps_the_walk_toward_the_lower_edge(monkeypatch):
    """A rho_1 that is negative everywhere moves lo toward alpha - 2 until M
    passes M_CAP, and the BracketError names that M."""
    seen = []

    def negative(k, p, J):
        seen.append(derive(p).M)
        return spectral.RitzResult(-1.0, np.zeros(J), J, 1.0)

    monkeypatch.setattr(spectral, "ritz_min_eig", negative)
    with pytest.raises(BracketError, match=r"M=\S+ above the cap 1e\+12"):
        fs_locate(5, 1.0, 1e-4)
    assert max(seen) <= spectral.M_CAP < 8.0 * max(seen)
    assert seen[2:] == sorted(seen[2:])  # lo, hi, then lo walking toward alpha - 2


def _synthetic_rho(monkeypatch, rho):
    """fs_locate's bracket for (5, 1), with ritz_min_eig replaced by rho(beta);
    returns the bracket and the list of betas evaluated."""
    seen = []

    def fake(k, p, J):
        seen.append(p.beta)
        return spectral.RitzResult(rho(p.beta), np.zeros(J), J, 1.0)

    monkeypatch.setattr(spectral, "ritz_min_eig", fake)
    beta_min, beta_max = beta_strip(5, 1.0)
    return beta_min + 0.1 * (beta_max - beta_min), 0.99 * beta_max, seen


@pytest.mark.parametrize("end", [0, 1])
def test_fs_locate_refuses_an_end_within_the_rounding_floor(monkeypatch, end):
    """An end whose value is 0.0, or RHO_FLOOR from it, is read from rounding: BracketError after
    the two end solves, where the search once returned an exact-zero end.  One double further out
    the end is a sign, and the root comes back within tol.  The slope 1/4 keeps rho in (-1, 1),
    where Brent's variable log(1 + rho) is defined."""
    for offset in (0.0, RHO_FLOOR, math.nextafter(RHO_FLOOR, 1.0)):
        lo, hi, seen = _synthetic_rho(
            monkeypatch, lambda beta: 0.25 * (root - beta) + (offset if end == 0 else -offset)
        )
        root = (lo, hi)[end]
        if offset <= RHO_FLOOR:
            with pytest.raises(BracketError, match="clear of its rounding floor"):
                fs_locate(5, 1.0, 1e-4)
            assert seen == [lo, hi]
        else:
            assert abs(fs_locate(5, 1.0, 1e-4) - root) <= 1e-4


def test_fs_locate_refuses_a_chord_too_flat_to_resolve_tol(monkeypatch):
    """rho = c (root - beta): an error of RHO_FLOOR moves the chord's root by RHO_FLOOR/c, which
    must stay within tol/2.  At c = RHO_FLOOR/tol it moves tol and the search refuses; at four
    times that it answers.  A tol below 2^-32 of the bracket is checked as that width."""
    tol = 1e-4
    for c, answers in ((RHO_FLOOR / tol, False), (4.0 * RHO_FLOOR / tol, True)):
        lo, hi, _ = _synthetic_rho(monkeypatch, lambda beta: c * (root - beta))
        root = 0.5 * (lo + hi)
        if answers:
            assert abs(fs_locate(5, 1.0, tol) - root) <= tol
        else:
            with pytest.raises(BracketError, match=f"steeply enough to resolve tol={tol:.3g}$"):
                fs_locate(5, 1.0, tol)
    with pytest.raises(BracketError, match=f"resolve tol={math.ldexp(hi - lo, -32):.3g}$"):
        fs_locate(5, 1.0, 1e-300)


def test_fs_locate_bisects_a_step_that_defeats_interpolation(monkeypatch):
    """With rho = 1 below the root and -1/2 above it, |log(1 + rho)| is log 2 on both sides, so
    Brent's method never interpolates and each step halves the bracket; the root comes back
    within tol."""
    lo, hi, seen = _synthetic_rho(monkeypatch, lambda beta: 1.0 if beta < root else -0.5)
    root = lo + 0.3 * (hi - lo)
    tol = 1e-6
    assert abs(fs_locate(5, 1.0, tol) - root) <= tol
    assert seen[2] == pytest.approx(0.5 * (lo + hi), abs=1e-12)  # the first step is a bisection
    assert len(seen) == pytest.approx(2 + math.log2((hi - lo) / tol), abs=2)


@pytest.mark.parametrize("rho", [-1.0, -2.0])
def test_fs_locate_refuses_a_step_with_no_log(monkeypatch, rho):
    """Brent's variable is log(1 + rho).  No Ritz value reaches -1 (a00 >= 0, and it is at least
    rho_1 > -1 as M > 4), but a step that did gets ConditioningError naming beta and rho, not the
    ValueError of math.log1p."""
    lo, hi, seen = _synthetic_rho(monkeypatch, lambda beta: {lo: 0.5, hi: -0.5}.get(beta, rho))
    with pytest.raises(ConditioningError, match=rf"rho={rho!r} at beta=\S+ has no log\(1 \+ rho\)$"):
        fs_locate(5, 1.0, 1e-4)
    assert seen[:2] == [lo, hi] and len(seen) == 3


def test_fs_locate_takes_six_solves_on_the_benchmark_range(monkeypatch):
    """On log(1 + rho), nearly linear in beta across the strip, each locate of the fs_curve
    benchmark's shape (N alternating 5 and 6, alpha on a golden-ratio sequence over [0.5, 2])
    takes exactly six J = 1 solves: two bracket ends, three interpolations and one closing step."""
    calls = []

    def counted(*args):
        calls.append(args)
        return ritz_min_eig(*args)

    monkeypatch.setattr(spectral, "ritz_min_eig", counted)
    for number in range(200):
        N, alpha = (5, 6)[number % 2], 0.5 + 1.5 * (number * 0.6180339887498949 % 1.0)
        calls.clear()
        assert abs(fs_locate(N, alpha, 1e-4) - beta_fs(N, alpha)) <= 1e-4, (N, alpha)
        assert len(calls) == 6, (N, alpha)


def _beta_fs_50_digits(N, alpha):
    """beta_FS in the stable form alpha (alpha + 2(N-2)) / (N + sqrt(N^2 + alpha^2 + 2(N-2) alpha)), to 50 digits."""
    with mpmath.workdps(50):
        n, a = mpmath.mpf(N), mpmath.mpf(alpha)
        return a * (a + 2 * (n - 2)) / (n + mpmath.sqrt(n * n + a * a + 2 * (n - 2) * a))


def test_the_rounding_floor_bounds_the_one_function_ritz_value_on_the_curve():
    """RHO_FLOOR's error model: at the double nearest beta_FS, where rho_1 vanishes to within its
    slope times half an ulp, the J = 1 value is its own rounding.  Over the comment's seeded sample
    (its first 5000 points) it stays below 5.3 eps, and the floor is three times that."""
    rng, worst = random.Random(20261020), 0.0
    for _ in range(5000):
        N, alpha = int(10 ** rng.uniform(math.log10(5), 22)), 10 ** rng.uniform(-4, 6)
        beta = float(_beta_fs_50_digits(N, alpha))
        if beta > beta_strip(N, alpha)[1]:  # at large N the curve can round past the strip's upper end
            continue
        worst = max(worst, abs(ritz_min_eig(1, validate(N, alpha, beta), 1).min_eigenvalue))
    assert 0.0 < worst < 5.3 * sys.float_info.epsilon
    assert RHO_FLOOR >= 3.0 * 5.3 * sys.float_info.epsilon


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_fs_locate_at_large_n_answers_within_tol_or_refuses(tol):
    """From N near 1e7 rho_1(beta_max) is about -16 alpha/N^2 and rounding decides the end signs; at
    N = 10^16 and alpha = 1 the search once answered -0.8.  Every locate either lies within tol of
    the 50-digit curve or raises BracketError, and the smaller N answer."""
    answered = set()
    for exponent in range(5, 21):
        for alpha in (1e-3, 1.0, 100.0):
            try:
                located = fs_locate(10**exponent, alpha, tol)
            except BracketError:  # an end within the floor, a flat chord, or noise walking lo past M_CAP
                continue
            assert abs(located - _beta_fs_50_digits(10**exponent, alpha)) <= tol, (exponent, alpha)
            answered.add((exponent, alpha))
    assert {(5, alpha) for alpha in (1e-3, 1.0, 100.0)} <= answered
    with pytest.raises(BracketError):
        fs_locate(10**16, 1.0, tol)


_J1_POINTS = ((5, 1.0, 1.0), (5, 1.0, 0.3), (5, -1.0, -1.7), (5, 0.7, 0.3), (6, 1.3, -0.6), (8, 2.0, 2.5),
              (8, 0.1, -1.8593), (8, 1.0, -0.95), (12, 1.0, 0.5), (20, 3.0, 2.0), (100, 1.0, 0.5))


@pytest.mark.parametrize("point", _J1_POINTS)
def test_one_function_ritz_value_is_the_rayleigh_quotient_of_x1(point):
    """With J = 1 the span is X1 = s (1+s^2)^(-(M-2)/2) alone: the solve's value is X1's Rayleigh
    quotient by adaptive quadrature in s, and Rayleigh-Ritz keeps it at or above the closed form."""
    p = validate(*point)
    m = derive(p).M
    x1 = PowerPeakProfile([(1.0, 1.0, -(m - 2.0) / 2.0)], sigma=2, nu=1.0)
    potential = integrate_semiinfinite(
        lambda s: power_weighted(x1.eval(s) / (1.0 + s * s) ** 2, s, 2.0, m - 1.0)
    ).value
    quotient = mode_quadratic_form(x1, 1, p) / (_potential_constant(m) * potential)
    rho = ritz_min_eig(1, p, 1).min_eigenvalue
    assert rho == pytest.approx(quotient, rel=1e-12)
    assert rho >= mode_eigenvalue(1, p)


def test_one_function_ritz_value_has_the_closed_form_sign():
    """The sign fs_locate reads: wherever |rho_J=1| exceeds RHO_FLOOR it has mode_eigenvalue(1, p)'s
    sign, at 9000 seeded strip points (N <= 100, alpha <= 20, 30 % of the alpha > 0 ones within
    1e-12 to 0.1 of the curve) and at 960 lower-edge points with M from 1e3 to M_CAP (N <= 1000),
    where fs_locate's walk toward alpha - 2 solves."""
    rng, points = random.Random(52), []
    for _ in range(9000):
        N = round(10 ** rng.uniform(math.log10(5), 2))
        alpha = rng.uniform(2.0 - N, 20.0)
        lo, hi = beta_strip(N, alpha)
        beta = lo + rng.uniform(0.0, 1.0) * (hi - lo)
        if rng.random() < 0.3 and alpha > 0.0:
            beta = beta_fs(N, alpha) + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12, -1)
        points.append((N, alpha, beta))
    for N in (5, 6, 8, 12, 20, 50, 100, 1000):
        for alpha in (-0.5, 1e-3, 0.1, 1.0, 10.0, 100.0):
            for m in np.geomspace(1e3, M_CAP, 20):
                points.append((N, alpha, alpha - 2.0 + 2.0 * (N + alpha - 2.0) / float(m)))  # 2 + beta - alpha = 2(N + beta)/M
    compared = 0
    for point in points:
        p = validate(*point)
        rho = ritz_min_eig(1, p, 1).min_eigenvalue
        if abs(rho) > RHO_FLOOR:
            compared += 1
            assert (rho > 0.0) == (mode_eigenvalue(1, p) > 0.0), point
    assert compared == len(points) == 9960


def test_fs_locate_terminates_below_rounding():
    """A tolerance finer than the spacing of floats in beta still stops."""
    assert fs_locate(5, 1.0, 1e-300) == pytest.approx(beta_fs(5, 1.0), abs=1e-10)


def test_fs_locate_argument_checks():
    with pytest.raises(DomainError):
        fs_locate(5, -1.0, 1e-4)
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"alpha={alpha}"):
            fs_locate(5, alpha, 1e-4)
    with pytest.raises(ParamError, match="N=2"):
        fs_locate(2, 1.0, 1e-4)
    with pytest.raises(DomainError):
        fs_locate(5, 1.0, 0.0)
    with pytest.raises(DomainError, match="tol"):
        fs_locate(5, 1.0, float("nan"))
