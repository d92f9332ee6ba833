"""Spherical-mode data, quadratic forms, Ritz minimization, curve location."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import ckn_lab.spectral as spectral
from ckn_lab.params import beta_fs, derive, validate
from ckn_lab.profiles import PowerPeakProfile, gamma_m, kernel_mode
from ckn_lab.quadrature import integrate_semiinfinite, power_weighted
from ckn_lab.specfun import DomainError
from ckn_lab.spectral import (
    BracketError,
    _gauss_jacobi,
    _jacobi_recurrence,
    _orthonormal_jacobi,
    _potential_constant,
    fs_locate,
    mode_data,
    mode_eigenvalue,
    mode_quadratic_form,
    ritz_min_eig,
)
from ckn_lab.verify import EXTREMALITY_POINTS


def test_mode_data_reference_values(p511):
    m0 = mode_data(0, p511)
    assert (m0.k, m0.lambda_k, m0.l_k, m0.varpi_k) == (0, 0.0, 1, 0.0)
    m1 = mode_data(1, p511)
    assert (m1.k, m1.lambda_k, m1.l_k, m1.varpi_k) == (1, 4.0, 5, 5.0)
    m2 = mode_data(2, p511)
    assert (m2.k, m2.lambda_k, m2.l_k, m2.varpi_k) == (2, 10.0, 14, 12.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=5, max_value=10), st.integers(min_value=0, max_value=8))
def test_mode_data_combinatorics(N, k):
    """lambda_k = k(N-2+k); multiplicities are the usual binomial difference."""
    import math

    p = validate(N, 0.0, 0.0)
    data = mode_data(k, p)
    assert data.lambda_k == k * (N - 2 + k)
    expected_l = (N + 2 * k - 2) * math.factorial(N + k - 3) // (
        math.factorial(N - 2) * math.factorial(k)
    )
    assert data.l_k == expected_l
    assert data.l_k >= 1


def test_multiplicity_small_modes(p511):
    assert mode_data(0, p511).l_k == 1
    assert mode_data(1, p511).l_k == 5  # = N


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
    """q^2 lambda_k >= varpi_k for k >= 1 below/at the curve.

    Equality holds only for k = 1 exactly on the curve; the k = 2 gap
    stays strictly positive there.
    """
    N, alpha = 5, 1.0
    curve = beta_fs(N, alpha)
    for beta in (0.2, 0.5, curve):
        p = validate(N, alpha, beta)
        d = derive(p)
        for k in (1, 2, 3):
            gap = d.q**2 * mode_data(k, p).lambda_k - mode_data(k, p).varpi_k
            if k == 1 and beta == curve:
                assert gap == pytest.approx(0.0, abs=1e-12)
            else:
                assert gap > 1e-6


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
    vals = _orthonormal_jacobi(w, 8, a, b, order=2)
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
    p = _orthonormal_jacobi(w, J, a, b)[:, 0]
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
    with pytest.raises(DomainError):
        ritz_min_eig(1, p511, 3)


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
    nodes, normalized = _gauss_jacobi(n, a, b)
    ref_nodes, ref_weights = roots_jacobi(n, a, b)
    log_mu0 = (a + b + 1) * math.log(2) + math.lgamma(a + 1) + math.lgamma(b + 1)
    weights = math.exp(log_mu0 - math.lgamma(a + b + 2)) * normalized
    assert np.max(np.abs(nodes - ref_nodes)) < 1e-13
    assert math.fsum(normalized) == pytest.approx(1.0, rel=1e-13)
    assert np.max(np.abs(weights - ref_weights)) < 1e-12 * np.max(ref_weights)


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
        for J in (4, 8, 12, 16):
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
        ritz = [ritz_min_eig(k, p, J).min_eigenvalue for J in (4, 8, 16)]
        assert min(ritz) >= rho - slack
        assert ritz[1] <= ritz[0] + slack
        assert ritz[2] <= ritz[1] + slack


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


def test_fs_locate_matches_closed_form(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return ritz_min_eig(*args)

    monkeypatch.setattr(spectral, "ritz_min_eig", counted)
    for N, alpha in ((5, 1.0), (6, 2.0)):
        calls.clear()
        located = fs_locate(N, alpha, 1e-4)
        assert located == pytest.approx(beta_fs(N, alpha), abs=1e-4)
        assert 2 <= len(calls) <= 10
        assert all(J == 4 for _, _, J in calls)


@pytest.mark.parametrize("N", [5, 6, 7, 8, 10, 12, 20, 40])
def test_fs_locate_finds_the_curve_wherever_its_bracket_holds_it(N):
    """fs_locate searches [alpha-2 + width/10, 0.99 N alpha/(N-2)].

    Where beta_FS lies inside it returns beta_FS to the tolerance;
    elsewhere the least eigenvalue has no sign change there: BracketError.
    """
    for alpha in np.geomspace(0.02, 50.0, 30):
        alpha = float(alpha)
        beta_max = N * alpha / (N - 2.0)
        lo = (alpha - 2.0) + 0.1 * (beta_max - (alpha - 2.0))
        closed = beta_fs(N, alpha)
        if lo <= closed <= 0.99 * beta_max:
            assert fs_locate(N, alpha, 1e-4) == pytest.approx(closed, abs=1e-4)
        else:
            with pytest.raises(BracketError):
                fs_locate(N, alpha, 1e-4)


def test_fs_locate_terminates_below_rounding():
    """A tolerance finer than the spacing of floats in beta still stops."""
    assert fs_locate(5, 1.0, 1e-300) == pytest.approx(beta_fs(5, 1.0), abs=1e-10)


def test_fs_locate_argument_checks():
    with pytest.raises(DomainError):
        fs_locate(5, -1.0, 1e-4)
    with pytest.raises(DomainError):
        fs_locate(5, 1.0, 0.0)
    with pytest.raises(DomainError, match="tol"):
        fs_locate(5, 1.0, float("nan"))
