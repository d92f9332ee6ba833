"""Second variation, directional quotients, and the breaking certificate."""

import math
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ckn_lab.variation as variation
from ckn_lab.params import (
    ParamError,
    _log_half_sphere_area,
    beta_fs,
    beta_strip,
    derive,
    gamma_m,
    rellich_infimum,
    s_0_closed,
    sphere_area,
    validate,
)
from ckn_lab.profiles import PowerPeakProfile, amplitude_constant, extremal, s_r_closed
from ckn_lab.quadrature import integrate_rows, power_weighted
from ckn_lab.specfun import AccuracyError, ConditioningError, DomainError
from ckn_lab.spectral import _coupling, mode_eigenvalue, ritz_min_eig
from ckn_lab.variation import (
    DEFAULT_CERT_TOL,
    DEFAULT_EPS,
    Verdict,
    certify,
    directional_quotient,
    kernel_coefficients,
    second_variation,
)


def _beta_oracle(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def test_second_variation_reference_point(p511):
    sv = second_variation(p511)
    assert sv.value == pytest.approx(-5.858682485431447, rel=1e-10)
    assert sv.mu == pytest.approx(4.0, rel=1e-13)
    assert sv.factor == pytest.approx(-1.0, rel=1e-13)
    assert sv.I1 == pytest.approx(math.pi / 32.0, rel=1e-12)
    assert sv.I2 == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert sv.prefactor == pytest.approx(8.0 * math.pi**2 / 15.0, rel=1e-12)


def test_second_variation_factored_identity(p511):
    """The emitted value recombines exactly from its published factors."""
    sv = second_variation(p511)
    m = derive(p511).M
    recombined = sv.prefactor * sv.factor * (2.0 * sv.I1 + ((2.0 * m - 5.0) + sv.mu) * sv.I2)
    assert sv.value == pytest.approx(recombined, rel=1e-12)


def test_second_variation_integrals_against_beta_oracle(p511):
    # I1 = (1/2)[B((M-3)/2,(M+3)/2) + (M-3)(M-5) B((M-1)/2,(M+1)/2)],
    # I2 = (1/2) B((M-2)/2,(M-2)/2), both at M=6
    sv = second_variation(p511)
    i1 = 0.5 * (_beta_oracle(1.5, 4.5) + 3.0 * 1.0 * _beta_oracle(2.5, 3.5))
    i2 = 0.5 * _beta_oracle(2.0, 2.0)
    assert sv.I1 == pytest.approx(i1, rel=1e-12)
    assert sv.I2 == pytest.approx(i2, rel=1e-12)


def test_second_variation_sign_tracks_curve_side():
    N, alpha = 5, 1.0
    curve = beta_fs(N, alpha)
    assert second_variation(validate(N, alpha, curve + 0.1)).value < 0.0
    assert second_variation(validate(N, alpha, curve - 0.1)).value > 0.0
    on_curve = second_variation(validate(N, alpha, curve)).value
    assert on_curve == pytest.approx(0.0, abs=1e-12)


def _beta_at(N, alpha, M):
    """The beta at which (N, alpha, beta) has transformed dimension M; M > N lies in the strip."""
    return (2.0 * N - M * (2.0 - alpha)) / (M - 2.0)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(5, 12), alpha=st.floats(0.1, 4.0), t=st.floats(1e-6, 1.0))
@example(N=5, alpha=1.0, t=1.0)  # M = 990
def test_second_variation_integrals_against_quadrature(N, alpha, t):
    """The Beta reductions of I1 and I2 against the adaptive quadrature of their
    integrands (X1')^2 s^(M-4) and X1^2 s^(M-5), X1 = s(1+s^2)^(-(M-2)/2), for M up to 990."""
    p = validate(N, alpha, _beta_at(N, alpha, N + t * (990.0 - N)))
    m = derive(p).M
    x1 = PowerPeakProfile([(1.0, 1, -(m - 2.0) / 2.0)], sigma=2, nu=1.0)

    def rows(s):
        x, dx = x1.jet(s, 1)
        return power_weighted(dx, s, 2.0, m - 4.0), power_weighted(x, s, 2.0, m - 5.0)

    i1, i2 = (res.value for res in integrate_rows(rows))
    sv = second_variation(p)
    assert abs(sv.I1 - i1) <= 1e-9 * i1
    assert abs(sv.I2 - i2) <= 1e-9 * i2


@pytest.mark.parametrize("N, alpha, M", [(5, 1.0, 995.0), (8, 0.5, 1007.0), (6, 1.9, 1019.0)])
def test_second_variation_near_the_smallest_normal_against_mpmath(N, alpha, M):
    """Near M = 1000 the integrals are about 1e-300, still normal: the closed form answers
    there, to 1e-10 of a 50-digit evaluation from the same (N, alpha, beta)."""
    mpmath = pytest.importorskip("mpmath")
    p = validate(N, alpha, _beta_at(N, alpha, M))
    with mpmath.workdps(50):
        n, a, b = (mpmath.mpf(x) for x in p)
        q, m = 2 / (2 + b - a), 2 * (n + b) / (2 + b - a)
        mu = q**2 * (n - 1)
        i1 = (mpmath.beta((m - 3) / 2, (m + 3) / 2) + (m - 3) * (m - 5) * mpmath.beta((m - 1) / 2, (m + 1) / 2)) / 2
        i2 = mpmath.beta((m - 2) / 2, (m - 2) / 2) / 2
        omega = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
        exact = [float(x) for x in (omega / n / q**3 * (mu - (m - 1)) * (2 * i1 + (2 * m - 5 + mu) * i2), i1, i2)]
    sv = second_variation(p)
    for got, want in zip((sv.value, sv.I1, sv.I2), exact):
        assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("point", [(5, 1.0, _beta_at(5, 1.0, 3000.0)), (438, 1.0, 1.0)], ids=["M3000", "N438"])
def test_second_variation_refuses_to_underflow(point):
    """At M = 3000 the Beta values underflow; at N = 438 the sphere area is about 1e-307 and
    the value underflows to -0.0.  Neither is reported as a number."""
    with pytest.raises(DomainError, match="underflows double precision at M="):
        second_variation(validate(*point))


def test_second_variation_refuses_to_overflow():
    """At alpha = 1e200, q = 2/(2+beta-alpha) is 4e-200 and q^-3 leaves double range."""
    with pytest.raises(DomainError, match=r"^second variation overflows double precision at M="):
        second_variation(validate(6, 1e200, 1.5e200))


@settings(max_examples=200, deadline=None)
@given(N=st.integers(5, 40), log_alpha=st.floats(-3.0, 300.0), t=st.floats(0.0, 1.0))
@example(N=6, log_alpha=100.0, t=0.5)
@example(N=6, log_alpha=200.0, t=0.5)
def test_closed_forms_are_finite_or_refuse_at_large_alpha(N, log_alpha, t):
    """Anywhere in the strip, s_r_closed and second_variation return a finite float or raise
    DomainError; an overflow is never a bare OverflowError, inf or nan."""
    alpha = 10.0**log_alpha
    lo, hi = beta_strip(N, alpha)
    try:
        p = validate(N, alpha, lo + t * (hi - lo))
    except ParamError:
        assume(False)
    for compute in (lambda: s_r_closed(p), lambda: second_variation(p).value):
        try:
            value = compute()
        except DomainError:
            continue
        assert type(value) is float and math.isfinite(value)


def test_second_variation_on_the_curve_is_an_exact_zero():
    """At (5, 4.5, 3.5) the factor is exactly 0.0, so the value 0.0 is no underflow."""
    sv = second_variation(validate(5, 4.5, 3.5))
    assert (sv.factor, sv.value) == (0.0, 0.0)


def test_directional_quotient_reference_value(p511):
    q = directional_quotient(p511, 0.01)
    assert q == pytest.approx(221.68730915697185, rel=1e-10)
    assert q < s_r_closed(p511)


def test_directional_quotient_even_in_eps(p511):
    assert directional_quotient(p511, 0.01) == directional_quotient(p511, -0.01)


def test_directional_quotient_recovers_radial_constant(p511):
    assert directional_quotient(p511, 1e-8) == pytest.approx(
        s_r_closed(p511), rel=1e-10
    )


def test_directional_quotient_taylor_window(p511):
    """The epsilon^2 drop is within a small factor of the curvature model.

    The direction carries U's amplitude, so its size is eps times it."""
    s_r = s_r_closed(p511)
    eps = 1e-2
    drop = s_r - directional_quotient(p511, eps)
    u, d = extremal(p511), derive(p511)
    (star,) = integrate_rows(lambda r: (power_weighted(u.eval(r), r, d.p_star, p511.beta + p511.N - 1.0),))
    norm_star = (sphere_area(p511.N) * star.value) ** (1.0 / d.p_star)
    size = eps * amplitude_constant(p511)
    model = -second_variation(p511).value * size * size / norm_star**2
    assert drop > 0.0
    assert 0.2 < drop / model < 5.0


@pytest.mark.parametrize("eps, expected", [(0.0, "221.68826741979254"), (0.01, "221.68730915697185")])
def test_directional_quotient_integrates_in_one_pass(monkeypatch, p511, eps, expected):
    """The energies and the polar excess are rows of one integrate_rows call; at eps = 0 the
    quotient is S_r itself."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return integrate_rows(rows)

    monkeypatch.setattr(variation, "integrate_rows", counted)
    assert repr(directional_quotient(p511, eps)) == expected
    assert len(calls) == 1


def _quotient_rows(p, eps):
    """The rows `quotient_drop` integrates at (p, eps), with U^p* s^(M-1) ds, in x, as a fourth."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variation, "integrate_rows", lambda rows: captured.append(rows) or integrate_rows(rows))
        drop = variation.quotient_drop(p, eps)
    m = derive(p).M

    def rows(x):  # U^p* s^M ds/s = cosh(ln s)^-M dx/(sqrt(M) x), with ln s = ln x/sqrt(M)
        lx = np.log(x)
        log_cosh = 0.5 * np.log1p(np.sinh(lx / math.sqrt(m)) ** 2)
        return [*captured[0](x), np.exp(-lx - 0.5 * math.log(m) - m * log_cosh)]

    return drop, rows


def _assert_ground_state_identity(p):
    """U's own equation gives E_U = gamma_m(M)/16 int U^p* s^(M-1) ds, the identity that lets the
    quotient drop do without a norm row: integrated as a fourth row on the drop's grid, the two
    sides agree to 1e-13."""
    _, rows = _quotient_rows(p, 0.01)
    energy_u, _, _, norm = (res.value for res in integrate_rows(rows))
    assert abs(16.0 * energy_u / gamma_m(derive(p).M) / norm - 1.0) <= 1e-13


@pytest.mark.parametrize("alpha", [-5.0, -0.5, 0.25, 1.0, 4.0])
def test_directional_quotient_at_eps_0_is_the_radial_constant_at_m_1002(alpha):
    """At N = 12, 1 % up the strip, M is about 1002.  In r the unit-amplitude ground state is
    2^(-(M-4)/2), about 1e-150, at r = 1, where its weighted integrands peak; in s every integrand
    is of order 1.  At eps = 0 the quotient is S_r exactly, as D(0) = 0; the quadrature behind D
    keeps the ground state's identity between its energy and its norm."""
    lo, hi = beta_strip(12, alpha)
    p = validate(12, alpha, lo + 0.01 * (hi - lo))
    assert derive(p).M == pytest.approx(1002.0)
    assert directional_quotient(p, 0.0) == s_r_closed(p)
    _assert_ground_state_identity(p)


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(5, 438),
    alpha=st.floats(-2.5, 4.0),
    u=st.floats(0.0, 1.0),
    eps=st.sampled_from([0.0, 1e-8, 0.003, 0.01, 0.3, 0.49]),
)
@example(N=5, alpha=1.0, u=1.0, eps=0.0)  # M = 1e6
@example(N=30, alpha=-2.5, u=1.0, eps=0.01)
@example(N=438, alpha=1.0, u=math.log(439 / 438) / math.log(1e6 / 438), eps=0.0)  # (438, 1, 1), M = 439
def test_quotient_drop_matches_the_prefactor_route(N, alpha, u, eps):
    """From the upper edge (M = N) to M = 1e6, log-uniformly in M, and for N up to 438, D agrees
    to 5e-14 with Q/S_r - 1, where Q is the quotient as it was taken before the drop: S_r's
    prefactor omega^(4/M) q^(4/M-4) in log space over int U^p* A s^(M-1) ds, against the closed
    S_r.  At eps = 0 this checks that the quadrature quotient is S_r to 5e-14."""
    try:
        p = validate(N, alpha, _beta_at(N, alpha, N * (1e6 / N) ** u))
    except ParamError:
        assume(False)
    d = derive(p)
    drop, rows = _quotient_rows(p, eps)

    def prefactor_rows(x):  # the denominator row int U^p* A = int U^p* (A - 1) + int U^p*
        energy_u, energy_g, excess, norm = rows(x)
        return [energy_u, energy_g, excess + norm]

    energy_u, energy_g, raw = (res.value for res in integrate_rows(prefactor_rows))
    log_q = (
        4.0 / d.M * (math.log(2.0) + _log_half_sphere_area(N)) + (4.0 / d.M - 4.0) * math.log(d.q)
        + math.log(energy_u + eps**2 * energy_g / N) - 2.0 / d.p_star * math.log(raw)
    )
    assert abs(drop - (math.exp(log_q) / s_r_closed(p) - 1.0)) <= 5e-14


@pytest.mark.parametrize("N, alpha", [(5, 1.0), (6, -0.5), (12, 3.0), (30, 1.0)])
@pytest.mark.parametrize("M", [1e3, 1e4, 1e5, 1e6, 1e7])
def test_quotient_drop_is_second_order_with_the_lower_edge_law(N, alpha, M):
    """D(eps) = c2 eps^2 + O(eps^4): D(1e-6)/1e-12 is the Richardson c2 = (16 D(eps) - D(2 eps))/(12 eps^2)
    from eps = 0.01 to 1e-8, and toward the lower edge c2 -> rho_1/(4N), with 4N c2/rho_1 about
    1 + 7/M for M from 1e3 to 1e7.  The closed c2 of `kernel_coefficients` matches D(1e-6)/1e-12 to
    1e-8 too (5e-14 measured)."""
    p = validate(N, alpha, _beta_at(N, alpha, M))
    c2 = (16.0 * variation.quotient_drop(p, 0.01) - variation.quotient_drop(p, 0.02)) / 12e-4
    assert abs(variation.quotient_drop(p, 1e-6) / 1e-12 / c2 - 1.0) <= 1e-8
    assert abs(variation.quotient_drop(p, 1e-6) / 1e-12 / kernel_coefficients(p)[0] - 1.0) <= 1e-8
    assert abs(4.0 * N * c2 / mode_eigenvalue(1, p) - 1.0) <= 10.0 / M


def _closed_drop(p, eps):
    """D(eps) from its closed series, in 50-digit arithmetic on p's own doubles mu, M and p*, and
    a1 = E_g/(N E_U): 1 + D = (1 + a1 eps^2) (1 + sum_(j>=1) b_j eps^(2j))^(-2/p*), with E_g/E_U
    the sextic over 4M(M-4)(M-2)^2(M+1)(M+2) and b_j the polar series' term j times
    B(M/2+j, M/2+j)/B(M/2, M/2), summed until a term is below 1e-45 of the sum."""
    with mpmath.workdps(50):
        mu, m, _ = (mpmath.mpf(v) for v in _coupling(1, p))
        n, p_star, x2 = p.N, mpmath.mpf(derive(p).p_star), mpmath.mpf(eps) ** 2
        sextic = (m**6 - 6 * m**5 + 8 * m**4 * mu + 4 * m**4 - 24 * m**3 * mu + 32 * m**3 + 16 * m**2 * mu**2
                  - 32 * m**2 * mu - 32 * m**2 + 32 * m * mu - 32 * m - 16 * mu**2 + 32 * mu + 48)
        a1 = sextic / (4 * m * (m - 4) * (m - 2) ** 2 * (m + 1) * (m + 2)) / n
        term, total, j = mpmath.mpf(1), mpmath.mpf(0), 0
        while j == 0 or abs(term) >= mpmath.mpf(10) ** -45 * abs(total):
            term *= (j - p_star / 2) * (j + (1 - p_star) / 2) / ((j + mpmath.mpf(n) / 2) * (j + 1))
            term *= (m / 2 + j) ** 2 / ((m + 2 * j) * (m + 2 * j + 1)) * x2
            total += term
            j += 1
        return float((1 + a1 * x2) * (1 + total) ** (-2 / p_star) - 1), float(a1)


def test_quotient_drop_matches_its_closed_series_over_the_ledger():
    """Every row of the drop is a Beta moment, so D(eps) has a closed series (`_closed_drop`).  The
    quadrature matches it to 5e-12 relative plus 8 ulps of a1 eps^2 at every ledger point and
    eps in {1e-7, 0.01, 0.3}: D is the difference of two logs of size a1 eps^2, so near the curve,
    where |D| is far below them, the drop's rounding is a few ulps of a1 eps^2 (at most 3.9
    measured).  Off the curve by more than 1e-3 the 5e-12 relative bound holds alone."""
    for N, alpha, beta in _coverage_grid():
        p = validate(N, alpha, beta)
        off_curve = alpha <= 0.0 or abs(beta - beta_fs(N, alpha)) > 1e-3
        for eps in (1e-7, 0.01, 0.3):
            drop = variation.quotient_drop(p, eps)
            closed, a1 = _closed_drop(p, eps)
            floor = 0.0 if off_curve else 8.0 * np.finfo(float).eps * a1 * eps**2
            assert abs(drop - closed) <= 5e-12 * abs(closed) + floor, ((N, alpha, beta), eps, drop, closed)


def _sign(x):
    return (x > 0.0) - (x < 0.0)


@settings(max_examples=1000, deadline=None)
@given(N=st.integers(5, 10**6), x=st.floats(-1.0, 203.0, exclude_min=True), t=st.floats(0.0, 1.0))
@example(N=5, x=3.0, t=0.0004)  # alpha = 1 near the lower edge, M = 7502
@example(N=10**6, x=3.0, t=1.0)  # the upper edge at N = 1e6
def test_c2_has_the_sign_of_certify_factor(N, x, t):
    """alpha = (N-2) x for x <= 0, else 10^(x-3) (up to 1e200); beta at fraction t of the strip.
    The cubic that multiplies factor in c2 is positive on the strip, so c2 takes factor's sign."""
    alpha = (N - 2) * x if x <= 0.0 else 10.0 ** (x - 3.0)
    lo, hi = beta_strip(N, alpha)
    try:
        p = validate(N, alpha, lo + t * (hi - lo))
        factor = certify(p).factor
    except (ParamError, DomainError, AccuracyError, ConditioningError):
        assume(False)
    c2, c4 = kernel_coefficients(p)
    assert _sign(c2) == _sign(factor)
    assert math.isfinite(c4)


@pytest.mark.parametrize("N", [10**60, 10**100, 10**150])
def test_kernel_coefficients_answer_where_the_powers_of_m_overflow(N):
    """M^6 overflows from M ~ 1.7e51: each power of M is divided out, so c2 keeps factor's sign
    and c4' stays finite at M up to 2e100.  At N = 1e150 c4' is about N^-3/8 in size, below the
    smallest normal double at both points: a DomainError, where it once read 0.0."""
    lo, hi = beta_strip(N, 1.0)
    for beta in (lo + 0.5 * (hi - lo), hi):
        p = validate(N, 1.0, beta)
        if N == 10**150:
            with pytest.raises(DomainError, match=r"^kernel coefficients underflow double precision at M="):
                kernel_coefficients(p)
            continue
        mu, m, _ = _coupling(1, p)
        c2, c4 = kernel_coefficients(p)
        assert _sign(c2) == _sign(mu - (m - 1.0))
        assert math.isfinite(c2) and math.isfinite(c4)


def _closed_coefficients(p):
    """(c2, c4') of `kernel_coefficients`' closed form in 400-digit arithmetic on p's own doubles mu, M
    and N, with p* = 2M/(M-4)."""
    with mpmath.workdps(400):
        mu, m, _ = (mpmath.mpf(v) for v in _coupling(1, p))
        n = mpmath.mpf(p.N)
        p_star = 2 * m / (m - 4)
        r = 2 / p_star
        b1 = p_star * (p_star - 1) / (2 * n) * m / (4 * (m + 1))
        b2 = b1 * (2 - p_star) * (3 - p_star) / (4 * (n + 2)) * (m + 2) / (4 * (m + 3))
        cubic = m**3 - 2 * m**2 - 4 * m + 6 + 2 * mu * (m - 1)
        c2 = 2 * (mu - (m - 1)) * cubic / (m * (m - 4) * (m - 2) ** 2 * (m + 2)) / n
        return c2, -r * b2 + r * (1 - r) / 2 * b1**2 - r * b1 * c2


@pytest.mark.parametrize("N", [5, 10**6, 10**20, 10**100])
def test_kernel_coefficients_match_their_closed_form_to_rounding(N):
    """c2 and c4' within 2e-15 relative of the 400-digit closed form, at alpha in {-0.5, 1, 4.5} and
    0.1, 0.5 and 0.9 of the strip (1.3e-15 measured).  p*-1, 2-p*, 3-p*, r and 1-r are taken from M:
    p* = 2M/(M-4) rounds to exactly 2 from M ~ 2^55, where forming them from p* made c4' off by a
    factor of 2 mid-strip, and lost digits below (4.8e-11 relative at (1e6, 1))."""
    for alpha in (-0.5, 1.0, 4.5):
        lo, hi = beta_strip(N, alpha)
        for t in (0.1, 0.5, 0.9):
            p = validate(N, alpha, lo + t * (hi - lo))
            for value, closed in zip(kernel_coefficients(p), _closed_coefficients(p)):
                assert abs(value - closed) <= 2e-15 * abs(closed), (alpha, t, value, closed)


@pytest.mark.parametrize(
    "N, alpha, c4",
    [(5, 1.0, 1.27879e-2), (5, 4.5, 1.04837e-3), (8, 2.0, 8.24038e-4), (5, 1.0, None), (6, -0.5, None),
     (12, 3.0, None), (30, 1.0, None)],
)
def test_c4_is_the_richardson_quartic(N, alpha, c4):
    """c4' matches the Richardson value (D(2 eps) - 4 D(eps))/(12 eps^4) at eps = 0.01 to 1e-3
    relative (3.2e-4 measured): on the curve, where it is pinned to six digits, and at M = 1e3."""
    p = validate(N, alpha, beta_fs(N, alpha) if c4 else _beta_at(N, alpha, 1e3))
    closed = kernel_coefficients(p)[1]
    richardson = (variation.quotient_drop(p, 0.02) - 4.0 * variation.quotient_drop(p, 0.01)) / 12e-8
    assert abs(closed / richardson - 1.0) <= 1e-3
    if c4:
        assert closed == pytest.approx(c4, rel=5e-6)


def test_directional_quotient_rejects_large_eps(p511):
    with pytest.raises(DomainError):
        directional_quotient(p511, 0.7)


def test_quotient_drop_judges_eps_before_any_quadrature(monkeypatch, p511):
    """|eps| < 0.5, with eps^2 0.0 or a normal double: inside, the drop keeps its bits; outside, a
    DomainError naming eps, for directional_quotient too, raised before the rows are integrated (at
    eps = 3 the drop once answered 0.1055 at (5, 1, 1), and at eps = 1e-200 it read 0.0)."""
    assert variation.quotient_drop(p511, 0.0) == 0.0
    hexes = [variation.quotient_drop(p511, eps).hex() for eps in (1e-8, 0.01, 0.49)]
    assert hexes == ["-0x1.3ef9964c29270p-58", "-0x1.22152b46d5517p-18", "-0x1.191c21388f943p-7"]

    def reached(rows):
        raise AssertionError("quotient_drop integrated its rows")

    monkeypatch.setattr(variation, "integrate_rows", reached)
    for eps in (1e-200, -1e-160, 0.5, 2.1, 3.0, math.nan, math.inf):
        for call in (variation.quotient_drop, directional_quotient):
            with pytest.raises(DomainError, match=r"^quotient drop needs \|eps\| < 0.5 with eps\^2 0.0 or a normal"):
                call(p511, eps)


def test_a_non_finite_drop_is_a_domain_error(monkeypatch, p511):
    """An energy of g that integrates to inf makes D inf: a DomainError naming M, not a number."""

    def infinite_energy_g(rows):
        energy_u, energy_g, excess = integrate_rows(rows)
        return energy_u, energy_g._replace(value=math.inf), excess

    monkeypatch.setattr(variation, "integrate_rows", infinite_energy_g)
    with pytest.raises(DomainError, match=r"^directional quotient drop is not finite at M=6\.0$"):
        variation.quotient_drop(p511, 0.01)


def _finite_or_domain_error(call, normal=False):
    """call() answers a finite float, with normal a normal double, or raises DomainError."""
    try:
        value = call()
    except DomainError:
        return
    assert type(value) is float and math.isfinite(value), value
    assert not normal or abs(value) >= sys.float_info.min, value


@settings(max_examples=1000, deadline=None)
@given(N=st.one_of(st.integers(5, 1000), st.integers(5, 2**500)), x=st.floats(-1.0, 303.0, exclude_min=True),
       t=st.floats(0.0, 1.0))
@example(N=10**78, x=0.0, t=1.0)  # gamma_m(M) is inf: the amplitude once read inf, and the Rellich infimum
@example(N=10**70, x=3.0, t=5e-9)  # (1e70, 1, -0.99999999): M = 2e78 near the lower edge
@example(N=2**500, x=3.0, t=0.5)  # M = 4.4e150
@example(N=6, x=303.0, t=0.5)  # q = 4e-300: q^-3 and S_r's scale overflow
@example(N=239, x=-0.99999, t=1.0)  # q = 1e5 at the upper edge: the amplitude once read 5.6e-309, a subnormal
def test_closed_forms_answer_a_finite_double_or_raise_domain_error(N, x, t):
    """alpha = (N-2) x for x <= 0, else 10^(x-3) (up to 1e300); beta at fraction t of the strip.
    Each closed form returns a finite double or raises DomainError: never inf, NaN or a raw
    OverflowError.  The sharp constants S_r and S_0 and the amplitude answer a normal double:
    never a 0.0 or a subnormal made by underflow."""
    alpha = (N - 2) * x if x <= 0.0 else 10.0 ** (x - 3.0)
    try:
        lo, hi = beta_strip(N, alpha)
        p = validate(N, alpha, lo + t * (hi - lo))
    except ParamError:
        assume(False)
    for call in (lambda: s_r_closed(p), lambda: s_0_closed(N), lambda: amplitude_constant(p)):
        _finite_or_domain_error(call, normal=True)
    for call in (
        lambda: rellich_infimum(N, (p.beta - 2.0 * p.alpha) / 2.0)[0],
        lambda: second_variation(p).value,
        lambda: extremal(p).terms[0][0],
    ):
        _finite_or_domain_error(call)


# The reference polar rule the quotient used before its closed form: 64-node Gauss-Legendre in
# theta with the weight sin^(N-2) theta, the power taken over the whole (theta, node) grid.
_GL_THETA_NODES = 64


def _reference_polar_excess(x2, p_star, N):
    """w_t @ ((1 + x cos(theta))^p* - 1) on the 64-node rule, over the exact int_0^pi sin^(N-2).

    The rule is symmetric about theta = pi/2, so only the part even in y = x cos(theta) counts,
    ((1+y)^p* + (1-y)^p*)/2 - 1 = (1-y^2)^(p*/2) cosh(p* atanh(y)) - 1, here to full relative
    precision as y -> 0, where the odd part's rounding would swamp the excess.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_THETA_NODES)
    theta = 0.5 * math.pi * (x + 1.0)
    w_t = 0.5 * math.pi * w * np.sin(theta) ** (N - 2)
    y = np.multiply.outer(np.cos(theta), np.sqrt(x2))
    whole_grid = np.expm1(0.5 * p_star * np.log1p(-y * y) + np.log1p(2.0 * np.sinh(0.5 * p_star * np.arctanh(y)) ** 2))
    return w_t @ whole_grid / (math.sqrt(math.pi) * math.exp(math.lgamma((N - 1) / 2) - math.lgamma(N / 2)))


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(5, 30),
    alpha=st.floats(-1.0, 4.0),
    t=st.floats(0.02, 1.0),
    eps=st.sampled_from([0.0, 1e-8, -1e-8, 0.01, -0.01, 0.3, 0.49]),
)
def test_directional_quotient_matches_the_64_node_polar_rule(N, alpha, t, eps):
    """For N <= 30, where the 64-node rule resolves sin^(N-2) theta, the closed-form polar mean
    gives the quotient of the reference rule to 2e-14."""
    lo, hi = beta_strip(N, alpha)
    p = validate(N, alpha, min(lo + t * (hi - lo), hi))
    got = directional_quotient(p, eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variation, "_polar_excess", _reference_polar_excess)
        want = directional_quotient(p, eps)
    assert abs(got - want) <= 2e-14 * want


def _hyp2f1_excess_oracle(x2, p_star, N):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 - min(0, math.floor(math.log10(x2 or 1.0)))):  # 40 digits past the 1
        return float(mpmath.hyp2f1(-p_star / 2, (1 - mpmath.mpf(p_star)) / 2, mpmath.mpf(N) / 2, x2) - 1)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(5, 1000), p_star=st.floats(2.0, 10.0, exclude_min=True), x=st.floats(-0.25, 0.25))
@example(N=5, p_star=10.0, x=0.25)  # M = N = 5: the series ends after its x^10 term
@example(N=1000, p_star=2.0 + 2.0**-50, x=-0.25)
def test_polar_mean_is_the_hypergeometric_series(N, p_star, x):
    """The mean of (1 + x cos(theta))^p* over S^(N-1) is 2F1(-p*/2, (1-p*)/2; N/2; x^2): its
    excess over 1, the series from j = 1, is within 4 ulps of a 40-digit evaluation of 2F1 - 1,
    for |x| <= 1/4 as in the quotient."""
    x2 = x * x
    (got,) = variation._polar_excess(np.array([x2]), p_star, N)
    want = _hyp2f1_excess_oracle(x2, p_star, N)
    assert abs(got - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("N, p_star", [(5, 10.0), (6, 6.0), (438, 2.0 + 2.0 / 437), (12, 3.7)])
def test_polar_mean_at_x_0_is_exactly_1(N, p_star):
    """The mean's excess over 1 is exactly 0.0 at x = 0."""
    assert variation._polar_excess(np.zeros(3), p_star, N).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "point", [(150, 1.0, 1.000133949726474), (200, 1.0, 1.0000752575227096), (300, 1.0, 1.0000334088918295)]
)
def test_certificate_at_large_n_has_no_witness_conflict(point):
    """On the breaking side near the curve, where the 64-node polar rule put the quotient up to
    2.4e-5 above S_r, the quotient witness reads 0, and the ground state's identity holds."""
    p = validate(*point)
    cert = certify(p)
    assert cert.witness_signs == (-1, 0, -1)
    assert not any("witness signs conflict" in d for d in cert.discrepancies)
    _assert_ground_state_identity(p)


def test_quotient_rises_on_symmetric_side():
    p = validate(5, 1.0, 0.3)
    assert directional_quotient(p, 0.01) > s_r_closed(p)


def test_certificate_at_breaking_point(p511):
    cert = certify(p511)
    assert cert.verdict is Verdict.BREAKING
    assert cert.expected is Verdict.BREAKING
    assert cert.witness_signs == (-1, -1, -1)
    assert cert.discrepancies == ()
    assert cert.eps == DEFAULT_EPS
    assert cert.factor < 0.0
    assert cert.quotient_drop < 0.0
    assert cert.ritz_rho1 < 0.0


def test_certificate_at_symmetric_point():
    cert = certify(validate(5, 1.0, 0.3))
    assert cert.verdict is Verdict.NOT_BREAKING
    assert cert.witness_signs == (1, 1, 1)
    assert cert.discrepancies == ()


@pytest.mark.parametrize("N", [5, 6, 8, 12])
def test_certificate_at_the_classical_point(N):
    """alpha = beta = 0 lies on the curve (beta_FS(N, 0) = 0, mu - (M-1) = 0): Boundary is expected
    and measured, with no discrepancy."""
    cert = certify(validate(N, 0.0, 0.0))
    assert (cert.verdict, cert.expected) == (Verdict.BOUNDARY, Verdict.BOUNDARY)
    assert cert.witness_signs[0] == cert.witness_signs[2] == 0
    assert cert.discrepancies == ()


@pytest.mark.parametrize(
    "point, eps, signs",
    [((5, 1.0, 1.0), 1e-7, (-1, -1, -1)), ((5, 1.0, 1.0), 1e-8, (-1, -1, -1)), ((5, 0.7, 0.3), 1e-7, (1, 1, 1))],
    ids=["5-1-1-eps1e-7", "5-1-1-eps1e-8", "5-0.7-0.3-eps1e-7"],
)
def test_certificate_at_small_eps_has_no_false_conflict(point, eps, signs):
    """Where eps^2 c2 is below the 1e-15 bias between a quadrature quotient and the closed S_r, the
    drop Q(eps)/Q(0) - 1, both on one grid, still reads the side of the curve."""
    cert = certify(validate(*point), eps=eps)
    assert cert.witness_signs == signs
    assert cert.discrepancies == ()


def test_certificate_on_the_curve():
    """On the curve the second-order witnesses vanish; the quotient rises at
    fourth order in eps, just above its second-order dead zone."""
    p = validate(5, 1.0, beta_fs(5, 1.0))
    cert = certify(p)
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.witness_signs == (0, 1, 0)
    assert cert.discrepancies == ()


_SWEEP_POINTS = [
    (N, alpha, beta_fs(N, alpha) + frac * (N * alpha / (N - 2.0) - beta_fs(N, alpha)))
    for N in (5, 6, 8, 12)
    for alpha in (0.5, 1.0, 2.0, 4.0, 8.0)
    for frac in (0.5, 0.95)
]


@pytest.mark.parametrize("point", _SWEEP_POINTS, ids=lambda pt: "N{}-a{}-b{:.4g}".format(*pt))
def test_certificate_breaks_across_the_breaking_region(point):
    """Half and 95 % of the way from the curve to the upper edge, with
    amplitudes up to 2e8 at N = 12, every witness says Breaking."""
    cert = certify(validate(*point))
    assert cert.verdict is Verdict.BREAKING
    assert cert.witness_signs == (-1, -1, -1)
    assert cert.discrepancies == ()


@pytest.mark.parametrize("beta", [-0.5, -0.7, -0.8])
def test_certificate_below_the_curve_deep_in_the_strip(beta):
    cert = certify(validate(5, 1.0, beta))
    assert cert.verdict is Verdict.NOT_BREAKING
    assert cert.witness_signs == (1, 1, 1)
    assert cert.discrepancies == ()


# Points of a 25-step geometric beta grid near the lower strip edge (M from 343 to 785),
# where U's amplitude, or eps^2 times its square, leaves double range
@pytest.mark.parametrize(
    "N, alpha, beta",
    [
        (8, 2.0, 0.020432996530972188),
        (8, 2.0, 0.024755140445934815),
        (8, 2.0, 0.029991537343485287),
        (8, 2.0, 0.0363355770164246),
        (8, 2.0, 0.044021556547627634),
        (12, 1.0, -0.9700231489614497),
        (12, 1.0, -0.9636822158482072),
        (12, 1.0, -0.956),
        (12, 1.0, -0.9466927830203421),
        (12, 1.0, -0.9354168322246289),
    ],
)
def test_certificate_answers_at_large_amplitude(N, alpha, beta):
    cert = certify(validate(N, alpha, beta))
    assert cert.verdict is cert.expected
    assert cert.discrepancies == ()


def test_second_variation_dead_zone_is_its_factor(p511):
    """The second variation is its factor times a positive bracket, so tol bounds the factor."""
    factor = second_variation(p511).factor
    assert factor < 0.0
    assert certify(p511, tol=abs(factor) * (1.0 + 1e-9)).witness_signs[0] == 0
    assert certify(p511, tol=abs(factor) * (1.0 - 1e-9)).witness_signs[0] == -1


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("witness", ["factor", "quotient_drop", "ritz_rho1"])
def test_a_witness_on_its_dead_zone_reads_zero_and_one_double_out_its_sign(monkeypatch, witness, sign):
    """|value| <= zone reads 0, at each witness's own zone: the factor against tol = |factor| (then one
    double less), D against tol * eps^2 and rho_1 against tol, those two patched in as +-zone and the
    next double out."""
    p = validate(5, 1.0, 1.0 if sign < 0 else 0.3)  # factor -1.0, or a positive factor
    if witness == "factor":
        zone = abs(_coupling(1, p)[2])
        edge, out = certify(p, tol=zone), certify(p, tol=math.nextafter(zone, 0.0))
    else:
        zone = DEFAULT_CERT_TOL * DEFAULT_EPS**2 if witness == "quotient_drop" else DEFAULT_CERT_TOL
        ritz = ritz_min_eig(1, p, 16)

        def certify_at(value):
            if witness == "quotient_drop":
                monkeypatch.setattr(variation, "quotient_drop", lambda p, eps: value)
            else:
                monkeypatch.setattr(variation, "ritz_min_eig", lambda k, p, J: ritz._replace(min_eigenvalue=value))
            return certify(p)

        edge, out = certify_at(sign * zone), certify_at(sign * math.nextafter(zone, math.inf))
    index = ("factor", "quotient_drop", "ritz_rho1").index(witness)
    assert getattr(edge, witness) == sign * zone
    assert (edge.witness_signs[index], out.witness_signs[index]) == (0, sign)


def test_certificate_flags_forced_disagreement(p511):
    """A giant dead zone kills every witness; the verdict then contradicts
    the region expectation and must surface as a discrepancy."""
    cert = certify(p511, tol=1e30)
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.discrepancies != ()


def test_certificate_reports_conflicting_witness_signs(monkeypatch, p511):
    """A quotient that rises against two negative witnesses is a conflict:
    Boundary, with both the conflict and the missed expectation reported."""
    monkeypatch.setattr(variation, "quotient_drop", lambda p, eps: eps)
    cert = certify(p511)
    assert cert.witness_signs == (-1, 1, -1)
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.expected is Verdict.BREAKING
    assert cert.discrepancies == (
        "witness signs conflict: second_variation/quotient/ritz = (-1, 1, -1)",
        "measured verdict Boundary != expected Breaking from classification SymmetryBreaking",
    )


def test_certificate_argument_validation(p511):
    with pytest.raises(DomainError):
        certify(p511, eps=0.0)
    with pytest.raises(DomainError):
        certify(p511, tol=-1.0)
    with pytest.raises(DomainError, match="tol"):
        certify(p511, tol=float("nan"))
    with pytest.raises(DomainError):
        certify(p511, eps=float("nan"))
    for eps in (1e-160, -1e-200, 2.0**-511 * (1.0 - 2.0**-53)):  # eps^2 is subnormal or 0.0
        with pytest.raises(DomainError, match="eps"):
            certify(p511, eps=eps)
    assert certify(p511, eps=2.0**-511).witness_signs == (-1, -1, -1)  # eps^2 = 2^-1022, normal


def test_certificate_is_frozen(p511):
    cert = certify(p511)
    with pytest.raises(AttributeError):
        cert.verdict = Verdict.NOT_BREAKING


# The certificate's coverage ledger: certify's outcome by class over a 490-point grid, N in
# {5, 6, 8, 12, 30}, alpha in {-(N-2)/2, -0.5, 0.25, 1, 4}, beta at 15 fractions of the strip
# (lo, hi], at hi itself and, where alpha > 0, at beta_FS +- {1e-8, 1e-6, 1e-4}.  No count may
# get worse than this table: "ok" (no discrepancy) may only rise, the others only fall.
_COVERAGE_LEDGER = {"ok": 422, "discrepancy": 68, "DomainError": 0, "AccuracyError": 0}


def _coverage_grid():
    fractions = [*np.geomspace(1e-6, 0.1, 11).tolist(), 0.3, 0.6, 0.9, 0.999]
    for N in (5, 6, 8, 12, 30):
        for alpha in (-(N - 2) / 2, -0.5, 0.25, 1.0, 4.0):
            lo, hi = beta_strip(N, alpha)
            betas = [lo + d * (hi - lo) for d in fractions] + [hi]
            if alpha > 0.0:
                curve = beta_fs(N, alpha)
                betas += [curve + sign * d for d in (1e-8, 1e-6, 1e-4) for sign in (1.0, -1.0)]
            yield from ((N, alpha, beta) for beta in betas)


def _certify_outcome(point):
    try:
        cert = certify(validate(*point))
    except AccuracyError:
        return "AccuracyError"
    except DomainError:
        return "DomainError"
    return "discrepancy" if cert.discrepancies else "ok"


def test_certify_coverage_is_no_worse_than_the_ledger():
    counts = Counter(_certify_outcome(point) for point in _coverage_grid())
    assert sum(counts.values()) == 490
    worse = {k: (counts[k], v) for k, v in _COVERAGE_LEDGER.items() if (counts[k] < v if k == "ok" else counts[k] > v)}
    assert not worse, f"counts worse than the ledger (now, ledger): {worse}; all counts {dict(counts)}"


def test_certificate_carries_the_numbers_its_witnesses_sign():
    """At every ledger point the certificate's factor is second_variation's, bit for bit, wherever
    that answers, and has the sign of the closed c2; its quotient_drop is D itself, bit for bit."""
    sv_answers = 0
    for point in _coverage_grid():
        p = validate(*point)
        cert = certify(p)
        assert cert.quotient_drop == variation.quotient_drop(p, cert.eps)
        assert _sign(kernel_coefficients(p)[0]) == _sign(cert.factor), point
        try:
            sv = second_variation(p)
        except DomainError:
            continue
        assert cert.factor == sv.factor
        sv_answers += 1
    assert sv_answers == 290  # the other 200 are where the second variation's value underflows


def _first_witness_error(p, eps):
    """The error the first failing witness call raises alone, or None where every one answers."""
    for witness in (lambda: variation.quotient_drop(p, eps), lambda: ritz_min_eig(1, p, 16)):
        try:
            witness()
        except (DomainError, AccuracyError, ConditioningError) as err:
            return err
    return None


@settings(max_examples=200, deadline=None)
@given(N=st.integers(5, 500), x=st.floats(-1.0, 203.0, exclude_min=True), t=st.floats(0.0, 1.0))
@example(N=5, x=3.0, t=0.0004)  # alpha = 1 near the lower edge, M = 7502
@example(N=6, x=203.0, t=0.5)  # alpha = 1e200, where S_r and the second variation overflow
@example(N=438, x=3.0, t=0.75)  # N = 438, where the sphere area is 3e-308
def test_certify_answers_or_raises_what_its_first_failing_witness_raises(N, x, t):
    """alpha = (N-2) x for x <= 0, else 10^(x-3) (up to 1e200); beta at fraction t of the strip,
    with M <= 1e4.  certify reads no second-variation value and no S_r, so it either answers or
    raises the type and message that quotient_drop, then the J = 16 Ritz solve, raises alone."""
    alpha = (N - 2) * x if x <= 0.0 else 10.0 ** (x - 3.0)
    lo, hi = beta_strip(N, alpha)
    try:
        p = validate(N, alpha, lo + t * (hi - lo))
    except ParamError:
        assume(False)
    assume(derive(p).M <= 1e4)
    expected = _first_witness_error(p, DEFAULT_EPS)
    try:
        cert = certify(p)
    except (DomainError, AccuracyError, ConditioningError) as err:
        assert expected is not None, f"certify raised {err!r}, but every witness answers alone"
        assert (type(err), str(err)) == (type(expected), str(expected))
        return
    assert expected is None
    assert all(math.isfinite(v) for v in (cert.factor, cert.quotient_drop, cert.ritz_rho1))
