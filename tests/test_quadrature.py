"""Semi-infinite quadrature: oracles, divergence, norms, log-space weights, inversion."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckn_lab import quadrature as quad
from ckn_lab.identities import (
    BATTERY_PROFILES,
    TestFunction,
    check_divergence_expansion,
    check_laplacian_bound,
    check_pohozaev_identity,
    check_rellich_sobolev,
    rellich_sobolev_extremal,
)
from ckn_lab.params import beta_fs, derive, sphere_area, validate
from ckn_lab.profiles import (
    DEFAULT_RESIDUAL_SAMPLES,
    GaussianProfile,
    PowerPeakProfile,
    _exponents,
    euler_lagrange_residual,
    extremal,
    s_r_closed,
)
from ckn_lab.quadrature import (
    AccuracyError,
    DivergentIntegralError,
    QuadResult,
    integrate_rows,
    integrate_semiinfinite,
    mode_operator,
    power_weighted,
    quotient_radial,
    signed_weighted,
)
from ckn_lab.specfun import DomainError
from ckn_lab.spectral import mode_quadratic_form
from ckn_lab.variation import directional_quotient
from ckn_lab.verify import EXTREMALITY_POINTS


def test_exponential():
    res = integrate_semiinfinite(lambda s: np.exp(-s))
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.nodes > 0


def test_gaussian():
    res = integrate_semiinfinite(lambda s: np.exp(-s * s))
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)


def test_lorentzian():
    res = integrate_semiinfinite(lambda s: 1.0 / (1.0 + s * s))
    assert res.value == pytest.approx(0.5 * math.pi, rel=1e-12)


def test_moment_of_exponential():
    res = integrate_semiinfinite(lambda s: s * s * np.exp(-s))
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_integrable_endpoint_singularity():
    # s^(-1/2) e^(-s) integrates to Gamma(1/2)
    res = integrate_semiinfinite(lambda s: np.exp(-s) / np.sqrt(s))
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_heavy_tail_but_integrable():
    # integral of (1+s)^(-3) = 1/2
    res = integrate_semiinfinite(lambda s: (1.0 + s) ** -3.0)
    assert res.value == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0))
def test_scaling_invariance(lam):
    """integral of f(s/lam) equals lam times the integral of f."""
    base = integrate_semiinfinite(lambda s: np.exp(-s)).value
    scaled = integrate_semiinfinite(lambda s: np.exp(-s / lam)).value
    assert scaled == pytest.approx(lam * base, rel=1e-10)


@pytest.mark.parametrize("scale", [1e-299, 1e-303])
def test_a_tiny_integral_converges_relative_to_itself(scale):
    """The stopping rule is relative down to the smallest normal: an absolute floor of
    1e-300 once stopped the 1e-299 bump 25 % high, after 187 nodes."""

    def bump(s):
        return np.exp(-495 * np.log1p(np.log(s) ** 2))

    unscaled = integrate_semiinfinite(bump).value
    assert integrate_semiinfinite(lambda s: scale * bump(s)).value / scale == pytest.approx(unscaled, rel=1e-10)


def test_divergence_at_infinity_is_screened():
    with pytest.raises(DivergentIntegralError):
        integrate_semiinfinite(lambda s: 1.0 / (1.0 + s))


def test_divergence_at_origin_is_screened():
    with pytest.raises(DivergentIntegralError):
        integrate_semiinfinite(lambda s: np.exp(-s) * s**-1.5)


def _first_call_grid():
    """The abscissae of the first integrand call: the whole level-_FIRST grid."""
    return quad._grid(quad._H0 / 2**quad._FIRST)[0]


@pytest.mark.parametrize(
    "f, side",
    [(lambda s: 1.0 / (1.0 + s), "infinity"), (lambda s: np.exp(-s) * s**-1.5, "0")],
    ids=["infinity", "origin"],
)
def test_divergence_is_judged_in_the_first_call_and_names_its_side(f, side):
    calls = []

    def spy(s):
        calls.append(s.size)
        return f(s)

    with np.errstate(all="ignore"), pytest.raises(DivergentIntegralError) as err:
        integrate_semiinfinite(spy)
    assert calls == [_first_call_grid().size]
    level_0_end = quad._grid(quad._H0)[0][-1 if side == "infinity" else 0]
    assert str(err.value) == f"integrand does not decay toward {side}: its terms grow up to s={level_0_end:.6e}"


# Nonintegrable integrands with a NaN at abscissae where endpoint probes once
# sat, which let two of them through; the tail rule judges each divergent.
@pytest.mark.parametrize(
    "f, side",
    [
        (lambda s: np.where(s == 1e-7, np.nan, s**-2.0 / (1.0 + s) ** 2), "0"),
        (lambda s: np.where(s == 1e-6, np.nan, s**-2.0 / (1.0 + s) ** 2), "0"),
        (lambda s: np.where(s == 1e6, np.nan, 1.0 / np.sqrt(1.0 + s)), "infinity"),
        (lambda s: np.where(s == 1e7, np.nan, 1.0 / np.sqrt(1.0 + s)), "infinity"),
    ],
    ids=["origin_first_probe", "origin_second_probe", "infinity_first_probe", "infinity_second_probe"],
)
def test_a_nan_probe_is_screened(f, side):
    with np.errstate(all="ignore"), pytest.raises(DivergentIntegralError) as err:
        integrate_semiinfinite(f)
    assert str(err.value).startswith(f"integrand does not decay toward {side}: ")


def test_error_estimate_is_honest():
    res = integrate_semiinfinite(lambda s: np.exp(-s) * np.cos(s))
    assert abs(res.value - 0.5) <= max(10.0 * res.abs_error_estimate, 1e-12)


def test_default_tolerance_setter_changes_node_count():
    baseline = integrate_semiinfinite(lambda s: np.exp(-s)).nodes
    coarse = integrate_semiinfinite(lambda s: np.exp(-s), tol=1e-5).nodes
    assert coarse < baseline


def test_power_weighted_extreme_magnitudes():
    s = np.array([1e-4, 1e4])
    vals = np.array([1e-180, 1e-180])
    # plain multiplication would underflow to 0 at the first node:
    # 1e-360 * s^w; log-space recombination keeps the true product
    out = power_weighted(vals, s, 2.0, -80.0)
    assert out[0] == pytest.approx(1e-40, rel=1e-10)  # 1e-360 * (1e-4)^-80
    assert out[1] == 0.0  # 1e-360 * (1e4)^-80 underflows for real


def test_signed_weighted_preserves_sign():
    s = np.array([0.5, 1.0, 2.0])
    vals = np.array([-3.0, 0.0, 2.0])
    out = signed_weighted(vals, s, 2.0)
    assert out[0] == pytest.approx(-0.75, rel=1e-14)
    assert out[1] == 0.0
    assert out[2] == pytest.approx(8.0, rel=1e-14)


def constant_profile(c: float) -> PowerPeakProfile:
    return PowerPeakProfile([(c, 0, 0)], sigma=2, nu=1.0)


def _energy(jet, r, p):
    """The integrand of ||u||^2 / omega, from u's jet at r."""
    return power_weighted(mode_operator(jet, r, p.N - 1.0 + p.alpha, 0.0), r, 2.0, p.N + 2.0 * p.alpha - p.beta - 1.0)


def test_norm_sq_vanishes_on_constants(p511):
    u = constant_profile(3.0)
    (energy,) = integrate_rows(lambda r: (_energy(u.jet(r, 2), r, p511),))
    assert sphere_area(p511.N) * energy.value == pytest.approx(0.0, abs=1e-12)


def test_extremal_norms_against_closed_forms(p511):
    """The ground state's two norms are powers of the sharp constant."""
    u, d = extremal(p511), derive(p511)

    def rows(r):
        jet = u.jet(r, 2)
        return _energy(jet, r, p511), power_weighted(jet[0], r, d.p_star, p511.beta + p511.N - 1.0)

    norm_sq, star = (sphere_area(p511.N) * res.value for res in integrate_rows(rows))
    norm_star = star ** (1.0 / d.p_star)
    s_r = s_r_closed(p511)
    d_exp = 6.0 / (6.0 - 2.0)  # p*/(p*-2) at this triple
    assert norm_sq == pytest.approx(s_r**d_exp, rel=1e-9)
    assert norm_star == pytest.approx(s_r ** (1.0 / 4.0), rel=1e-9)
    assert norm_sq == pytest.approx(3300.760882626019, rel=1e-9)
    assert norm_star == pytest.approx(3.858652574458166, rel=1e-9)


def test_quotient_is_scale_invariant(p511):
    """The largest gap seen is 6.8e-15 (4.9e-15 on a grid fixed at r = 1)."""
    q_u = quotient_radial(extremal(p511), p511)
    for lam in (2.0, 2.0**20, 2.0**-20, 1e7, 1e-7):
        assert quotient_radial(extremal(p511, lam), p511) == pytest.approx(q_u, rel=1e-12)
    assert q_u == pytest.approx(s_r_closed(p511), rel=1e-10)


def test_a_scaled_extremal_costs_what_lam_one_costs(monkeypatch):
    """The grid is centred on the power of two nearest the profile's radius 1/lam, so at every
    extremality point a scaled extremal takes the one integrand call of lam = 1, and over the
    ten points it sums at most 1.5x their terms (1.45x at lam = 1e-8).  One point alone may
    take one more level inside that call, 2x its terms, as 10^+-8 sits up to half an octave
    off a power of two.  On a grid fixed at r = 1, lam = 1e+-8 took three or four calls and
    about twenty times the terms."""
    cost = []

    def spy(f, *args, **kwargs):
        calls = []
        results = integrate_rows(lambda s: calls.append(s.size) or f(s), *args, **kwargs)
        cost.append((len(calls), sum(res.nodes for res in results)))
        return results

    monkeypatch.setattr(quad, "integrate_rows", spy)
    nodes = {}
    for lam in (1.0, 1e-8, 1e-4, 1e4, 1e8):
        cost.clear()
        for point in EXTREMALITY_POINTS:
            p = validate(*point)
            quotient_radial(extremal(p, lam), p)
        assert [calls for calls, _ in cost] == [1] * len(EXTREMALITY_POINTS)
        nodes[lam] = sum(n for _, n in cost)
    for lam in (1e-8, 1e-4, 1e4, 1e8):
        assert nodes[lam] <= 1.5 * nodes[1.0]


_LEDGER_POINTS = EXTREMALITY_POINTS + ((5, 1.0, -0.99), (6, 0.1, -1.89))
_LEDGER_LOG_LAM = range(-40, 41, 2)
# The (point, log10 lam) cells that a grid fixed at r = 1 refused: 32 DomainErrors and 16
# DivergentIntegralErrors on integrals that converge, the latter at log10 lam >= 26.
_REFUSED_ON_A_FIXED_GRID = {
    (5, 1.0, -0.99): (*range(-40, -33, 2), *range(6, 41, 2)),
    (6, 0.1, -1.89): (*range(-40, -27, 2), *range(4, 41, 2)),
}


def test_the_scaled_quotient_ledger():
    """quotient_radial(extremal(p, lam), p) over 12 points and log10 lam in -40..40.

    Every answer is S_r to 1e-10, and every cell a fixed grid answered still answers.  The 36
    DomainErrors left are of two kinds, both outside the quadrature: `extremal` refuses a
    lam that puts nu or its coefficient outside double range (10 cells), and at the two
    sigma = 0.01 points the jet's u'' overflows to inf near the origin for log10 lam >= 16
    or 18 although its weighted square is tiny there (26 cells).  Past |k| = 156, e.g. at
    (8, -2, -8/3) with lam = 1e100, the shift is capped and a DivergentIntegralError returns."""
    outcomes, answered = {}, set()
    for point in _LEDGER_POINTS:
        p = validate(*point)
        for log_lam in _LEDGER_LOG_LAM:
            try:
                q = quotient_radial(extremal(p, 10.0**log_lam), p)
            except (DomainError, AccuracyError) as err:
                name = type(err).__name__
            else:
                name = "ok"
                answered.add((point, log_lam))
                assert q == pytest.approx(s_r_closed(p), rel=1e-10)
            outcomes[name] = outcomes.get(name, 0) + 1
    refused = {(point, log_lam) for point, logs in _REFUSED_ON_A_FIXED_GRID.items() for log_lam in logs}
    grid = {(point, log_lam) for point in _LEDGER_POINTS for log_lam in _LEDGER_LOG_LAM}
    assert grid - refused <= answered
    assert outcomes == {"ok": 456, "DomainError": 36}


def test_past_the_shift_bound_a_divergence_is_still_reported():
    p = validate(8, -2.0, -8.0 / 3.0)
    with pytest.raises(DivergentIntegralError, match="toward 0"):
        quotient_radial(extremal(p, 1e100), p)


def test_non_extremal_profile_sits_strictly_above(p511):
    from ckn_lab.profiles import PowerPeakProfile

    bump = PowerPeakProfile([(1.0, 0, -3.0)], sigma=2, nu=1.0)
    assert quotient_radial(bump, p511) > s_r_closed(p511) * (1.0 + 1e-6)


_LOG_LAM = st.floats(min_value=-12.0, max_value=12.0)


@settings(max_examples=100, deadline=None)
@given(point=st.sampled_from(EXTREMALITY_POINTS), log_lam=_LOG_LAM)
@example(point=(5, 1.0, 1.0), log_lam=-7.0)  # once judged divergent near infinity by endpoint probes
@example(point=(5, 1.0, 1.0), log_lam=7.0)  # and near 0
@example(point=(8, -2.0, -8.0 / 3.0), log_lam=-12.0)
@example(point=(8, -2.0, -8.0 / 3.0), log_lam=12.0)
def test_every_scaled_extremal_attains_the_sharp_constant(point, log_lam):
    p = validate(*point)
    assert quotient_radial(extremal(p, 10.0**log_lam), p) == pytest.approx(s_r_closed(p), rel=1e-10)


def kelvin(u, kappa):
    """K u(r) = r^-kappa u(1/r) of a power-peak profile, term by term:
    c r^p (nu + r^sigma)^e goes to c nu^e r^(-kappa-p-sigma*e) (1/nu + r^sigma)^e."""
    kappa = Fraction(kappa)
    terms = [(c * u.nu ** float(e), -kappa - p - u.sigma_frac * e, e) for c, p, e in u.terms]
    return PowerPeakProfile(terms, u.sigma_frac, 1.0 / u.nu)


def _outcome_or_error(compute):
    try:
        return compute()
    except (DomainError, AccuracyError) as err:
        return type(err)


def _assert_same_outcome(compute, compute_inverted):
    """Both sides agree to 1e-12 relative, or raise the same typed error."""
    plain, inverted = _outcome_or_error(compute), _outcome_or_error(compute_inverted)
    if isinstance(plain, type) or isinstance(inverted, type):
        assert plain is inverted
    else:
        assert inverted == pytest.approx(plain, rel=1e-12)


def _assert_kelvin_invariant(compute, u, kappa):
    _assert_same_outcome(lambda: compute(u), lambda: compute(kelvin(u, kappa)))


@settings(max_examples=100, deadline=None)
@given(point=st.sampled_from(EXTREMALITY_POINTS), log_lam=_LOG_LAM)
@example(point=(5, 1.0, 1.0), log_lam=7.0)
@example(point=(5, 1.0, 1.0), log_lam=12.0)
def test_the_quotient_is_invariant_under_inversion(point, log_lam):
    """kappa = N-4+2*alpha-beta; K maps extremal(p, lam) to extremal(p, 1/lam)."""
    p = validate(*point)
    _assert_kelvin_invariant(lambda u: quotient_radial(u, p), extremal(p, 10.0**log_lam), Fraction(*_exponents(p)[1:]))


@pytest.mark.parametrize("c", [1.1, -2.0])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("point", EXTREMALITY_POINTS)
def test_the_euler_lagrange_residual_is_invariant_under_inversion(point, lam, c):
    """K maps c extremal(p, lam) to c extremal(p, 1/lam), and the equation is covariant under K, so
    the relative defect of these non-solutions at r is the image's at 1/r (worst seen 7.2e-14)."""
    p = validate(*point)
    u = extremal(p, lam).scaled(c)
    image = kelvin(u, Fraction(*_exponents(p)[1:]))
    for r in DEFAULT_RESIDUAL_SAMPLES[::3]:
        _assert_same_outcome(
            lambda: euler_lagrange_residual(u, p, [r]), lambda: euler_lagrange_residual(image, p, [1.0 / r])
        )


def _two_term_profiles(m, k):
    """Two mode-k profiles in s that are no eigenfunction: one with nu = 1 decaying like
    s^(k-m+2), one with nu = 2 decaying like s^(4-m-k)."""
    return (
        PowerPeakProfile([(1.0, k, -(m - 2.0) / 2.0), (0.5, k + 2, -m / 2.0)], sigma=2, nu=1.0),
        PowerPeakProfile([(1.0, k, -(m - 4.0) / 2.0 - k), (-0.3, k + 1, -(m - 3.0) / 2.0 - k)], sigma=2, nu=2.0),
    )


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("point", [(5, 1.0, 1.0), (5, 4.5, 3.5), (6, 2.0, 2.5), (7, 2.0, 1.3), (8, -2.0, -8.0 / 3.0)])
def test_the_mode_forms_are_invariant_under_inversion(point, k, which):
    """In s the inversion is the Kelvin transform s^-(M-4) X(1/s).

    At (5, 1, 1), k = 3, the first profile decays like s^-1, so the form diverges like log s at
    infinity.  The lead row carries s^2 X'' + (M-1) s X' - lam X with s^-4 in its log-space weight,
    so its terms keep growing past s ~ 1e103, where X'' alone underflows, and both sides raise
    DivergentIntegralError."""
    p = validate(*point)
    m = derive(p).M
    _assert_kelvin_invariant(lambda x: mode_quadratic_form(x, k, p), _two_term_profiles(m, k)[which], m - 4.0)


def _cube_with_overflowing_tail(s):
    # inf beyond 1e15, where the terms are already negligible
    return np.where(s > 1e15, np.inf, (1.0 + s) ** -3.0)


# Pinned bit for bit: reusing each node's value at every finer level must
# give exactly the sums of evaluating every level afresh.
@pytest.mark.parametrize(
    "f, expected",
    [
        (lambda s: np.exp(-s), "QuadResult(value=1.0, abs_error_estimate=1.842581642819141e-11, nodes=228)"),
        (
            lambda s: np.exp(-s) / np.sqrt(s),
            "QuadResult(value=1.772453850905516, abs_error_estimate=1.9308554755070872e-11, nodes=249)",
        ),
        (lambda s: (1.0 + s) ** -3.0, "QuadResult(value=0.5, abs_error_estimate=5.551115123125783e-16, nodes=141)"),
        (
            lambda s: np.exp(-s) * np.cos(s),
            "QuadResult(value=0.5, abs_error_estimate=0.0, nodes=894)",
        ),
        (_cube_with_overflowing_tail, "QuadResult(value=0.5, abs_error_estimate=5.551115123125783e-16, nodes=133)"),
    ],
    ids=["exp", "exp_over_sqrt", "cube", "exp_cos", "overflowing_tail"],
)
def test_result_is_pinned(f, expected):
    assert repr(integrate_semiinfinite(f)) == expected


def test_a_scalar_integrand_is_broadcast():
    """An integrand constant in s may return a scalar; it is spread over the nodes."""
    assert repr(integrate_semiinfinite(lambda s: 0.0)) == (
        "QuadResult(value=0.0, abs_error_estimate=0.0, nodes=199)"
    )


def test_extremal_quotient_is_pinned(p511):
    assert repr(quotient_radial(extremal(p511), p511)) == "221.6882674197927"


# Bit pins from before the grid followed the profile's radius: at nu = 1 (and for a Gaussian)
# the shift 2^k is 2^0, so none of these may move.
EXTREMAL_QUOTIENT_HEX = {
    (5, 0.0, 0.0): "0x1.998878d532ea6p+6",
    (5, 1.0, 1.0): "0x1.bb60649655d2fp+7",
    (5, 1.0, 0.3): "0x1.145373edec0f5p+7",
    (5, 1.0, 5.0 / 3.0): "0x1.010f209bede2cp+8",
    (5, -1.0, -5.0 / 3.0): "0x1.bf90dd160fc81p+4",
    (5, -1.0, -1.7): "0x1.bba01accb4449p+4",
    (6, 1.0, 0.5): "0x1.2a2f12175bca3p+8",
    (6, 2.0, 2.5): "0x1.95015c26dad07p+9",
    (7, 2.0, 1.3): "0x1.3252f4497f5adp+9",
    (8, -2.0, -8.0 / 3.0): "0x1.3c5a5c6e393afp+7",
}


@pytest.mark.parametrize("point", EXTREMALITY_POINTS)
def test_every_unscaled_extremal_quotient_is_pinned(point):
    p = validate(*point)
    assert quotient_radial(extremal(p), p).hex() == EXTREMAL_QUOTIENT_HEX[point]


@pytest.mark.parametrize(
    "profile, expected",
    [
        (PowerPeakProfile([(1.0, 0, -3.0)], sigma=2, nu=1.0), "0x1.0287aef95d8a7p+8"),
        (GaussianProfile([(1.0, 0.0)]), "0x1.3e8744dbddb86p+8"),
    ],
    ids=["bump", "gaussian"],
)
def test_radius_one_quotients_are_pinned(p511, profile, expected):
    assert quotient_radial(profile, p511).hex() == expected


def _mode1_on_curve():
    p = validate(5, 1.0, beta_fs(5, 1.0))
    m = derive(p).M
    return mode_quadratic_form(PowerPeakProfile([(1.0, 1, -(m - 2.0) / 2.0)], sigma=2, nu=1.0), 1, p)


def _battery_test_function(index, mode):
    return TestFunction(BATTERY_PROFILES[index][1], mode)


# Pinned bit for bit: values whose integrands go through the mode-k operator
# r^-a div(r^a grad(f Y_k)) -> f'' + drift f'/r - lam f/r^2 (the mode form
# takes it times s^2, with s^-4 in the weight).
@pytest.mark.parametrize(
    "compute, expected",
    [
        (_mode1_on_curve, "-4.440892098500626e-15"),
        (
            lambda: check_laplacian_bound(_battery_test_function(1, 1), validate(6, 1.0, 0.5)),
            "(0.7197035745422843, 2.6530612244897958, True)",
        ),
        (
            lambda: check_divergence_expansion(_battery_test_function(0, 1), validate(6, 1.0, 0.5)),
            "0.0",
        ),
        (lambda: check_pohozaev_identity(_battery_test_function(1, 1), 5), "6.185922115514988e-17"),
        (
            lambda: check_rellich_sobolev(rellich_sobolev_extremal(5, 1.0 / 3.0), 5, 1.0 / 3.0),
            "(30.144991216958154, 30.144991216958193, True)",
        ),
        (lambda: directional_quotient(validate(5, 1.0, 1.0), 0.01), "221.68730915697185"),
    ],
    ids=["mode_form_on_curve", "laplacian_bound", "divergence_expansion", "pohozaev", "rellich_sobolev", "directional_quotient"],
)
def test_mode_operator_values_are_pinned(compute, expected):
    assert repr(compute()) == expected


# Pinned as hex: the three rows of the quotient drop are summed on the radial rule's
# call schedule, 453 abscissae in the first call and a level's odd nodes in each
# later one, and the polar excess is a series summed to an ulp at each node.
# Points above and below beta_FS of each (N, alpha).
@pytest.mark.parametrize(
    "N, alpha, beta, eps, expected",
    [
        (6, 1.0, 0.4082039324993694, 0.01, "0x1.14d7bcee9842bp+8"),
        (6, 1.0, 0.4082039324993694, 0.003, "0x1.14d79ea0ec742p+8"),
        (6, 1.0, 1.0082039324993695, 0.01, "0x1.a1ca4638be6d8p+8"),
        (6, 1.0, 1.0082039324993695, 0.003, "0x1.a1ca7974d6b6fp+8"),
        (8, 1.0, 0.4749643873921226, 0.01, "0x1.592b902cf1a34p+9"),
        (8, 1.0, 0.4749643873921226, 0.003, "0x1.592b7ed213536p+9"),
        (8, 1.0, 1.0749643873921226, 0.01, "0x1.ee8055ae75b35p+9"),
        (8, 1.0, 1.0749643873921226, 0.003, "0x1.ee807038f2d8cp+9"),
        (12, 2.0, 1.4113092008020878, 0.01, "0x1.53d231f4b72fdp+11"),
        (12, 2.0, 1.4113092008020878, 0.003, "0x1.53d22c7c49706p+11"),
        (12, 2.0, 2.0113092008020876, 0.01, "0x1.a14f4cd2d8930p+11"),
        (12, 2.0, 2.0113092008020876, 0.003, "0x1.a14f53be96568p+11"),
    ],
)
def test_directional_quotient_is_pinned_across_batch_widths(N, alpha, beta, eps, expected):
    assert abs(beta - beta_fs(N, alpha)) == pytest.approx(0.3)
    assert directional_quotient(validate(N, alpha, beta), eps).hex() == expected


def test_accuracy_error_result_is_pinned():
    with pytest.raises(AccuracyError) as err:
        integrate_semiinfinite(lambda s: 1.0 / (1.0 + s * s), tol=1e-14, node_cap=32)
    assert repr(err.value.result) == (
        "QuadResult(value=1.5707963267948968, abs_error_estimate=3.347953425603123e-08, nodes=68)"
    )


def test_significant_nan_names_its_abscissa():
    def f(s):
        return np.where(np.abs(s - 2.0) < 0.25, np.nan, np.exp(-s))

    with pytest.raises(DomainError) as err:
        integrate_semiinfinite(f)
    assert type(err.value) is DomainError
    assert str(err.value) == "integrand produced a non-finite value at s=1.947394e+00"


def test_level_sum_past_double_range_is_a_domain_error():
    # Kahan's running total overflowed here and its correction turned it into nan.
    with pytest.raises(DomainError) as err:
        _level_sum(_level_0_vals([1.57] + [6e307] * 4), quad._H0)
    assert type(err.value) is DomainError
    assert str(err.value) == "level sum at step h=0.5 exceeds double range"


def test_integral_past_double_range_raises_in_the_first_call():
    # The exact integral, 5e306 * sqrt(8 pi) * e^2 ~ 1.9e308, exceeds double range;
    # a nan level sum once ran this to the node cap and an AccuracyError.
    calls = []

    def f(s):
        calls.append(s.size)
        return 5e306 * np.exp(-np.log(s) ** 2 / 8)

    with pytest.raises(DomainError) as err:
        integrate_semiinfinite(f)
    assert type(err.value) is DomainError
    assert str(err.value) == "level sum at step h=0.5 exceeds double range"
    assert len(calls) == 1


def _odd_nodes(level):
    """The abscissae a level adds to the one before: its nodes with odd k."""
    s, _ = quad._grid(quad._H0 / 2**level)
    return s[1 - s.size // 2 % 2 :: 2]


def test_each_abscissa_reaches_the_integrand_once():
    batches = []

    def spy(s):
        assert s.flags.writeable  # a copy, not the shared read-only grid
        batches.append(np.array(s))
        return np.exp(-s)

    integrate_semiinfinite(spy)
    # one call for the whole level-4 grid, where it converges
    assert len(batches) == 1
    assert np.array_equal(batches[0], _first_call_grid())
    seen = np.concatenate(batches)
    assert np.unique(seen).size == seen.size


def test_a_finer_level_evaluates_exactly_its_odd_nodes():
    batches = []

    def spy(s):
        batches.append(np.array(s))
        return np.exp(-s) * np.cos(s)

    integrate_semiinfinite(spy)
    # levels 0-4, then level 5's odd nodes over the whole node range
    assert len(batches) == 2
    assert np.array_equal(batches[0], _first_call_grid())
    assert np.array_equal(batches[1], _odd_nodes(5))
    seen = np.concatenate(batches)
    assert np.unique(seen).size == seen.size


def _vectorized(f):
    """f with its result as a float array of the abscissae's shape."""

    def wrapped(s):
        arr = np.asarray(f(s), dtype=float)
        return arr if arr.shape == s.shape else np.broadcast_to(arr, s.shape).astype(float)

    return wrapped


def _level_sum(vals, h):
    """Truncated trapezoid sum and term count of one level from its whole grid,
    walked under the errstate the integrator walks its levels in."""
    with np.errstate(all="ignore"):
        total, n_neg, n_pos = quad._walk(vals, h)
    return total, n_neg + n_pos + 1


def _refine_full(fv, coarse, h):
    """Values on the step-h grid from those at step 2h, every odd node evaluated."""
    s, _ = quad._grid(h)
    old = (s.size // 2) % 2
    vals = np.empty(s.size)
    vals[old::2] = coarse
    with np.errstate(all="ignore"):
        vals[1 - old :: 2] = fv(s[1 - old :: 2].copy())
    return vals


def _integrate_by_full_levels(f, tol=quad.DEFAULT_TOL, *, node_cap=quad.NODE_CAP):
    """The integrator as it once ran: every finer level evaluates its new odd
    nodes over the whole node range, and the tail rule then walks them."""
    fv = _vectorized(f)
    fine, _ = quad._grid(quad._H0 / 4)
    with np.errstate(all="ignore"):
        vals = fv(fine.copy())
    total_nodes, prev, best_err, h, level = 0, None, math.inf, quad._H0, 0
    while True:
        if level > 2:
            vals = _refine_full(fv, vals, h)
        stride = 1 << max(2 - level, 0)
        mid = vals.size // 2
        half = stride * math.floor(quad._X_CUT / h)
        value, n = _level_sum(vals[mid - half : mid + half + 1 : stride], h)
        total_nodes += n
        if prev is not None:
            best_err = abs(value - prev)
            if level >= 2 and best_err <= tol * max(abs(value), sys.float_info.min):
                return QuadResult(value=value, abs_error_estimate=best_err, nodes=total_nodes)
        if total_nodes >= node_cap:
            result = QuadResult(value=value, abs_error_estimate=best_err, nodes=total_nodes)
            raise AccuracyError(
                f"no convergence to tol={tol:g} within {node_cap} nodes (best error estimate {best_err:g})",
                result,
            )
        prev = value
        h *= 0.5
        level += 1


def _integral_outcome(integrate, f, tol, node_cap):
    try:
        return repr(integrate(f, tol, node_cap=node_cap))
    except AccuracyError as err:
        return "AccuracyError", str(err), repr(err.result)
    except DomainError as err:
        return type(err).__name__, str(err)


_LEVEL_2_ABSCISSAE = quad._grid(quad._H0 / 4)[0]


def _quiet_on_level_2(s):
    """exp(-s) on the level-2 nodes, a loud slow tail between them."""
    return np.where(np.isin(s, _LEVEL_2_ABSCISSAE), np.exp(-s), 1e-3 * np.exp(-s / 1e3))


def _nan_near_two(s):
    return np.where(np.abs(s - 2.0) < 0.25, np.nan, np.exp(-s))


def _nans_on_both_sides(s):
    """exp(-s) on the level-2 nodes but NaN below 1e-80, past their tail cut;
    off them a slow s^-0.9 tail towards 0 that reaches past that cut, and NaN
    at s in (2, 5), inside it.  The error must name the negative side's NaN,
    as the whole grid does, not the one the positive side meets first."""
    with np.errstate(all="ignore"):
        on = np.where(s < 1e-80, np.nan, np.exp(-s))
        off = np.where((s > 2.0) & (s < 5.0), np.nan, np.exp(-s) * s**-0.9)
    return np.where(np.isin(s, _LEVEL_2_ABSCISSAE), on, off)


@st.composite
def _integrands(draw):
    """(f, tol, node_cap): power laws, exponentials and oscillations with random
    exponents, some louder off the level-2 nodes, some with a NaN or overflowing
    end, under small and default budgets."""
    family = draw(st.sampled_from(["power", "exp", "oscillatory"]))
    a = draw(st.floats(min_value=-0.95, max_value=4.0))
    b = a + draw(st.floats(min_value=1.05, max_value=8.0))
    if draw(st.integers(0, 9)) == 0:  # now and then a nonintegrable end
        a, b = draw(st.sampled_from([(a - 1.0, b), (a, b - 1.0)]))
    if family == "power":

        def base(s):
            return s**a / (1.0 + s) ** b

    else:
        c = 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
        omega = draw(st.floats(min_value=0.0, max_value=12.0)) if family == "oscillatory" else 0.0
        phase = draw(st.floats(min_value=0.0, max_value=3.2))

        def base(s):
            return s**a * np.exp(-c * s) * np.cos(omega * s + phase)

    f = base
    if draw(st.booleans()):  # louder between the level-2 nodes: finer levels see another tail
        loud, stretch = 10.0 ** draw(st.floats(min_value=-4.0, max_value=0.0)), draw(st.floats(1.0, 1e3))

        def f(s):
            return np.where(np.isin(s, _LEVEL_2_ABSCISSAE), base(s), loud * base(s / stretch))

    split = f
    tail = draw(st.sampled_from([None, None, None, math.nan, math.inf, -math.inf]))
    if tail is not None:
        cut = 10.0 ** draw(st.floats(min_value=-30.0, max_value=30.0))
        above = draw(st.booleans())

        def f(s):
            return np.where(s > cut if above else s < cut, tail, split(s))

    node_cap = draw(st.sampled_from([8, 40, 120, 400, 1500, quad.NODE_CAP, quad.NODE_CAP]))
    tol = draw(st.sampled_from([1e-6, quad.DEFAULT_TOL, 1e-14]))
    return f, tol, node_cap


# Levels read from the first call's grid must give every result and error of
# the full levels evaluated one call each, bit for bit and word for word.
@settings(max_examples=300, deadline=None)
@given(_integrands())
@example((_quiet_on_level_2, quad.DEFAULT_TOL, quad.NODE_CAP))
@example((_nan_near_two, quad.DEFAULT_TOL, quad.NODE_CAP))
@example((_nans_on_both_sides, quad.DEFAULT_TOL, quad.NODE_CAP))
@example((_cube_with_overflowing_tail, quad.DEFAULT_TOL, quad.NODE_CAP))
@example((lambda s: 1.0 / (1.0 + s * s), 1e-14, 32))
def test_levels_match_the_full_levels(case):
    expected = _integral_outcome(_integrate_by_full_levels, *case)
    assert _integral_outcome(integrate_semiinfinite, *case) == expected


def _rows_outcome(run):
    try:
        return run()
    except AccuracyError as err:
        return "AccuracyError", str(err), repr(err.result)
    except DomainError as err:
        return type(err).__name__, str(err)


def _exp(s):
    return np.exp(-s)


def _exp_cos(s):
    return np.exp(-s) * np.cos(s)


# Rows integrated together must give what integrating them one by one in
# order gives, bit for bit and word for word, with fewer integrand calls.
@settings(max_examples=200, deadline=None)
@given(
    st.lists(_integrands(), min_size=1, max_size=4),
    st.sampled_from([1e-6, quad.DEFAULT_TOL, 1e-14]),
    st.sampled_from([8, 40, 120, 400, 1500, quad.NODE_CAP]),
)
@example([(_exp, None, None), (_quiet_on_level_2, None, None)], quad.DEFAULT_TOL, quad.NODE_CAP)  # a row lags
@example([(_exp, None, None), (_nan_near_two, None, None)], quad.DEFAULT_TOL, quad.NODE_CAP)
@example([(_nan_near_two, None, None), (lambda s: 1.0 / (1.0 + s), None, None)], quad.DEFAULT_TOL, quad.NODE_CAP)
@example([(lambda s: 1.0 / (1.0 + s * s), None, None), (_nan_near_two, None, None)], 1e-14, 32)
@example([(_cube_with_overflowing_tail, None, None), (_nans_on_both_sides, None, None), (_exp, None, None)],
         quad.DEFAULT_TOL, quad.NODE_CAP)
@example([(_exp_cos, None, None), (_exp, None, None)], quad.DEFAULT_TOL, quad.NODE_CAP)  # reads a finer grid
def test_rows_integrate_as_they_do_one_by_one(cases, tol, node_cap):
    fs = [f for f, _, _ in cases]
    alone, calls_alone = [], []
    for f in fs:  # the sequence stops at its first error
        calls = []

        def counted(s, f=f, calls=calls):
            calls.append(s.size)
            return f(s)

        alone.append(_rows_outcome(lambda: repr(integrate_semiinfinite(counted, tol, node_cap=node_cap))))
        calls_alone.append(len(calls))
        if not isinstance(alone[-1], str):
            break
    batches = []

    def rows(s):
        batches.append(np.array(s))
        return [f(s) for f in fs]

    outcome = _rows_outcome(lambda: tuple(repr(res) for res in integrate_rows(rows, tol, node_cap=node_cap)))
    assert outcome == (tuple(alone) if isinstance(alone[-1], str) else alone[-1])
    seen = np.concatenate(batches)
    assert np.unique(seen).size == seen.size  # each abscissa at most once
    assert len(batches) <= max(calls_alone)  # no more calls than the most demanding row alone


def test_a_scalar_row_is_broadcast():
    assert integrate_rows(lambda s: (0.0, np.exp(-s))) == (
        integrate_semiinfinite(lambda s: 0.0),
        integrate_semiinfinite(lambda s: np.exp(-s)),
    )


def test_a_loud_tail_off_the_level_2_nodes_evaluates_each_finer_level_once():
    """Loud nodes between those of level 2 keep the integral from converging;
    the outcome is the full levels' AccuracyError, reached on the same
    abscissae, each evaluated once, in two fewer calls."""
    batches, full_batches = [], []

    def spy(s):
        batches.append(np.array(s))
        return _quiet_on_level_2(s)

    def full_spy(s):
        full_batches.append(np.array(s))
        return _quiet_on_level_2(s)

    outcome = _integral_outcome(integrate_semiinfinite, spy, quad.DEFAULT_TOL, quad.NODE_CAP)
    assert outcome == _integral_outcome(_integrate_by_full_levels, full_spy, quad.DEFAULT_TOL, quad.NODE_CAP)
    assert outcome[0] == "AccuracyError"
    assert len(batches) == len(full_batches) - 2  # levels 3 and 4 ride in the first call
    for level, batch in enumerate(batches[1:], start=5):
        assert np.array_equal(batch, _odd_nodes(level))
    seen = np.concatenate(batches)
    assert np.unique(seen).size == seen.size
    assert np.array_equal(np.sort(seen), np.sort(np.concatenate(full_batches)))


def _no_decay(x):
    """The error the tail rule raises for a side that does not decay, at s = x."""
    side = "0" if x < 1.0 else "infinity"
    return DivergentIntegralError(f"integrand does not decay toward {side}: its terms grow up to s={x:.6e}")


def _side_count_by_loop(terms, s):
    """The tail rule term by term, as the integrator once applied it, judging
    a side divergent where its largest term is its last or precedes an overflow."""
    kept, scale, quiet = 0, 0.0, 0
    for t in terms:
        if not math.isfinite(t):
            if scale > 0.0 and abs(terms[kept - 1]) <= 1e-18 * scale:
                return kept
            if scale > 0.0 and abs(terms[kept - 1]) == scale:
                raise _no_decay(s[kept])
            raise DomainError(f"integrand produced a non-finite value at s={s[kept]:.6e}")
        kept += 1
        scale = max(scale, abs(t))
        if scale > 0.0 and abs(t) <= quad._TAIL_EPS * scale:
            quiet += 1
            if quiet >= 3:
                return kept
        else:
            quiet = 0
    if scale > 0.0 and abs(terms[-1]) == scale:
        raise _no_decay(s[kept - 1])
    return kept


def _outcome(side_count, terms, s):
    try:
        return side_count(terms, s)
    except DomainError as err:
        return type(err).__name__, str(err)


_TERM = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0, 1e-17, 1e-19, -1e-21, 1e-22, 1e-23, 1e-40, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERM, max_size=24))
@example([1.0, 1e-18, math.inf])  # overflow after a negligible term ends the side
@example([1.0, 2e-18, math.nan])  # after a significant one it is an error
@example([0.0, 0.0, 0.0, 1.0, 1e-23, 0.0, -1e-30])
@example([1.0, 1e-22, 1e-22, 1e-22, 5.0])  # a term exactly at the floor is quiet
@example([1.0, 2.0, 3.0])  # the largest term last: no decay
@example([1.0, 3.0, math.inf])  # an overflow right after the largest term: no decay
@example([1.0, 3.0, 2.0, math.inf])  # after a smaller, significant term it is an error
@example([0.0, 0.0])  # a side of zeros decays
def test_vectorised_tail_rule_matches_the_loop(terms):
    s = np.arange(1.0, len(terms) + 1.0)
    expected = _outcome(_side_count_by_loop, terms, s)
    assert _outcome(quad._side_count, [float(t) for t in terms], s) == expected


def _side_count_vectorised(terms, s):
    """The tail rule as whole-array numpy passes, as the integrator once applied it."""
    finite = np.isfinite(terms)
    n = terms.size if finite.all() else int(np.argmin(finite))
    mag = np.abs(terms[:n])
    scale = np.maximum.accumulate(mag)
    quiet = (scale > 0.0) & (mag <= quad._TAIL_EPS * scale)
    third = quiet[2:] & quiet[1:-1] & quiet[:-2]
    if third.any():
        return int(np.argmax(third)) + 3
    if n > 0 and scale[-1] > 0.0 and mag[-1] == scale[-1]:
        raise _no_decay(float(s[min(n, terms.size - 1)]))  # the last node, or the overflow
    if n < terms.size and not (n > 0 and scale[-1] > 0.0 and mag[-1] <= 1e-18 * scale[-1]):
        raise DomainError(f"integrand produced a non-finite value at s={float(s[n]):.6e}")
    return n


def _level_sum_vectorised(vals, h):
    """A level's sum with the vectorised tail rule above, then the exact sum of
    its kept terms rounded once: math.fsum, correctly rounded and order-free."""
    s, w = quad._grid(h)
    mid = s.size // 2
    center = float(vals[mid]) * float(w[mid])
    if not math.isfinite(center):
        raise DomainError("integrand produced a non-finite value at s=1")
    with np.errstate(all="ignore"):
        terms = vals * w
    neg, neg_s = terms[mid - 1 :: -1], s[mid - 1 :: -1]
    pos, pos_s = terms[mid + 1 :], s[mid + 1 :]
    neg = neg[: _side_count_vectorised(neg, neg_s)]
    pos = pos[: _side_count_vectorised(pos, pos_s)]
    ordered = neg[::-1].tolist() + [center] + pos.tolist()
    try:
        total = float(sum(map(Fraction, ordered)))
    except OverflowError:
        raise DomainError(f"level sum at step h={h:g} exceeds double range") from None
    return total, len(ordered)


def _level_outcome(level_sum, vals, h):
    try:
        total, count = level_sum(vals, h)
    except DomainError as err:
        return type(err).__name__, str(err)
    return total.hex(), count


def _level_0_vals(kept):
    """Level-0 values whose terms are ``kept`` from s = 1 outward and 0 elsewhere."""
    s, w = quad._grid(quad._H0)
    terms = np.zeros(s.size)
    terms[s.size // 2 : s.size // 2 + len(kept)] = kept
    return terms / w


_SUBNORMALS = [5e-324, -5e-324, 2.5e-320, 1e-310]
_LEVEL_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e-18, 1e-23, -1e-23, 1e-300, math.inf, -math.inf, math.nan]),
    st.sampled_from(_SUBNORMALS),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _level_values(draw):
    """(vals, h) for one of the two coarsest levels; values near s = 1 stay finite
    often enough to reach the tail rule, and runs of tiny values end sides."""
    h = draw(st.sampled_from([quad._H0, quad._H0 / 2]))
    size = quad._grid(h)[0].size
    vals = draw(st.lists(_LEVEL_VALUE, min_size=size, max_size=size))
    if draw(st.booleans()):
        vals[size // 2] = 1.0
    return np.array(vals, dtype=float), h


@settings(max_examples=300, deadline=None)
@given(_level_values())
@example((np.exp(-quad._grid(quad._H0)[0]), quad._H0))
@example((_cube_with_overflowing_tail(quad._grid(quad._H0 / 2)[0]), quad._H0 / 2))
@example((_level_0_vals([1.5707963267948966, 1e100, 1.0, -1e100]), quad._H0))  # Kahan's sum is 0.0
@example((_level_0_vals([1.57] + [6e307] * 4), quad._H0))  # past double range
@example((_level_0_vals([1.0, 1e308, 1e308, -1e308]), quad._H0))  # fsum's partial overflows, the sum fits
def test_level_sum_matches_the_vectorised_rule(level):
    vals, h = level
    expected = _level_outcome(_level_sum_vectorised, vals, h)
    assert _level_outcome(_level_sum, vals, h) == expected


def _power_weighted_masked(vals, s, expo, w):
    """power_weighted as a gather over the finite nonzero values, as once written."""
    vals, s = np.broadcast_arrays(np.asarray(vals, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(vals.shape)
    mask = (vals != 0.0) & np.isfinite(vals)
    if np.any(mask):
        with np.errstate(all="ignore"):
            out[mask] = np.exp(expo * np.log(np.abs(vals[mask])) + w * np.log(s[mask]))
    out[~np.isfinite(vals)] = np.nan
    return out


_WEIGHT_ARG = st.one_of(
    st.sampled_from([0.0, 1e-23, 1e-300, 1e300, math.inf, -math.inf, math.nan, *_SUBNORMALS]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_ABSCISSA = st.one_of(st.sampled_from([1e-261, 1.0, 1e261, 5e-324]), st.floats(min_value=1e-300, max_value=1e300))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_WEIGHT_ARG, _ABSCISSA), min_size=1, max_size=40),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-400.0, max_value=400.0),
)
def test_power_weighted_matches_the_masked_form(pairs, expo, w):
    vals = np.array([v for v, _ in pairs])
    s = np.array([x for _, x in pairs])
    for args in ((vals, s), (vals[:, None], s), (vals[0], s), (vals, s[0]), (np.array(vals[0]), np.array(s[0]))):
        expected = _power_weighted_masked(*args, expo, w)
        got = power_weighted(*args, expo, w)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
