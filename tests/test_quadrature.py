"""Semi-infinite quadrature: oracles, screening, norms, log-space weights."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckn_lab import quadrature as quad
from ckn_lab.params import validate
from ckn_lab.profiles import extremal, s_r_closed
from ckn_lab.quadrature import (
    AccuracyError,
    DivergentIntegralError,
    integrate_semiinfinite,
    norm_sq,
    norm_star,
    power_weighted,
    quotient_radial,
    set_default_tolerance,
    set_node_cap,
    signed_weighted,
)
from ckn_lab.specfun import DomainError


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


def test_divergence_at_infinity_is_screened():
    with pytest.raises(DivergentIntegralError):
        integrate_semiinfinite(lambda s: 1.0 / (1.0 + s))


def test_divergence_at_origin_is_screened():
    with pytest.raises(DivergentIntegralError):
        integrate_semiinfinite(lambda s: np.exp(-s) * s**-1.5)


def test_error_estimate_is_honest():
    res = integrate_semiinfinite(lambda s: np.exp(-s) * np.cos(s))
    assert abs(res.value - 0.5) <= max(10.0 * res.abs_error_estimate, 1e-12)


def test_default_tolerance_setter_changes_node_count():
    try:
        baseline = integrate_semiinfinite(lambda s: np.exp(-s)).nodes
        set_default_tolerance(1e-5)
        coarse = integrate_semiinfinite(lambda s: np.exp(-s)).nodes
        assert coarse < baseline
    finally:
        set_default_tolerance(1e-10)


def test_node_cap_setter_trips_accuracy_error():
    try:
        set_node_cap(32)
        with pytest.raises(AccuracyError) as err:
            integrate_semiinfinite(lambda s: 1.0 / (1.0 + s * s), tol=1e-14)
        # the partial result ships with the failure
        assert err.value.result.value == pytest.approx(0.5 * math.pi, rel=1e-2)
    finally:
        set_node_cap(2**16)


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


def test_norm_sq_vanishes_on_constants(p511):
    from ckn_lab.profiles import constant_profile

    assert norm_sq(constant_profile(3.0), p511) == pytest.approx(0.0, abs=1e-12)


def test_extremal_norms_against_closed_forms(p511):
    """The ground state's two norms are powers of the sharp constant."""
    u = extremal(p511)
    s_r = s_r_closed(p511)
    d_exp = 6.0 / (6.0 - 2.0)  # p*/(p*-2) at this triple
    assert norm_sq(u, p511) == pytest.approx(s_r**d_exp, rel=1e-9)
    assert norm_star(u, p511) == pytest.approx(s_r ** (1.0 / 4.0), rel=1e-9)
    assert norm_sq(u, p511) == pytest.approx(3300.760882626019, rel=1e-9)
    assert norm_star(u, p511) == pytest.approx(3.858652574458166, rel=1e-9)


def test_quotient_is_scale_invariant(p511):
    u = extremal(p511)
    v = extremal(p511, lam=2.0)
    q_u = quotient_radial(u, p511)
    q_v = quotient_radial(v, p511)
    assert q_u == pytest.approx(q_v, rel=1e-9)
    assert q_u == pytest.approx(s_r_closed(p511), rel=1e-10)


def test_non_extremal_profile_sits_strictly_above(p511):
    from ckn_lab.profiles import PowerPeakProfile

    bump = PowerPeakProfile([(1.0, 0, -3.0)], sigma=2, nu=1.0)
    assert quotient_radial(bump, p511) > s_r_closed(p511) * (1.0 + 1e-6)


def _cube_with_overflowing_tail(s):
    # inf beyond 1e15, where the terms are already negligible
    return np.where(s > 1e15, np.inf, (1.0 + s) ** -3.0)


# Pinned bit for bit: reusing each node's value at every finer level must
# give exactly the sums of evaluating every level afresh.
@pytest.mark.parametrize(
    "f, expected",
    [
        (lambda s: np.exp(-s), "QuadResult(value=1.0, abs_error_estimate=5.995204332975845e-15, nodes=318)"),
        (
            lambda s: np.exp(-s) / np.sqrt(s),
            "QuadResult(value=1.772453850905516, abs_error_estimate=1.9984014443252818e-15, nodes=357)",
        ),
        (lambda s: (1.0 + s) ** -3.0, "QuadResult(value=0.5, abs_error_estimate=1.8207657603852567e-14, nodes=108)"),
        (
            lambda s: np.exp(-s) * np.cos(s),
            "QuadResult(value=0.5, abs_error_estimate=1.8318679906315083e-14, nodes=620)",
        ),
        (_cube_with_overflowing_tail, "QuadResult(value=0.5, abs_error_estimate=1.8207657603852567e-14, nodes=103)"),
    ],
    ids=["exp", "exp_over_sqrt", "cube", "exp_cos", "overflowing_tail"],
)
def test_result_is_pinned(f, expected):
    assert repr(integrate_semiinfinite(f)) == expected


def test_extremal_quotient_is_pinned(p511):
    assert repr(quotient_radial(extremal(p511), p511)) == "221.68826741979262"


def test_accuracy_error_result_is_pinned():
    with pytest.raises(AccuracyError) as err:
        integrate_semiinfinite(lambda s: 1.0 / (1.0 + s * s), tol=1e-14, node_cap=32)
    assert repr(err.value.result) == (
        "QuadResult(value=1.5708084354078866, abs_error_estimate=0.008722405441900616, nodes=56)"
    )


def test_significant_nan_names_its_abscissa():
    def f(s):
        return np.where(np.abs(s - 2.0) < 0.25, np.nan, np.exp(-s))

    with pytest.raises(DomainError) as err:
        integrate_semiinfinite(f)
    assert type(err.value) is DomainError
    assert str(err.value) == "integrand produced a non-finite value at s=2.211354e+00"


def test_each_abscissa_reaches_the_integrand_once():
    batches = []

    def spy(s):
        batches.append(np.array(s))
        return np.exp(-s)

    integrate_semiinfinite(spy)
    # one call for the probes and levels 0-2, then one per finer level
    assert len(batches) == 3
    seen = np.concatenate(batches)
    assert np.unique(seen).size == seen.size


def _side_count_by_loop(terms, s):
    """The tail rule term by term, as the integrator once applied it."""
    kept, scale, quiet = 0, 0.0, 0
    for t in terms:
        if not math.isfinite(t):
            if scale > 0.0 and abs(terms[kept - 1]) <= 1e-18 * scale:
                return kept
            raise DomainError(f"integrand produced a non-finite value at s={s[kept]:.6e}")
        kept += 1
        scale = max(scale, abs(t))
        if scale > 0.0 and abs(t) <= quad._TAIL_EPS * scale:
            quiet += 1
            if quiet >= 3:
                return kept
        else:
            quiet = 0
    return kept


def _outcome(side_count, terms, s):
    try:
        return side_count(terms, s)
    except DomainError as err:
        return str(err)


_TERM = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0, 1e-17, 1e-19, -1e-21, 1e-22, 1e-23, 1e-40, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERM, max_size=24))
@example([1.0, 1e-18, math.inf])  # overflow after a negligible term ends the side
@example([1.0, 2e-18, math.nan])  # after a significant one it is an error
@example([0.0, 0.0, 0.0, 1.0, 1e-23, 0.0, -1e-30])
def test_vectorised_tail_rule_matches_the_loop(terms):
    s = np.arange(1.0, len(terms) + 1.0)
    expected = _outcome(_side_count_by_loop, terms, s)
    assert _outcome(quad._side_count, np.array(terms, dtype=float), s) == expected
