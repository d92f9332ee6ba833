"""Integral identities: operator expansions, comparison bounds, equality cases."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ckn_lab import identities
from ckn_lab.identities import (
    BATTERY_POINTS,
    BATTERY_PROFILES,
    TestFunction,
    check_boundary_sharp_constant,
    check_cross_term_identity,
    check_divergence_expansion,
    check_eta_substitution,
    check_laplacian_bound,
    check_pohozaev_identity,
    check_rellich_sobolev,
    rellich_sobolev_constants,
    rellich_sobolev_extremal,
)
from ckn_lab.params import HardyConstants, ParamError, validate
from ckn_lab.profiles import PowerPeakProfile, s_r_closed
from ckn_lab.quadrature import integrate_rows
from ckn_lab.specfun import DomainError


def test_battery_fixtures_are_well_formed():
    assert len(BATTERY_PROFILES) == 5
    assert len(BATTERY_POINTS) == 5
    for N, alpha, beta in BATTERY_POINTS:
        validate(N, alpha, beta)  # raises on a bad point


def test_mode_index_must_be_nonnegative():
    prof = PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0)
    with pytest.raises(DomainError):
        TestFunction(prof, -1)
    with pytest.raises(DomainError):
        TestFunction(radial_part=prof, mode_k=-1)
    with pytest.raises(DomainError):
        TestFunction(prof)._replace(mode_k=-1)
    with pytest.raises(DomainError):
        TestFunction(prof, 1.5)
    assert TestFunction(prof) == (prof, 0)
    assert type(TestFunction(prof, np.uint8(200)).mode_k) is int


def test_laplacian_bound_holds_on_sample(p511):
    _, prof = BATTERY_PROFILES[0]
    ratio, bound, passed = check_laplacian_bound(TestFunction(prof, 0), p511)
    assert passed
    assert ratio <= bound + 1e-10
    assert bound == pytest.approx(4.0, rel=1e-13)


def test_laplacian_bound_is_equality_at_zero_weight(p500):
    """With no gradient weight the two operators coincide; ratio = 1 and
    the comparison constant collapses to 1."""
    for _, prof in BATTERY_PROFILES[:3]:
        ratio, bound, passed = check_laplacian_bound(TestFunction(prof, 1), p500)
        assert passed
        assert bound == pytest.approx(1.0, rel=1e-13)
        assert ratio == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "point, bound_of",
    [
        ((5, 1.0, 1.0), lambda ratio: ratio * (1.0 - 1e-11)),  # within bound + 1e-10, not bound (1 + 1e-12)
        ((5, 0.0, 0.0), lambda ratio: 1.5),  # at alpha = 0 the bound must be exactly 1
    ],
    ids=["relative_margin", "unweighted_identity"],
)
def test_laplacian_bound_verdict_is_the_whole_judgement(monkeypatch, point, bound_of):
    """The third value fails a bound that only ratio <= bound + 1e-10 would pass."""
    p = validate(*point)
    u = TestFunction(BATTERY_PROFILES[0][1], 0)
    ratio, _, passed = check_laplacian_bound(u, p)
    assert passed
    bound = bound_of(ratio)
    assert ratio <= bound + 1e-10
    monkeypatch.setattr(identities, "hardy_comparison_constants", lambda p: HardyConstants(1.0, bound))
    assert check_laplacian_bound(u, p) == (ratio, bound, False)


@pytest.mark.parametrize("name, prof", BATTERY_PROFILES[:3])
def test_cross_term_identity(name, prof, p511):
    assert check_cross_term_identity(TestFunction(prof, 0), p511) < 1e-10


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("point", BATTERY_POINTS[:3])
def test_divergence_expansion(point, mode):
    p = validate(*point)
    _, prof = BATTERY_PROFILES[1]
    assert check_divergence_expansion(TestFunction(prof, mode), p) < 1e-10


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_pohozaev_identity(mode):
    _, prof = BATTERY_PROFILES[0]
    assert check_pohozaev_identity(TestFunction(prof, mode), 5) < 1e-10


def test_every_battery_check_converges_in_its_first_integrand_call(monkeypatch):
    """Every identity check over the battery that answers (points x profiles x modes 0-3)
    converges inside the first call's grid: under s = exp(sinh x) a power-peak bump about
    one unit wide in log s stays about one unit wide in x.  Under s = exp(pi sinh x), 130
    of these 325 checks needed a second call."""
    calls = []

    def counted(f, *args, **kwargs):
        def spy(s):
            calls.append(s.size)
            return f(s)

        return integrate_rows(spy, *args, **kwargs)

    monkeypatch.setattr(identities, "integrate_rows", counted)
    checks = (
        check_laplacian_bound,
        check_divergence_expansion,
        lambda u, p: check_pohozaev_identity(u, p.N),
        check_cross_term_identity,
    )
    answered = 0
    for point in BATTERY_POINTS:
        p = validate(*point)
        for name, prof in BATTERY_PROFILES:
            for k in range(4):
                for i, check in enumerate(checks):
                    calls.clear()
                    try:
                        check(TestFunction(prof, k), p)
                    except DomainError:  # the cross-term identity is for mode 0 alone
                        continue
                    answered += 1
                    assert len(calls) == 1, (point, name, k, i)
    assert answered == 325


def test_shift_constants_reference_values():
    sc = rellich_sobolev_constants(5, -1.0)
    assert sc.mu5 == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert sc.c_mu1 == pytest.approx(65.0 / 18.0, rel=1e-13)
    assert sc.c_mu2 == pytest.approx(-455.0 / 1296.0, rel=1e-13)
    assert sc.eta == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_shift_constants_domain():
    with pytest.raises(DomainError):
        rellich_sobolev_constants(5, 0.5)  # needs alpha < 0


@pytest.mark.parametrize("N, alpha", [(5, -1.0), (6, -0.5), (8, -2.0), (7, -3.0)])
def test_substitution_exponent_identity(N, alpha):
    """N*alpha/(N-2) + eta * 2N/(N-4) = 0 ties the two critical weights."""
    sc = rellich_sobolev_constants(N, alpha)
    residual = N * alpha / (N - 2.0) + sc.eta * 2.0 * N / (N - 4.0)
    assert residual == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("N, alpha", [(5, -1.0), (6, -0.5), (8, -2.0)])
def test_eta_substitution_norms_agree(N, alpha):
    prof = PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0)
    assert check_eta_substitution(TestFunction(prof), N, alpha) < 1e-12


def test_shifted_inequality_equality_on_extremal_family():
    mu = 1.0 / 3.0
    for amplitude, nu in ((1.0, 1.0), (3.0, 2.5)):
        v = rellich_sobolev_extremal(5, mu, amplitude=amplitude, nu=nu)
        lhs, rhs, passed = check_rellich_sobolev(v, 5, mu)
        assert passed
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_shifted_inequality_reference_value():
    lhs, rhs, _ = check_rellich_sobolev(rellich_sobolev_extremal(5, 1.0 / 3.0), 5, 1.0 / 3.0)
    assert lhs == pytest.approx(30.144991216958125, rel=1e-10)


def test_shifted_inequality_strict_off_family():
    bump = PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0)
    lhs, rhs, passed = check_rellich_sobolev(bump, 5, 1.0 / 3.0)
    assert passed
    assert lhs > rhs * (1.0 + 1e-3)


BOUNDARY_CASES = [
    (5, -1.0, 27.972867094210034),
    (6, -0.5, 158.4492956257893),
    (8, -2.0, 158.17648643921441),
]


@pytest.mark.parametrize("N, alpha, expected", BOUNDARY_CASES)
def test_boundary_sharp_constant(N, alpha, expected):
    quotient, constant, defect = check_boundary_sharp_constant(N, alpha)
    assert constant == pytest.approx(expected, rel=1e-12)
    assert quotient == pytest.approx(constant, rel=1e-10)
    assert defect < 1e-10


@pytest.mark.parametrize("N, alpha, expected", BOUNDARY_CASES)
def test_boundary_constant_specializes_closed_form(N, alpha, expected):
    """(1 + alpha/(N-2))^(4-4/N) * S0 equals the general closed form on
    the upper boundary."""
    p = validate(N, alpha, N * alpha / (N - 2.0))
    _, constant, _ = check_boundary_sharp_constant(N, alpha)
    assert s_r_closed(p) == pytest.approx(constant, rel=1e-10)


def test_boundary_constant_formula_oracle():
    # independent recomputation from stdlib gamma at (5,-1)
    N, alpha = 5, -1.0
    s0 = math.pi**2 * 105.0 * (math.gamma(2.5) / math.gamma(5.0)) ** 0.8
    expected = (1.0 + alpha / (N - 2.0)) ** (4.0 - 4.0 / N) * s0
    _, constant, _ = check_boundary_sharp_constant(N, alpha)
    assert constant == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", [int, np.int64, np.uint8])
def test_the_shift_reduction_takes_an_integral_dimension_of_any_type(kind):
    """Pinned to the bit at int N.  In uint8, 2 - N overflows, which once refused a valid N."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shift = rellich_sobolev_constants(kind(5), -0.5)
        boundary = check_boundary_sharp_constant(kind(5), -1.0)
        v = rellich_sobolev_extremal(kind(5), 1.0 / 3.0)
        lhs, rhs, passed = check_rellich_sobolev(v, kind(5), 1.0 / 3.0)
    assert [x.hex() for x in shift] == [
        "0x1.5555555555555p-3", "0x1.fc71c71c71c71p+0", "-0x1.3ff35ba781948p-2", "0x1.5555555555555p-4"]
    assert [x.hex() for x in boundary] == ["0x1.bf90dd160fc81p+4", "0x1.bf90dd160fc88p+4", "0x1.003f916f3d0f5p-50"]
    assert v.terms == ((1.0, Fraction(-6004799503160661, 36028797018963968), Fraction(-1, 2)),)
    assert v.sigma.hex() == "0x1.5555555555556p+0"
    assert (lhs.hex(), rhs.hex(), passed) == ("0x1.e251e24f70ae2p+4", "0x1.e251e24f70aedp+4", True)
    assert {type(x) for x in (*shift, *boundary, lhs, rhs)} == {float}


@pytest.mark.parametrize("N", [5.0, 5.5], ids=["float", "half"])
def test_the_identities_reject_a_non_integral_dimension(N):
    prof = BATTERY_PROFILES[0][1]
    v = rellich_sobolev_extremal(5, 1.0 / 3.0)
    for compute in (
        lambda: rellich_sobolev_constants(N, -0.5),
        lambda: check_boundary_sharp_constant(N, -1.0),
        lambda: rellich_sobolev_extremal(N, 1.0 / 3.0),
        lambda: check_rellich_sobolev(v, N, 1.0 / 3.0),
        lambda: check_pohozaev_identity(TestFunction(prof, 1), N),
        lambda: check_eta_substitution(TestFunction(prof), N, -0.5),
    ):
        with pytest.raises(ParamError, match=r"^dimension must be an integer, got N="):
            compute()
