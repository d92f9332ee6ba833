"""Parameter validation, derived exponents, transition curve, regions."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckn_lab.cli import main
from ckn_lab.params import (
    ParamError,
    Params,
    RegionClass,
    b_fs_first_order,
    beta_fs,
    beta_strip,
    classify,
    derive,
    fs_correspondence,
    hardy_comparison_constants,
    harmonic_eigenvalue,
    rellich_infimum,
    s_0_closed,
    sphere_area,
    validate,
)
from ckn_lab.specfun import DomainError


# 2 + beta - alpha, and N - 4 + 2*alpha - beta, round to exactly 0.0
ROUNDED_ZERO = [(5, 1.0, -0.9999999999999999), (17, -14.999999999999998, -16.999999999999996)]


def test_validate_accepts_interior_point():
    p = validate(5, 1.0, 1.0)
    assert (p.N, p.alpha, p.beta) == (5, 1.0, 1.0)


@pytest.mark.parametrize(
    "N, alpha, beta",
    [
        (4, 0.0, 0.0),          # dimension too small
        (5, -3.0, -3.5),        # alpha at/below 2-N
        (5, 1.0, -1.0),         # beta at alpha-2 exactly is excluded
        (5, 1.0, -1.5),         # below the lower boundary
        (5, 1.0, 1.7),          # above N*alpha/(N-2)
        (5.5, 1.0, 1.0),        # fractional dimension
        (5.0, 1.0, 1.0),        # a float, though integral
        (np.int64(4), 0.0, 0.0),  # integral but too small
        *ROUNDED_ZERO,
    ],
)
def test_validate_rejects(N, alpha, beta):
    with pytest.raises(ParamError):
        validate(N, alpha, beta)


@pytest.mark.parametrize("N", [np.int64(5), np.int32(6), np.uint8(7)])
def test_an_integral_dimension_of_any_type_is_accepted_as_int(N):
    p = validate(N, 1, 1)
    assert type(p.N) is int and p.N == N
    assert type(Params(N, 1.0, 1.0).N) is int
    assert classify(N, 1.0, 1.0) is RegionClass.SYMMETRY_BREAKING


# beta_fs at integer N, to the bit: taking N through operator.index must not move a value
BETA_FS_PINS = [(5, 1.0, "0x1.504f333f9de68p-1"), (7, 1.0, "0x1.7def58a7a76d0p-1"),
                (16, 3.0, "0x1.573cc217942c0p+1"), (500, 0.25, "0x1.fdf3f9369b800p-3")]


@pytest.mark.parametrize("N, alpha, expected", BETA_FS_PINS)
@pytest.mark.parametrize("kind", [int, np.int64, np.uint16])
def test_closed_forms_take_an_integral_dimension_of_any_type(kind, N, alpha, expected):
    assert beta_fs(kind(N), alpha).hex() == expected
    assert harmonic_eigenvalue(kind(N), 60) == 60.0 * (N + 58)


def test_an_unsigned_dimension_does_not_wrap():
    assert beta_fs(np.uint8(7), 1.0) == beta_fs(7, 1.0)  # not 256.746: -N and N*N wrap in uint8
    assert harmonic_eigenvalue(np.uint8(200), 60) == 15480.0  # not 120.0


@pytest.mark.parametrize("kind", [int, np.int64, np.uint8])
def test_every_closed_form_takes_an_integral_dimension_of_any_type(kind):
    """Pinned to the bit at int N.  In uint8, -7 overflows and 16*16 wraps to 0;
    neither may show, as a value or as a warning, and every value is a float."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rellich_infimum(kind(7), 0.5) == (16.0, 0)
        assert s_0_closed(kind(16)).hex() == "0x1.d6522526db1f1p+11"
        assert b_fs_first_order(kind(7), -0.5).hex() == "-0x1.27d875243e008p-2"
        corr = fs_correspondence(kind(7), 1.0)
    assert [x.hex() for x in corr] == [
        "-0x1.0000000000000p-1", "-0x1.27d875243e008p-2", "0x1.4a7e9cb8a3491p+1", "0x1.7def58a7a76cbp-1"]
    assert {type(x) for x in (*corr, s_0_closed(kind(16)), b_fs_first_order(kind(7), -0.5))} == {float}


@pytest.mark.parametrize("N", [5.0, 5.5, np.float64(5.0), "5"], ids=["float", "half", "float64", "str"])
def test_closed_forms_reject_a_non_integral_dimension(N):
    for compute in (
        lambda: beta_fs(N, 1.0),
        lambda: harmonic_eigenvalue(N, 1),
        lambda: rellich_infimum(N, 0.5),
        lambda: s_0_closed(N),
        lambda: b_fs_first_order(N, -0.5),
        lambda: fs_correspondence(N, 1.0),
    ):
        with pytest.raises(ParamError, match=r"^dimension must be an integer, got N="):
            compute()


def test_params_validate_when_constructed():
    with pytest.raises(ParamError):
        Params(5, 1.0, 9.0)
    with pytest.raises(ParamError):
        Params(N=5, alpha=1.0, beta=9.0)
    with pytest.raises(ParamError):
        validate(5, 1, 1)._replace(beta=9.0)
    assert Params(5, 1.0, 1.0) == validate(5, 1, 1) == (5, 1.0, 1.0)


@pytest.mark.parametrize("N, alpha, beta", ROUNDED_ZERO)
def test_rounded_zero_denominator_is_parameter_error(N, alpha, beta):
    assert main(["constants", "--N", str(N), f"--alpha={alpha!r}", f"--beta={beta!r}"]) == 2


def _ulps(x, k):
    """x moved k units in the last place (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=500, deadline=None)
@given(
    st.integers(min_value=5, max_value=60),
    st.one_of(st.integers(min_value=-64, max_value=64), st.floats(min_value=0.0, max_value=50.0)),
    st.booleans(),
    st.integers(min_value=-64, max_value=64),
)
@example(5, 4.0, False, 1)  # ROUNDED_ZERO's first triple
@example(17, 1, True, 0)  # ROUNDED_ZERO's second triple
def test_strip_edges_validate_or_derive_finite(N, alpha_draw, upper, k):
    """Within 64 ulps of alpha = 2-N, beta = alpha-2 or beta = N*alpha/(N-2), a
    triple is rejected or has finite p* > 0, q > 0 and M > 4 (p* may round to 2)."""
    if isinstance(alpha_draw, int):
        alpha = _ulps(2.0 - N, alpha_draw)
    else:
        alpha = 2.0 - N + alpha_draw
    beta = _ulps(N * alpha / (N - 2) if upper else alpha - 2.0, k)
    try:
        d = derive(validate(N, alpha, beta))
    except ParamError:
        return
    assert math.isfinite(d.p_star) and d.p_star > 0.0
    assert math.isfinite(d.q) and d.q > 0.0
    assert math.isfinite(d.M) and d.M > 4.0


def test_validate_error_lists_reasons():
    with pytest.raises(ParamError) as err:
        validate(5, -3.5, 7.0)
    assert len(err.value.reasons) == 2


def test_beta_strip_ends_and_domain_errors():
    """The strip's ends are alpha - 2 and N*alpha/(N-2) to the bit; outside the domain the
    strip and the transition curve raise ParamError."""
    assert beta_strip(5, 1.0) == (-1.0, 5.0 / 3.0)
    assert beta_strip(7, -0.3) == (-0.3 - 2.0, 7 * -0.3 / 5)
    with pytest.raises(ParamError, match=r"^dimension must be an integer >= 5, got N=4$"):
        beta_strip(4, 1.0)
    with pytest.raises(ParamError, match=r"^alpha must exceed 2 - N = -3, got alpha=-3\.0$"):
        beta_strip(5, -3.0)
    with pytest.raises(ParamError, match="radicand"):
        beta_fs(0, 1.0)


#: the largest N whose square N*N, the leading term of beta_fs's radicand, is a finite double
N_DOUBLE_MAX = math.isqrt(int(sys.float_info.max))


@pytest.mark.parametrize("N", [2**512, N_DOUBLE_MAX + 1, 10**400], ids=["2^512", "just_above", "10^400"])
def test_a_dimension_too_large_for_doubles_is_a_parameter_error(N):
    """From N = 2^512 (and a few N just below, whose square rounds up to 2^1024) N*N leaves
    double range: the domain names N where beta_fs leaked OverflowError, and classify says Invalid."""
    for compute in (lambda: beta_strip(N, 1.0), lambda: validate(N, 1.0, 0.5), lambda: beta_fs(N, 1.0)):
        with pytest.raises(ParamError, match=f"^dimension N={N} is too large: N\\*N exceeds the largest double$"):
            compute()
    assert classify(N, 1.0, 0.5) is RegionClass.INVALID


def test_the_largest_dimension_in_double_range_is_admissible():
    assert N_DOUBLE_MAX < 2**512 and N_DOUBLE_MAX**2 <= sys.float_info.max < (N_DOUBLE_MAX + 1) ** 2
    assert validate(N_DOUBLE_MAX, 1.0, 0.5).N == N_DOUBLE_MAX
    assert math.isfinite(beta_fs(N_DOUBLE_MAX, 1.0))
    assert classify(N_DOUBLE_MAX, 1.0, 0.5) is not RegionClass.INVALID


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=500, deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.one_of(_NON_FINITE, st.integers(min_value=-64, max_value=64), st.floats(-50.0, 50.0)),
    st.one_of(
        _NON_FINITE,
        st.tuples(st.booleans(), st.integers(min_value=-64, max_value=64)),
        st.floats(-100.0, 100.0),
    ),
)
@example(5, 1.0, math.nan)
@example(5, math.inf, math.inf)
@example(5, 1.0, (True, 1))  # just above the upper end, within BOUNDARY_TOL
def test_classify_agrees_with_validate_at_the_edges(N, alpha_draw, beta_draw):
    """alpha is drawn within 64 ulps of 2 - N, beta within 64 ulps of a strip end, or
    either is non-finite.  A triple validate rejects is Invalid or RellichDegenerate;
    a triple it accepts is not Invalid."""
    alpha = _ulps(2.0 - N, alpha_draw) if isinstance(alpha_draw, int) else alpha_draw
    if isinstance(beta_draw, tuple):
        upper, k = beta_draw
        beta = _ulps((alpha - 2.0, N * alpha / (N - 2))[upper], k)
    else:
        beta = beta_draw
    tag = classify(N, alpha, beta)
    try:
        validate(N, alpha, beta)
    except ParamError:
        assert tag in (RegionClass.INVALID, RegionClass.RELLICH_DEGENERATE)
    else:
        assert tag is not RegionClass.INVALID


def test_derived_at_reference_point(p511):
    d = derive(p511)
    assert d.p_star == pytest.approx(6.0, rel=1e-14)
    assert d.q == pytest.approx(1.0, rel=1e-14)
    assert d.M == pytest.approx(6.0, rel=1e-14)
    assert sphere_area(p511.N) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-14)


def test_sphere_area_small_dimensions():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=5, max_value=12),
    st.floats(min_value=-2.9, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_exponent_identities(N, alpha, frac):
    """q*sigma=2, q*kappa=M-4, q(N-2+alpha)=M-2, q(N+beta)=M, p*(M-4)=2M."""
    if alpha <= 2.0 - N:
        return
    lo, hi = alpha - 2.0, N * alpha / (N - 2.0)
    beta = lo + (hi - lo) * (0.05 + 0.95 * frac)
    if not lo < beta <= hi:
        return
    p = validate(N, alpha, beta)
    d = derive(p)
    sigma = 2.0 + beta - alpha
    kappa = N - 4.0 + 2.0 * alpha - beta
    assert d.M > 4.0
    assert d.q * sigma == pytest.approx(2.0, rel=1e-12)
    assert d.q * kappa == pytest.approx(d.M - 4.0, rel=1e-12, abs=1e-12)
    assert d.q * (N - 2.0 + alpha) == pytest.approx(d.M - 2.0, rel=1e-12)
    assert d.q * (N + beta) == pytest.approx(d.M, rel=1e-12)
    assert d.p_star * (d.M - 4.0) == pytest.approx(2.0 * d.M, rel=1e-12)


def test_transition_curve_reference_value():
    # N^2 + alpha^2 + 2(N-2)alpha = 32 at (5,1)
    assert beta_fs(5, 1.0) == pytest.approx(-5.0 + math.sqrt(32.0), rel=1e-14)


def test_transition_curve_stays_in_strip():
    for N in range(5, 11):
        for i in range(1, 31):
            alpha = 0.1 * i
            curve = beta_fs(N, alpha)
            assert curve < N * alpha / (N - 2.0)
            assert curve > alpha - 2.0


def test_first_order_correspondence_matches_curve():
    for N in range(5, 11):
        for i in range(1, 31):
            alpha = 0.1 * i
            corr = fs_correspondence(N, alpha)
            assert corr.beta_mapped == pytest.approx(beta_fs(N, alpha), abs=1e-10)


def test_first_order_curve_zero_offset():
    # at a=0 the first-order threshold leaves b=0
    assert b_fs_first_order(5, 0.0) == pytest.approx(0.0, abs=1e-12)


CLASS_CASES = [
    (4, 0.0, 0.0, RegionClass.INVALID),
    (5, -3.0, -4.0, RegionClass.INVALID),
    (5, 1.0, 2.0, RegionClass.INVALID),
    (5, 0.0, 0.0, RegionClass.CLASSICAL),
    (5, 1.0, -1.0, RegionClass.RELLICH_DEGENERATE),
    (5, 1.0, 1.0, RegionClass.SYMMETRY_BREAKING),
    (5, 1.0, 0.3, RegionClass.CONJECTURED_SYMMETRY),
    (5, -1.0, -1.7, RegionClass.CONJECTURED_SYMMETRY),
    (5, 1.0, 5.0 / 3.0, RegionClass.NOT_ATTAINED_BOUNDARY),
    (5, -1.0, -5.0 / 3.0, RegionClass.PROVEN_SYMMETRY_BOUNDARY),
    (6, 2.0, 2.5, RegionClass.SYMMETRY_BREAKING),
]


@pytest.mark.parametrize("N, alpha, beta, expected", CLASS_CASES)
def test_classify(N, alpha, beta, expected):
    assert classify(N, alpha, beta) is expected


def test_classify_tags_are_stable_strings():
    assert classify(5, 1.0, 1.0).value == "SymmetryBreaking"
    assert classify(4, 0.0, 0.0).value == "Invalid"
    assert classify(5, 1.0, -1.0).value == "RellichDegenerate"


def test_breaking_region_is_above_curve():
    N, alpha = 5, 1.0
    curve = beta_fs(N, alpha)
    assert classify(N, alpha, curve + 0.01) is RegionClass.SYMMETRY_BREAKING
    assert classify(N, alpha, curve - 0.01) is RegionClass.CONJECTURED_SYMMETRY


def test_hardy_comparison_constants(p511, p500):
    hc = hardy_comparison_constants(p511)
    assert hc.hardy_e == pytest.approx(1.0, rel=1e-14)
    assert hc.bound_c == pytest.approx(4.0, rel=1e-14)
    hc0 = hardy_comparison_constants(p500)
    assert hc0.hardy_e == pytest.approx(4.0, rel=1e-14)
    assert hc0.bound_c == pytest.approx(1.0, rel=1e-14)


def test_rellich_infimum_reference_values():
    assert rellich_infimum(5, 0.0) == (1.5625, 0)
    value, argmin = rellich_infimum(5, 2.0)
    assert value == pytest.approx(7.5625, rel=1e-14)
    assert argmin == 1


def _rellich_scan(N, a):
    """The exhaustive scan over every k from 0 past the larger root: the reference."""
    k_hi = math.ceil(max(0.0, a - (N - 4.0) / 2.0, -N / 2.0 - a)) + 2

    def f(k):
        g = (k + N / 2.0 + a) * (k + (N - 4.0) / 2.0 - a)
        return g * g

    best_k = min(range(k_hi + 1), key=f)
    return f(best_k), best_k


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=5, max_value=40),
    st.one_of(st.floats(min_value=-1e3, max_value=1e3), st.integers(-4000, 4000).map(lambda n: n / 4.0)),
)
@example(5, 0.0)
@example(7, 0.5)
@example(6, -3.5)
def test_rellich_infimum_tries_only_the_roots_neighbours(N, a):
    """Same value and the same first argmin as the exhaustive scan."""
    assert rellich_infimum(N, a) == _rellich_scan(N, a)


def test_rellich_infimum_at_large_weight_exponent():
    """The scan would try five billion k here."""
    assert rellich_infimum(6, -5e9) == (0.0, 4999999997)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_rellich_infimum_rejects_a_non_finite_exponent(a):
    with pytest.raises(DomainError, match="must be finite"):
        rellich_infimum(6, a)


def _rellich_exact(N, a):
    """The least f(k) in exact rationals over the candidates rellich_infimum tries, and its k."""
    a = Fraction(a)

    def f(k):
        g = (k + Fraction(N, 2) + a) * (k + Fraction(N - 4, 2) - a)
        return g * g

    roots = [r for r in (-Fraction(N, 2) - a, a - Fraction(N - 4, 2)) if r >= 0]
    k = min(sorted({0, *map(math.floor, roots), *map(math.ceil, roots)}), key=f)
    return f(k), k


@pytest.mark.parametrize("N, a", [(5, 2.0**52 - 1.0), (5, 1.0 - 2.0**52), (7, 2.0**52 - 0.5)])
def test_rellich_infimum_just_below_2_52_keeps_its_accuracy(N, a):
    exact, k = _rellich_exact(N, a)
    value, argmin = rellich_infimum(N, a)
    assert argmin == k
    assert value == pytest.approx(float(exact), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("a", [2.0**52, -(2.0**52), -1.6666666666666666e16, 1e300])
def test_rellich_infimum_refuses_a_weight_exponent_from_2_52(a):
    """From |a| = 2^52 on floats no longer resolve k + a: at a = -1.67e16 the formula read 0.0,
    where the exact minimum is 2.78e32."""
    with pytest.raises(DomainError, match=r"^weight exponent a must satisfy \|a\| < 2\*\*52, got "):
        rellich_infimum(5, a)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=5, max_value=12),
    st.floats(min_value=-6.0, max_value=40.0),
)
def test_rellich_infimum_matches_brute_force(N, a):
    def f(k):
        g = (k + N / 2.0 + a) * (k + (N - 4.0) / 2.0 - a)
        return g * g

    value, argmin = rellich_infimum(N, a)
    brute = min(f(k) for k in range(0, 1001))
    assert value == brute  # same float, no tolerance
    assert f(argmin) == brute
    assert f(argmin) <= f(argmin + 1)
    if argmin > 0:
        assert f(argmin) <= f(argmin - 1)
