"""Parameter validation, derived exponents, transition curve, regions."""

import math
import random
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ckn_lab.cli import main
from ckn_lab.identities import (
    BATTERY_PROFILES,
    TestFunction,
    check_boundary_sharp_constant,
    check_pohozaev_identity,
    check_rellich_sobolev,
    rellich_sobolev_constants,
    rellich_sobolev_extremal,
)
from ckn_lab.params import (
    ParamError,
    Params,
    RegionClass,
    b_closed,
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
    s_r_closed,
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


# s_0_closed before it took its polynomial in logs where the linear-space product overflows
S_0_CLOSED_PINS = {
    5: "0x1.998878d532eb1p+6",
    6: "0x1.ee91a315ce2eap+7",
    7: "0x1.af885cb65e934p+8",
    8: "0x1.46e99028399b6p+9",
    9: "0x1.c8c45506979c0p+9",
    10: "0x1.2e94b659dfea2p+10",
    10**76: "0x1.167c0266494f9p+509",
}


def test_s_0_closed_answers_at_every_dimension_whose_constant_is_a_double():
    """N(N-4)(N^2-4) ~ N^4 overflows from N ~ 1e77 while the constant ~ 18 N^2 stays in range
    until N ~ 3e153: the log form answers there, as s_r_closed does, and every N that answered
    in linear space keeps its bits."""
    assert {N: s_0_closed(N).hex() for N in S_0_CLOSED_PINS} == S_0_CLOSED_PINS
    assert math.isfinite(s_0_closed(10**100))
    assert s_0_closed(10**77) == pytest.approx(s_r_closed(validate(10**77, 0, 0)), rel=1e-12)
    with pytest.raises(DomainError, match=f"^sharp constant overflows double precision at N={2**511}$"):
        s_0_closed(2**511)


#: b_closed(M) and s_r_closed(p) before gamma_m(M) went to logs where it overflows
B_CLOSED_PINS = {5.5: "0x1.d5ce430a24b8bp+3", 100.0: "0x1.5a63af40ddae5p+22", 1e76: "0x1.d2a1be40490f4p+1005"}
S_R_CLOSED_PINS = {
    (5, 1.0, 1.0): "0x1.bb60649655d29p+7",
    (6, 1.3, -0.6): "0x1.ecb648f1a5ad9p+5",
    (5, 0.1, -1.89793): "0x1.75673fd319440p+2",
    (12, -5.0, -6.99): "0x1.40c2b459aa119p+5",
    (10**77, 0.0, 0.0): "0x1.b321c3bfd26dfp+515",
}


def test_b_closed_answers_where_gamma_m_overflows():
    """gamma_m(M) ~ M^4 overflows from M ~ 1.2e77, b_closed ~ M^4/16 from M ~ 2.3e77, and the radial
    constant they feed stays in range: at (10^100, 0, 0) it is s_0_closed(10^100).  gamma_m(M) goes
    to logs only where it overflows, so every M and point that answered keeps its bits."""
    assert {M: b_closed(M).hex() for M in B_CLOSED_PINS} == B_CLOSED_PINS
    assert {pt: s_r_closed(validate(*pt)).hex() for pt in S_R_CLOSED_PINS} == S_R_CLOSED_PINS
    assert b_closed(2e77) == pytest.approx(1e308, rel=1e-12)
    assert b_closed(1e100) == math.inf
    assert s_r_closed(validate(10**100, 0, 0)) == pytest.approx(s_0_closed(10**100), rel=1e-12)


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
    with pytest.raises(ParamError, match=r"^dimension must be an integer >= 5, got N=0$"):
        beta_fs(0, 1.0)


def _exact_upper_end(N, alpha):
    """N alpha/(N-2) to 50 digits, rounded to the nearest double (inf beyond double range)."""
    with mpmath.workdps(50):
        return float(mpmath.mpf(alpha) * N / (N - 2))


def _exact_beta_fs(N, alpha):
    """The breaking curve to 50 digits in the stable form alpha(alpha + 2(N-2))/(N + sqrt(...)),
    rounded to the nearest double."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        return float(a * (a + 2 * (N - 2)) / (N + mpmath.sqrt(mpmath.mpf(N) ** 2 + a * a + 2 * (N - 2) * a)))


@settings(max_examples=500, deadline=None)
@given(N=st.one_of(st.integers(5, 1000), st.integers(5, 2**53 - 1)),
       alpha=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e15, 1e15), st.floats(1e300, 1.7976931348623157e308)))
@example(N=2**53 - 1, alpha=1.0)
@example(N=5, alpha=1e308)  # N*alpha overflows, N*alpha/(N-2) does not
@example(N=5, alpha=1.5e308)  # the end itself overflows
def test_beta_strip_keeps_its_bits_below_2_53(N, alpha):
    """Below N = 2^53, wherever the float expression N*alpha/(N-2.0) is finite, the upper end is
    that expression to the bit, so the scan CSV and every fixture keep their bits; where it is
    not, the end is N*alpha/(N-2) correctly rounded, inf only where that leaves double range."""
    assume(alpha > 2 - N)
    top = N * alpha / (N - 2.0)
    if math.isfinite(top):
        assert beta_strip(N, alpha)[1].hex() == top.hex()
    else:
        assert beta_strip(N, alpha)[1] == _exact_upper_end(N, alpha)


def test_beta_strip_rounds_its_upper_end_correctly_at_large_n():
    """From N = 2^54, N - 2.0 rounds to N, and the float expression read alpha or an ulp off the
    true end: on this seeded sample it lay below the correctly rounded end at 150 of 3000 points,
    and validate refused the double nearest beta_FS at 150.  Now the end is correctly rounded,
    within half an ulp of 50 digits, and every point on the curve is admissible."""
    rng = random.Random(1)
    for _ in range(3000):
        N, alpha = int(10 ** rng.uniform(16.5, 22.0)), 10 ** rng.uniform(-4.0, 6.0)
        assert beta_strip(N, alpha)[1] == _exact_upper_end(N, alpha)
        validate(N, alpha, _exact_beta_fs(N, alpha))


def test_beta_strip_end_at_a_huge_dimension_refuses_what_lies_above_it():
    """At N = 2^500 the end alpha N/(N-2) rounds to alpha = 1e300, where N*alpha overflowed and the
    strip once read (alpha - 2, inf): validate accepted beta = 1.9e300."""
    assert beta_strip(2**500, 1e300) == (1e300, 1e300)
    for beta in (1.9e300, 1.0000001e300):
        with pytest.raises(ParamError, match=r"^beta must not exceed N\*alpha/\(N-2\) = 1e\+300, got beta="):
            validate(2**500, 1e300, beta)


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


@pytest.mark.parametrize("N", [4, 2**512, N_DOUBLE_MAX + 1, 2**600], ids=["4", "2^512", "just_above", "2^600"])
def test_every_function_taking_a_dimension_refuses_a_non_dimension(capsys, N):
    """Each raises beta_strip's ParamError, never an OverflowError, a NaN, (inf, 0), a DomainError
    or a profile with a huge exponent; scan and fs-curve exit 2 with that message."""
    with pytest.raises(ParamError) as strip:
        beta_strip(N, 1.0)
    message = str(strip.value)
    prof, shifted = BATTERY_PROFILES[0][1], rellich_sobolev_extremal(5, 1.0 / 3.0)
    for compute in (
        lambda: beta_fs(N, 1.0),
        lambda: b_fs_first_order(N, -0.5),
        lambda: fs_correspondence(N, 1.0),
        lambda: rellich_infimum(N, 0.5),
        lambda: s_0_closed(N),
        lambda: check_pohozaev_identity(TestFunction(prof, 1), N),
        lambda: rellich_sobolev_constants(N, -0.5),
        lambda: rellich_sobolev_extremal(N, 1.0 / 3.0),
        lambda: check_rellich_sobolev(shifted, N, 1.0 / 3.0),
        lambda: check_boundary_sharp_constant(N, -1.0),
    ):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            compute()
    for command in (["scan", "--beta", "1"], ["fs-curve"]):
        assert main([command[0], "--N", str(N), "--alpha", "1", *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@st.composite
def _triples_near_the_strip_edges(draw):
    """N from 5 to 2^40 and the largest in double range, any finite alpha, and beta a few
    ulps off either end of alpha's strip, or +-inf, or NaN."""
    N = draw(st.one_of(st.integers(min_value=5, max_value=60), st.integers(min_value=5, max_value=2**40),
                       st.just(N_DOUBLE_MAX)))
    alpha = draw(st.one_of(st.floats(min_value=-1.7e308, max_value=1.7e308),
                           st.builds(_ulps, st.sampled_from([2.0 - N, 0.0, 1.7e308]), st.integers(-4, 4))))
    end = draw(st.sampled_from([alpha - 2.0, N * alpha / (N - 2.0)]))
    beta = draw(st.one_of(st.builds(_ulps, st.just(end), st.integers(-4, 4)),
                          st.sampled_from([math.inf, -math.inf, math.nan])))
    return N, alpha, beta


@settings(max_examples=1000, deadline=None)
@given(_triples_near_the_strip_edges())
@example((5, 1.5e308, math.inf))
@example((2**40, 6.685339476714826e297, 1.7976931348623157e308))
def test_classify_never_tags_what_validate_refuses(triple):
    """classify tags Invalid exactly what validate refuses, but for RellichDegenerate, which
    names the refused lower edge beta = alpha - 2 (and a beta within BOUNDARY_TOL of it)."""
    tag = classify(*triple)
    try:
        validate(*triple)
    except ParamError:
        assert tag in (RegionClass.INVALID, RegionClass.RELLICH_DEGENERATE)
    else:
        assert tag is not RegionClass.INVALID


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


@settings(max_examples=500, deadline=None)
@given(N=st.one_of(st.integers(5, 1000), st.integers(5, 2**500)),
       alpha=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300), st.floats(1e150, 1e155)))
@example(N=5, alpha=1.3407807929942596e154)  # the largest alpha whose square is finite
def test_transition_curve_keeps_its_bits_wherever_the_radicand_is_finite(N, alpha):
    radicand = N * N + alpha * alpha + 2.0 * (N - 2.0) * alpha
    if 0.0 <= radicand < math.inf:
        assert beta_fs(N, alpha).hex() == (-N + math.sqrt(radicand)).hex()
    elif radicand == math.inf:
        assert math.isfinite(beta_fs(N, alpha))


@pytest.mark.parametrize("N", [5, 1000, 10**100], ids=["5", "1000", "1e100"])
@pytest.mark.parametrize("alpha", [1.35e154, 1e160, 1e200, 1e300, sys.float_info.max, -1e200])
def test_transition_curve_where_its_radicand_overflows(N, alpha):
    """alpha^2 (or 2(N-2)alpha) leaves double range from |alpha| near 1.34e154, where the curve
    once read inf; the root is then hypot(alpha + N - 2, 2 sqrt(N - 1)), against 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        exact = -N + mpmath.sqrt((a + N - 2) ** 2 + 4 * (N - 1))
    assert beta_fs(N, alpha) == pytest.approx(float(exact), rel=4e-16)


def test_the_breaking_side_stays_breaking_where_the_radicand_overflows():
    """At (5, 1e160, 1.2e160), far above the curve, classify once read ConjecturedSymmetry
    against beta_fs = inf (certify then reported a false discrepancy)."""
    assert classify(5, 1e160, 1.2e160) is RegionClass.SYMMETRY_BREAKING


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


def test_first_order_curve_refuses_outside_its_domain():
    with pytest.raises(ParamError, match=r"^correspondence defined for alpha > 0, got 0\.0$"):
        fs_correspondence(5, 0.0)
    with pytest.raises(ParamError, match=re.escape("first-order curve needs a < (N-2)/2 = 1.5, got a=1.5")):
        b_fs_first_order(5, 1.5)
