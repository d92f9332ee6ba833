"""Exact profile algebra, ground states, ODE residuals, closed constants."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ckn_lab import profiles, quadrature
from ckn_lab.params import ParamError, Params, _scaled_b_closed, derive, s_0_closed, sphere_area, validate
from ckn_lab.profiles import (
    GaussianProfile,
    PowerPeakProfile,
    amplitude_constant,
    cosh_profile_residual,
    _frac,
    emden_fowler,
    euler_lagrange_residual,
    extremal,
    s_r_closed,
    weighted_laplacian,
)
from ckn_lab.specfun import DomainError
from ckn_lab.verify import EXTREMALITY_POINTS

R_SAMPLES = np.geomspace(1e-3, 1e3, 41)


# -- algebra ----------------------------------------------------------------


def test_eval_matches_direct_formula():
    prof = PowerPeakProfile([(2.0, 1, -3), (-0.5, 3, -2)], sigma=2, nu=1.5)
    for r in (0.1, 1.0, 7.3):
        direct = 2.0 * r * (1.5 + r * r) ** -3 - 0.5 * r**3 * (1.5 + r * r) ** -2
        assert prof.eval(r) == pytest.approx(direct, rel=1e-14)


def test_eval_at_origin_is_safe():
    prof = PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0)
    assert prof.eval(0.0) == pytest.approx(1.0, rel=1e-14)
    assert prof.jet(0.0, 1)[1] == 0.0


def test_derivative_against_finite_differences():
    prof = PowerPeakProfile([(1.0, 2, -3), (0.7, 0, -1)], sigma=3, nu=2.0)
    h = 1e-6
    for r in (0.3, 1.1, 4.0):
        fd = (prof.eval(r + h) - prof.eval(r - h)) / (2.0 * h)
        assert prof.jet(r, 1)[1] == pytest.approx(fd, rel=1e-8)


def test_fourth_derivative_of_known_function():
    # f = (1+r^2)^(-1): f'''' has the closed form 24(5r^4-10r^2+1)/(1+r^2)^5
    prof = PowerPeakProfile([(1.0, 0, -1)], sigma=2, nu=1.0)
    for r in (0.2, 1.0, 3.0):
        expected = 24.0 * (5.0 * r**4 - 10.0 * r**2 + 1.0) / (1.0 + r * r) ** 5
        assert prof.jet(r, 4)[4] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-4, max_value=-1),
)
def test_power_multiplication_product_rule(c, p, e):
    """d/dr[r^2 f] = 2r f + r^2 f' pointwise, exactly in the algebra."""
    if c == 0.0:
        return
    f = PowerPeakProfile([(c, p, e)], sigma=2, nu=1.0)
    lhs = f.times_power(2)
    rs = np.array([0.5, 1.0, 2.5])
    got = lhs.jet(rs, 1)[1]
    want = 2.0 * rs * f.eval(rs) + rs * rs * f.jet(rs, 1)[1]
    # the oracle itself cancels near sign changes, so allow tiny absolute slack
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_addition_requires_matching_shape():
    a = PowerPeakProfile([(1.0, 0, -1)], sigma=2, nu=1.0)
    b = PowerPeakProfile([(1.0, 0, -1)], sigma=3, nu=1.0)
    with pytest.raises(DomainError):
        a + b


def test_addition_of_a_non_profile_is_a_type_error():
    with pytest.raises(TypeError):
        PowerPeakProfile([(1.0, 0, -1)], sigma=2, nu=1.0) + 1.0


def test_compose_power_substitutes_radius():
    f = PowerPeakProfile([(1.0, 1, -2)], sigma=2, nu=1.0)
    g = f.compose_power(3)  # g(r) = f(r^3)
    for r in (0.4, 1.7):
        assert g.eval(r) == pytest.approx(f.eval(r**3), rel=1e-13)


def test_canonical_collapses_exact_cancellation_to_empty():
    # (1+r^2)^2 - 2 r^2 (1+r^2) + r^4 - 1 == 0 identically, but the four
    # cells live at three different peak levels so the plain term-merge
    # cannot see it; canonical() must
    f = PowerPeakProfile(
        [(1.0, 0, 2), (-2.0, 2, 1), (1.0, 4, 0), (-1.0, 0, 0)], sigma=2, nu=1.0
    )
    g = f.canonical()
    assert len(g.terms) == 0
    np.testing.assert_allclose(g.eval(R_SAMPLES), 0.0, atol=1e-300)


def test_canonical_preserves_values():
    # (1+r^2)^2 - (1 + r^4) == 2 r^2
    f = PowerPeakProfile([(1.0, 0, 2), (-1.0, 0, 0), (-1.0, 4, 0)], sigma=2, nu=1.0)
    g = f.canonical()
    np.testing.assert_allclose(g.eval(R_SAMPLES), 2.0 * R_SAMPLES**2, rtol=1e-12)
    assert len(g.terms) == 1


def test_gaussian_profile_derivatives():
    g = GaussianProfile([(1.0, 0)])
    for r in (0.0, 0.5, 2.0):
        assert g.eval(r) == pytest.approx(math.exp(-r * r), rel=1e-14)
        assert g.jet(r, 1)[1] == pytest.approx(-2.0 * r * math.exp(-r * r), rel=1e-13)
        assert g.jet(r, 2)[2] == pytest.approx(
            (4.0 * r * r - 2.0) * math.exp(-r * r), rel=1e-13
        )


# -- evaluation in one log pass, bit for bit -----------------------------------


def _eval_by_terms(prof, r):
    """A power-peak profile as a per-term loop over float arrays from a
    zeros_like start, each term's sign multiplied in, as eval once computed."""
    arr = np.asarray(r, dtype=float)
    coeffs = [float(c) for c, _, _ in prof.terms]
    sign = np.array([math.copysign(1.0, c) for c in coeffs])
    logc = np.array([math.log(abs(c)) for c in coeffs])
    pf = np.array([float(p) for _, p, _ in prof.terms])
    ef = np.array([float(e) for _, _, e in prof.terms])
    with np.errstate(all="ignore"):
        lr = np.log(arr)
        lpk = np.logaddexp(math.log(prof.nu), prof.sigma * lr)
        out = np.zeros_like(arr)
        for i in range(len(prof.terms)):
            expo = logc[i]
            if pf[i] != 0.0:
                expo = expo + pf[i] * lr
            if ef[i] != 0.0:
                expo = expo + ef[i] * lpk
            out = out + sign[i] * np.exp(expo)
    return float(out) if arr.ndim == 0 else out


def _gaussian_eval_by_terms(prof, r):
    """The Gaussian family's per-term loop, as eval once computed."""
    arr = np.asarray(r, dtype=float)
    with np.errstate(all="ignore"):
        lr = np.log(arr)
        damp = -arr * arr
        out = np.zeros_like(arr)
        for c, p in prof.terms:
            expo = math.log(abs(c)) + damp
            if p != 0.0:
                expo = expo + p * lr
            out = out + math.copysign(1.0, c) * np.exp(expo)
    return float(out) if arr.ndim == 0 else out


def _merge_by_fraction_keys(terms):
    """PowerPeakProfile's term merge over a dict keyed by Fraction tuples, as once computed."""
    merged = {}
    for c, p, e in terms:
        if not isinstance(c, Fraction):
            c = float(c)
        if c == 0:
            continue
        key = (_frac(p), _frac(e))
        merged[key] = merged.get(key, 0) + c
    return tuple((c, p, e) for (p, e), c in sorted(merged.items()) if c != 0)


def _hex(values):
    """Type, shape and float.hex of every entry: equal only bit for bit."""
    return [
        (type(v).__name__, np.shape(v), [float(x).hex() for x in np.ravel(v)]) for v in values
    ]


def _typed_terms(terms):
    return [
        tuple((type(x).__name__, x.hex() if isinstance(x, float) else x) for x in term)
        for term in terms
    ]


_EXPONENTS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), Fraction(-300)]),
    st.sampled_from([0.5, -1.5, 0.1, 2.0]),
)
_COEFFICIENTS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(min_value=-3, max_value=3),
)
_RADII = st.one_of(
    st.sampled_from([0.0, math.inf, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300]),
    st.floats(min_value=0.0, max_value=1e6),
)


@st.composite
def _term_lists(draw):
    """Terms with repeated (p, e) cells, and negated copies that cancel."""
    terms = draw(st.lists(st.tuples(_COEFFICIENTS, _EXPONENTS, _EXPONENTS), max_size=5))
    if terms:
        terms += draw(st.lists(st.sampled_from(terms), max_size=3))
        terms += [(-c, p, e) for c, p, e in draw(st.lists(st.sampled_from(terms), max_size=2))]
    return terms


@st.composite
def _radii(draw):
    """An array of radii or, as 0-d input, one radius."""
    if draw(st.booleans()):
        return np.asarray(draw(_RADII))
    return np.array(draw(st.lists(_RADII, max_size=8)))


@settings(max_examples=100, deadline=None)
@given(
    terms=_term_lists(),
    sigma=st.sampled_from([2, Fraction(1, 2), Fraction(7, 3), 2.5]),
    nu=st.sampled_from([1.0, 0.5, Fraction(1, 3), 3.0]),
)
def test_terms_match_the_fraction_keyed_merge(terms, sigma, nu):
    """Integer keys merge the same cells, in the same order, into the same sums."""
    got = PowerPeakProfile(terms, sigma, nu).terms
    assert _typed_terms(got) == _typed_terms(_merge_by_fraction_keys(terms))


# -- the exponent lattice against the Fraction algebra ------------------------


def _reference_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))  # exact: binary floats are dyadic rationals


class _FractionPowerPeak:
    """PowerPeakProfile's algebra with every exponent a `Fraction`, as once computed:
    the reference the integer lattice must reproduce bit for bit."""

    def __init__(self, terms, sigma, nu=1.0):
        sigma = _reference_frac(sigma)
        if sigma <= 0:
            raise DomainError(f"sigma must be positive, got {float(sigma)}")
        if not nu > 0:
            raise DomainError(f"nu must be positive, got {nu}")
        merged = {}
        for c, p, e in terms:
            if not isinstance(c, Fraction):
                c = float(c)
            if c == 0:
                continue
            p, e = _reference_frac(p), _reference_frac(e)
            cell = merged.setdefault((p.numerator, p.denominator, e.numerator, e.denominator), [p, e, 0])
            cell[2] = cell[2] + c
        self.terms = tuple((c, p, e) for p, e, c in sorted(merged.values()) if c != 0)
        self.sigma_frac = sigma
        self.sigma = float(sigma)
        self.nu = nu if isinstance(nu, Fraction) else float(nu)

    @property
    def _float_view(self) -> list:
        return [(float(c) > 0.0, math.log(abs(float(c))), float(p), float(e)) for c, p, e in self.terms]

    def differentiate(self):
        new_terms = []
        for c, p, e in self.terms:
            if p != 0:
                new_terms.append((c * p, p - 1, e))
            if e != 0:
                new_terms.append((c * (e * self.sigma_frac), p + self.sigma_frac - 1, e - 1))
        return _FractionPowerPeak(new_terms, self.sigma_frac, self.nu)

    def times_power(self, k):
        k = _reference_frac(k)
        return _FractionPowerPeak([(c, p + k, e) for c, p, e in self.terms], self.sigma_frac, self.nu)

    def scaled(self, a):
        return _FractionPowerPeak([(a * c, p, e) for c, p, e in self.terms], self.sigma_frac, self.nu)

    def compose_power(self, k):
        k = _reference_frac(k)
        if k <= 0:
            raise DomainError("compose_power requires a positive exponent")
        return _FractionPowerPeak([(c, p * k, e) for c, p, e in self.terms], self.sigma_frac * k, self.nu)

    def canonical(self):
        groups = {}
        for c, p, e in self.terms:
            res = e - (e.numerator // e.denominator)
            groups.setdefault(res, []).append((c, p, e))
        new_terms = []
        for group in groups.values():
            e_min = min(e for _, _, e in group)
            for c, p, e in group:
                j = int(e - e_min)
                if j > 64:
                    raise DomainError("canonical expansion span too large")
                for i in range(j + 1):
                    new_terms.append((c * math.comb(j, i) * self.nu ** (j - i), p + i * self.sigma_frac, e_min))
        return _FractionPowerPeak(new_terms, self.sigma_frac, self.nu)

    def __add__(self, other):
        if other.sigma_frac != self.sigma_frac or other.nu != self.nu:
            raise DomainError("profiles combine only with matching sigma and nu")
        return _FractionPowerPeak(list(self.terms) + list(other.terms), self.sigma_frac, self.nu)

    def __sub__(self, other):
        return self + other.scaled(-1)


_LONG_FLOATS = st.floats(min_value=-4.0, max_value=4.0, allow_subnormal=False)
_POWERS = st.one_of(_EXPONENTS, _LONG_FLOATS)
_STEPS = st.one_of(
    st.tuples(st.just("differentiate")),
    st.tuples(st.just("canonical")),
    st.tuples(st.just("times_power"), _POWERS),
    st.tuples(st.just("compose_power"), _POWERS),
    st.tuples(st.just("scaled"), _COEFFICIENTS),
    st.tuples(st.sampled_from(["__add__", "__sub__"]), _term_lists(), st.sampled_from([1, 1, 1, 2])),
)


def _apply(cls, f, step):
    """One algebra step on f; a sum's other operand has f's sigma times `stretch`."""
    name, *args = step
    if name in ("__add__", "__sub__"):
        terms, stretch = args
        args = [cls(terms, f.sigma_frac * stretch, f.nu)]
    return getattr(f, name)(*args)


def _outcome(f):
    return _typed_terms(f.terms), f.sigma_frac, [
        (plus, float(logc).hex(), p.hex(), e.hex()) for plus, logc, p, e in f._float_view
    ], f.sigma.hex(), f.nu


@settings(max_examples=150, deadline=None)
@given(
    terms=_term_lists(),
    alpha=st.floats(min_value=-1.0, max_value=3.0),
    beta=st.floats(min_value=-3.0, max_value=6.0),
    as_float=st.booleans(),
    nu=st.one_of(st.floats(min_value=0.05, max_value=20.0), st.fractions(min_value=Fraction(1, 9), max_value=20, max_denominator=9)),
    steps=st.lists(_STEPS, max_size=5),
)
@example(terms=[(1.0, 0, Fraction(-300)), (1.0, 0, 2)], alpha=0.0, beta=0.0, as_float=False, nu=1.0, steps=[("canonical",)])
@example(terms=[(Fraction(1, 3), 1, -2)], alpha=0.3, beta=0.7, as_float=True, nu=Fraction(1, 3), steps=[("compose_power", -0.5)])
@example(terms=[(1.0, 0.1, -1.5)], alpha=0.7, beta=0.3, as_float=False, nu=1.0, steps=[("__add__", [(1.0, 0, 0)], 2)])
def test_lattice_algebra_matches_the_fraction_algebra(terms, alpha, beta, as_float, nu, steps):
    """Random chains of the algebra steps give the same exact terms and sigma, the same
    float view to the bit, and the same typed error as the Fraction-exponent algebra."""
    sigma = 2 + _reference_frac(beta) - _reference_frac(alpha)
    assume(sigma > 0)
    if as_float:
        sigma = float(sigma)
    got, want = PowerPeakProfile(terms, sigma, nu), _FractionPowerPeak(terms, sigma, nu)
    assert _outcome(got) == _outcome(want)
    for step in steps:
        try:
            want = _apply(_FractionPowerPeak, want, step)
        except DomainError as err:
            with pytest.raises(DomainError, match=re.escape(str(err))):
                _apply(PowerPeakProfile, got, step)
            return
        got = _apply(PowerPeakProfile, got, step)
        assert _outcome(got) == _outcome(want)


@settings(max_examples=120, deadline=None)
@given(
    terms=_term_lists(),
    sigma=st.sampled_from([2, Fraction(1, 2), Fraction(7, 3), 2.5]),
    nu=st.sampled_from([1.0, 0.5, Fraction(1, 3), 3.0]),
    r=_radii(),
    order=st.integers(min_value=0, max_value=3),
)
@example(terms=[(-1.0, 2, 0)], sigma=2, nu=1.0, r=np.array([1e-300, 0.0]), order=0)
@example(terms=[(-1.0, 0, -300), (1.0, 0, 0)], sigma=2, nu=1.0, r=np.asarray(1e300), order=1)
@example(terms=[(2.0, 0, 0)], sigma=2, nu=1.0, r=np.array([0.0, math.inf]), order=2)
def test_jet_matches_deriv_and_the_term_loop_bit_for_bit(terms, sigma, nu, r, order):
    """One log pass, each sign as an add or a subtract: every value as each
    derivative's own eval gives it, including +0.0 where a negative first term underflows."""
    f = PowerPeakProfile(terms, sigma, nu)
    chain = [f]
    for _ in range(order):
        chain.append(chain[-1].differentiate())
    got = _hex(f.jet(r, order))
    assert got == _hex([g.eval(r) for g in chain])
    assert got == _hex([_eval_by_terms(g, r) for g in chain])


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
            st.sampled_from([0.0, 1.0, 2.0, 3.5]),
        ),
        max_size=4,
    ),
    r=_radii(),
    order=st.integers(min_value=0, max_value=3),
)
def test_gaussian_jet_matches_deriv_and_the_term_loop_bit_for_bit(terms, r, order):
    f = GaussianProfile(terms)
    chain = [f]
    for _ in range(order):
        chain.append(chain[-1].differentiate())
    got = _hex(f.jet(r, order))
    assert got == _hex([g.eval(r) for g in chain])
    assert got == _hex([_gaussian_eval_by_terms(g, r) for g in chain])


def test_negative_term_that_underflows_reads_plus_zero():
    f = PowerPeakProfile([(-1.0, 40, 0)], sigma=2, nu=1.0)
    assert f.eval(1e-10).hex() == "0x0.0p+0"
    assert [v.hex() for v in f.jet(np.array([1e-10]), 1)[1]] == ["0x0.0p+0"]


#: jet(r, 4) of each profile, value and four derivatives, as .hex() per radius
JET_PROFILES = {
    "gaussian": GaussianProfile([(1.0, 0.0)]),
    "gaussian_two_term": GaussianProfile([(2.0, 1.0), (-0.5, 3.0)]),
    "power_peak_two_term": PowerPeakProfile([(2.0, 1, -3), (-0.5, 3, -2)], sigma=2, nu=1.5),
}
JET_HEX = {
    "gaussian": {
        0.0: ("0x1.0000000000000p+0", "0x0.0p+0", "-0x1.0000000000000p+1", "0x0.0p+0", "0x1.8000000000000p+3"),
        1e-300: ("0x1.0000000000000p+0", "-0x1.56e1fc2f8f29cp-996", "-0x1.0000000000000p+1",
                 "0x1.01297d23ab5f3p-993", "0x1.8000000000000p+3"),
        1e-3: ("0x1.ffffde7211d81p-1", "-0x1.0624cc010f47cp-9", "-0x1.ffff9b5637bb1p+0",
               "0x1.893720d38c23ep-7", "0x1.7fff822bc8698p+3"),
        1.0: ("0x1.78b56362cef38p-2", "-0x1.78b56362cef38p-1", "0x1.78b56362cef36p-1",
              "0x1.78b56362cef3ap+0", "-0x1.d6e2bc3b82b0bp+2"),
        7.3: ("0x1.15f81e103a06ep-77", "-0x1.fb4b36dd9d18ap-74", "0x1.ca8ff4cb91a42p-70",
              "-0x1.9a82fc1e4b3dbp-66", "0x1.6bd8265212741p-62"),
        30.0: ("0x0.0p+0",) * 5,
    },
    "gaussian_two_term": {
        0.0: ("0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0", "-0x1.e000000000000p+3", "0x0.0p+0"),
        1e-300: ("0x1.56e1fc2f8f29cp-996", "0x1.0000000000000p+1", "-0x1.4173dc6c9645bp-993",
                 "-0x1.e000000000000p+3", "0x1.e22dcaa2e1877p-990"),
        1e-3: ("0x1.0624c7b58c95cp-9", "0x1.ffff822bc709bp+0", "-0x1.eb84de4ba8b77p-7",
               "-0x1.dfff4341af061p+3", "0x1.70a39545fc4aep-3"),
        1.0: ("0x1.1a880a8a1b36ap-1", "-0x1.d6e2bc3b82b04p-1", "-0x1.78b56362cef38p-1",
              "0x1.1a880a8a1b366p+3", "-0x1.9040b998fbe3ep+3"),
        7.3: ("-0x1.86b20bf9a31a8p-70", "0x1.59ee86c21ec37p-66", "-0x1.2f24d3a3f5f23p-62",
              "0x1.06d36fc3c8343p-58", "-0x1.c2bc88cbf1aa9p-55"),
        30.0: ("0x0.0p+0",) * 5,
    },
    "power_peak_two_term": {
        0.0: ("0x0.0p+0", "0x1.2f684bda12f68p-1", "0x0.0p+0", "-0x1.0e38e38e38e39p+3", "0x0.0p+0"),
        1e-300: ("0x1.96612ae308830p-998", "0x1.2f684bda12f68p-1", "-0x1.69ee8a3233aecp-994",
                 "-0x1.0e38e38e38e39p+3", "0x1.2d9c1dd480668p-989"),
        1e-3: ("0x1.36b03e150bbf2p-11", "0x1.2f67be2d8abd3p-1", "-0x1.14b4d1c39fc80p-7",
               "-0x1.0e37f76ec405ep+3", "0x1.cd2cfc92afa7ep-3"),
        1.0: ("0x1.89374bc6a7efcp-5", "-0x1.2a305532617c1p-2", "0x1.5ca6ca03c4afep-3",
              "0x1.512ec6bce8537p+0", "-0x1.d323fee2c98f4p+2"),
        7.3: ("-0x1.09088a9dfc3a0p-4", "0x1.0111a3ba7ce9cp-7", "-0x1.c87fc65fbd970p-10",
              "0x1.05ebd29ce2600p-11", "-0x1.14cefef775200p-13"),
        30.0: ("-0x1.1028499c1b832p-6", "0x1.205d04f501926p-11", "-0x1.307dc44f6e2b0p-15",
               "0x1.e09788b804540p-19", "-0x1.f7db800e10800p-22"),
    },
}


@pytest.mark.parametrize("name", sorted(JET_PROFILES))
def test_jet_is_pinned_bit_for_bit(name):
    """Both families' jets to order 4 keep their bits at the origin, deep inside, near and far."""
    f = JET_PROFILES[name]
    assert {r: tuple(v.hex() for v in f.jet(r, 4)) for r in JET_HEX[name]} == JET_HEX[name]


#: a fresh, never-evaluated profile of each family per call, and the minimizer
KEPT_JET_PROFILES = {
    "power_peak": lambda: PowerPeakProfile([(2.0, 1, -3), (-0.5, 3, -2)], sigma=2, nu=1.5),
    "gaussian": lambda: GaussianProfile([(2.0, 1.0), (-0.5, 3.0)]),
    "extremal": lambda: extremal(validate(5, 1.0, 1.0)),
}
FIRST_CALL_GRID = quadrature._grid(quadrature._H0 / 2**quadrature._FIRST)[0]  # 453 abscissae


@pytest.mark.parametrize("r", [0.7, FIRST_CALL_GRID], ids=["scalar", "first_call_grid"])
@pytest.mark.parametrize("name", sorted(KEPT_JET_PROFILES))
def test_jet_returns_its_kept_values_on_bitwise_equal_abscissae(monkeypatch, name, r):
    """A repeated jet on abscissae of the same shape and bytes, at an order no higher, evaluates
    nothing and returns a fresh profile's bits; any other abscissae or a higher order evaluate."""
    want = _hex(KEPT_JET_PROFILES[name]().jet(r, 4))
    calls, values = [], profiles._values

    def counted(chain, at):
        calls.append(np.shape(at))
        return values(chain, at)

    monkeypatch.setattr(profiles, "_values", counted)
    f = KEPT_JET_PROFILES[name]()
    assert _hex(f.jet(r, 4)) == want and len(calls) == 1
    for order in range(5):
        assert _hex(f.jet(r, order)) == want[: order + 1]  # a lower order returns the prefix
        assert _hex(f.jet(np.array(r), order)) == want[: order + 1]  # a fresh array, equal bytes
    assert _hex([f.eval(r)]) == want[:1] and len(calls) == 1
    mine = f.jet(r, 2)
    mine[0] = None
    mine.append(0.0)
    assert _hex(f.jet(r, 2)) == want[:3] and len(calls) == 1
    if np.ndim(r):
        for v in (*f.jet(r, 4), f.eval(r)):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.0

    g = KEPT_JET_PROFILES[name]()
    g.jet(r, 2)
    assert _hex([g.eval(r)]) == want[:1] and len(calls) == 2  # eval after jet(r, 2) is a hit
    assert _hex(g.jet(r, 3)) == want[:4] and len(calls) == 3  # a higher order evaluates again
    row = g.jet(np.reshape(r, (1, -1)), 1)  # another shape, the same bytes: evaluated again
    assert [np.shape(v) for v in row] == [(1, np.size(r))] * 2 and len(calls) == 4
    assert [bits for _, _, bits in _hex(row)] == [bits for _, _, bits in want[:2]]
    moved = np.array(r, ndmin=1)
    g.jet(moved, 1)
    moved[-1] *= 2.0
    row, n = g.jet(moved, 1), len(calls)  # the same array, written into: evaluated again
    assert _hex(row) == _hex(KEPT_JET_PROFILES[name]().jet(moved.copy(), 1)) and n == 6


@pytest.mark.parametrize(
    "f", [PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0), GaussianProfile([(1.0, 0.0)])]
)
@pytest.mark.parametrize("order", [-1, 1.5, 2.0, "1"])
def test_derivative_order_must_be_a_nonnegative_integer(f, order):
    """Also when the call would find its abscissae's jet kept."""
    f.jet(0.5, 2)
    f.jet(0.5, 1)
    with pytest.raises(DomainError, match="derivative order"):
        f.jet(0.5, order)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_nonpositive_scaling_is_a_domain_error(p511, lam):
    with pytest.raises(DomainError, match="scaling parameter"):
        extremal(p511, lam)


@pytest.mark.parametrize(
    "point, lam",
    [
        ((5, 1.0, 1.0), 1e-200),  # lam^(-2) overflows
        ((5, 1.0, 1.0), 1e200),  # lam^(-2) underflows to 0
        ((5, 1.0, 1.0), 1e154),  # lam^(-2) is subnormal
        ((12, 1.0, 0.0), 1e-60),  # lam^(-5) is finite, the amplitude times it is not
        ((12, 1.0, 0.0), 1e70),  # lam^(-5) underflows; nu = lam^(-1) is fine
    ],
)
def test_scaling_out_of_double_range_is_a_domain_error_naming_lam(point, lam):
    """The error names lam, not an overflow or a nu of 0."""
    with pytest.raises(DomainError) as err:
        extremal(validate(*point), lam)
    assert type(err.value) is DomainError
    assert str(err.value).startswith(f"scaling parameter {lam!r} puts nu = lam^(")
    assert str(err.value).endswith("outside double range")


@pytest.mark.parametrize("lam", [1e-150, 1e-3, 1.0, 7.5, 1e150])
def test_scaling_inside_double_range_keeps_the_power_expressions(p511, lam):
    """In range, nu and the coefficient are the plain float powers, bit for bit."""
    u = extremal(p511, lam)
    assert u.nu.hex() == (lam ** -2.0).hex()
    assert u.terms[0][0].hex() == (amplitude_constant(p511) * lam ** -1.0).hex()


@pytest.mark.parametrize("nu", [math.nan, 0.0, -1.0])
def test_nan_or_nonpositive_nu_is_a_domain_error(nu):
    with pytest.raises(DomainError, match="nu must be positive"):
        PowerPeakProfile([(1.0, 0, -1)], sigma=2, nu=nu)


@pytest.mark.parametrize(
    "terms, sigma, nu, name",
    [
        ([(1.0, 0, -2)], math.nan, 1.0, "sigma"),
        ([(1.0, 0, -2)], math.inf, 1.0, "sigma"),
        ([(1.0, 0, -2)], -math.inf, 1.0, "sigma"),
        ([(1.0, math.nan, -2)], 2, 1.0, "p"),
        ([(1.0, -math.inf, -2)], 2, 1.0, "p"),
        ([(1.0, 0, math.nan)], 2, 1.0, "e"),
        ([(1.0, 0, math.inf)], 2, 1.0, "e"),
        ([(1.0, 0, -2)], 2, math.inf, "nu"),
    ],
)
def test_non_finite_sigma_exponent_or_nu_is_a_domain_error_naming_it(terms, sigma, nu, name):
    """Not a ValueError or OverflowError from the exact conversion, nor an infinite nu
    whose profile reads a plausible 0.0."""
    with pytest.raises(DomainError, match=rf"^{name} must be "):
        PowerPeakProfile(terms, sigma, nu)


@pytest.mark.parametrize("method", ["times_power", "compose_power"])
@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_power_is_a_domain_error(method, k):
    f = PowerPeakProfile([(1.0, 0, -2)], sigma=2, nu=1.0)
    with pytest.raises(DomainError, match="^power must be finite"):
        getattr(f, method)(k)


def test_non_finite_coefficient_is_kept():
    """A coefficient is not checked: emden_fowler reports its own overflow."""
    f = PowerPeakProfile([(math.inf, 0, -2)], sigma=2, nu=1.0)
    assert f.terms == ((math.inf, 0, -2),)


# -- ground-state family ------------------------------------------------------


def test_amplitude_constant_reference_values(p511, p500):
    assert amplitude_constant(p511) == pytest.approx(384.0**0.25, rel=1e-13)
    assert amplitude_constant(p500) == pytest.approx(105.0**0.125, rel=1e-13)


def test_amplitude_constant_overflow_is_domain_error():
    with pytest.raises(DomainError, match="M="):
        amplitude_constant(validate(5, 0.1, -1.89793))


def test_extremal_peak_value(p511):
    u = extremal(p511)
    assert u.eval(0.0) == pytest.approx(384.0**0.25, rel=1e-13)


def test_extremal_dilation_family(p511):
    """u_lam(r) = lam^(kappa/2) u(lam r), with kappa = 2 here."""
    u1 = extremal(p511)
    u2 = extremal(p511, lam=2.0)
    for r in (0.1, 1.0, 5.0):
        assert u2.eval(r) == pytest.approx(2.0 * u1.eval(2.0 * r), rel=1e-13)


def test_scaling_direction_is_dilation_derivative(p511):
    """d/dlam u_lam at lam=1 is proportional to the scaling direction
    Z0 = (1 - r^sigma)(1 + r^sigma)^(-(N-2+alpha)/sigma).

    The ratio is (kappa/2)*C and must be r-independent; r=1 sits exactly
    at the sign change of both sides, so probe off the node.
    """
    h = 1e-6
    sigma = 2.0 + p511.beta - p511.alpha
    expected = 0.5 * 2.0 * 384.0**0.25  # kappa/2 * C
    for r in (0.3, 1.3, 3.0):
        z0 = (1.0 - r**sigma) * (1.0 + r**sigma) ** (-(p511.N - 2.0 + p511.alpha) / sigma)
        fd = (extremal(p511, 1.0 + h).eval(r) - extremal(p511, 1.0 - h).eval(r)) / (
            2.0 * h
        )
        assert fd / z0 == pytest.approx(expected, rel=1e-7)


def _reference_exponents(p):
    """sigma and kappa as the builders once wrote them, the reference of the pins below."""
    sigma = Fraction(2) + _frac(p.beta) - _frac(p.alpha)
    kappa = Fraction(p.N - 4) + 2 * _frac(p.alpha) - _frac(p.beta)
    return sigma, kappa


@st.composite
def _admissible(draw):
    """A validated triple anywhere in the admissible box, its edges included."""
    N = draw(st.integers(min_value=5, max_value=12))
    alpha = draw(st.one_of(
        st.floats(min_value=2.0 - N, max_value=8.0, exclude_min=True),
        st.sampled_from([math.nextafter(2.0 - N, 0.0), 0.0, 1.0, 8.0]),
    ))
    lower, upper = alpha - 2.0, N * alpha / (N - 2)
    edges = st.sampled_from([math.nextafter(lower, math.inf), upper])
    inner = st.floats(min_value=lower, max_value=upper, exclude_min=True) if lower < upper else edges
    beta = draw(st.one_of(edges, inner))
    try:
        return validate(N, alpha, beta)
    except ParamError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(
    p=_admissible(),
    lam=st.one_of(
        st.just(1.0),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([1e-150, 1e-60, 1e70, 1e154, 1e200]),
    ),
)
@example(p=validate(5, 1.0, 1.0), lam=1.0)
@example(p=validate(5, 1.0, 5.0 / 3.0), lam=1e3)
@example(p=Params(5, np.int64(1), np.int64(1)), lam=1.0)  # a Params built directly from numpy's ints
def test_extremal_keeps_the_exponents_and_bits_it_was_built_with(p, lam):
    """terms, sigma and nu of the minimizer are those of the formulas it was first built from."""
    sigma, kappa = _reference_exponents(p)
    try:
        coeff = amplitude_constant(p) * lam ** (-float(kappa) / 2.0)
        nu = lam ** (-float(sigma))
    except (DomainError, OverflowError):
        coeff = nu = math.inf
    if not (sys.float_info.min <= coeff < math.inf and sys.float_info.min <= nu < math.inf):
        with pytest.raises(DomainError):
            extremal(p, lam)
        return
    u = extremal(p, lam)
    assert u.sigma_frac == sigma
    assert u.nu.hex() == nu.hex()
    ((c, p0, e0),) = u.terms
    assert (c.hex(), p0, e0) == (coeff.hex(), 0, -kappa / sigma)


# -- operators and residuals --------------------------------------------------


def test_weighted_laplacian_reduces_to_laplacian(p500):
    # alpha=0: operator is f'' + (N-1) f'/r; check on (1+r^2)^(-1), N=5
    f = PowerPeakProfile([(1.0, 0, -1)], sigma=2, nu=1.0)
    lap = weighted_laplacian(f, 0.0, 5)
    for r in (0.3, 1.0, 2.0):
        t = 1.0 + r * r
        expected = (8.0 * r * r / t**3 - 2.0 / t**2) + (5.0 - 1.0) / r * (
            -2.0 * r / t**2
        )
        assert lap.eval(r) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "apply",
    [lambda u, p: weighted_laplacian(u, p.alpha, p.N), euler_lagrange_residual, emden_fowler],
    ids=["weighted_laplacian", "euler_lagrange_residual", "emden_fowler"],
)
def test_operators_reject_a_profile_outside_the_power_peak_family(apply, p511):
    """They rewrite power-peak terms; a Gaussian profile is a DomainError, not an AttributeError."""
    with pytest.raises(DomainError, match="GaussianProfile is outside the power-peak family"):
        apply(GaussianProfile([(1.0, 0.0)]), p511)


def test_fraction_coefficients_stay_exact():
    third = Fraction(1, 3)
    f = PowerPeakProfile([(third, 1, -2)], sigma=2, nu=third)
    assert f.differentiate().terms == ((third, 0, -2), (Fraction(-4, 3), 2, -3))
    # (nu + r^2)^-1 - r^2 (nu + r^2)^-2 reduces to nu (nu + r^2)^-2
    g = PowerPeakProfile([(Fraction(1), 0, -1), (Fraction(-1), 2, -2)], 2, third)
    assert g.canonical().terms == ((third, 0, -2),)
    assert (f - f).terms == ()
    assert f.eval(0.7) == pytest.approx(0.7 / 3.0 / (1.0 / 3.0 + 0.49) ** 2, rel=1e-15)


EL_POINTS = [(5, 1.0, 1.0), (5, 0.0, 0.0), (6, 1.0, 0.5), (5, -1.0, -1.7)]


@pytest.mark.parametrize("N, alpha, beta", EL_POINTS)
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_ground_state_solves_euler_lagrange(N, alpha, beta, lam):
    p = validate(N, alpha, beta)
    res = euler_lagrange_residual(extremal(p, lam=lam), p)
    assert res < 1e-12


@pytest.mark.parametrize("N, alpha, beta", EXTREMALITY_POINTS)
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_exact_euler_lagrange_defect_is_one_cell(N, alpha, beta, lam, monkeypatch):
    """The exact operator chain cancels down to the right side's own cell."""
    canonical_forms = []
    canonical = PowerPeakProfile.canonical

    def record(self):
        out = canonical(self)
        canonical_forms.append(out)
        return out

    monkeypatch.setattr(PowerPeakProfile, "canonical", record)
    p = validate(N, alpha, beta)
    u = extremal(p, lam=lam)
    euler_lagrange_residual(u, p)
    (defect,) = canonical_forms
    ((c, pp, ee),) = defect.terms
    a, p0, e0 = u.terms[0]
    p_star = derive(p).p_star
    assert isinstance(c, Fraction)
    assert ee == e0 - 4
    # decays like r^beta u^(p*-1), the right side built from the solution
    assert float(pp + u.sigma_frac * ee) == pytest.approx(
        beta + (p_star - 1.0) * float(p0 + u.sigma_frac * e0), rel=1e-12
    )
    assert abs(c) < 1e-13 * abs(a) ** (p_star - 2.0)


#: euler_lagrange_residual(extremal(p, lam), p).hex() at lam = 1 and 1e3
EL_HEX = {
    (5, 0.0, 0.0): ("0x1.381381381382ap-52", "0x1.91940b0c30c50p-51"),
    (5, 1.0, 1.0): ("0x1.0000000000015p-52", "0x1.85d2c2a000022p-52"),
    (5, 1.0, 0.3): ("0x1.16f7d75d1056fp-50", "0x1.2f0f4ff6b26ebp-49"),
    (5, 1.0, 5.0 / 3.0): ("0x1.315f15f15f186p-52", "0x1.1e63eb831e9f3p-50"),
    (5, -1.0, -5.0 / 3.0): ("0x1.5075075075091p-52", "0x1.935f1a83a83dbp-52"),
    (5, -1.0, -1.7): ("0x1.b300a05af8881p-54", "0x1.26bbe143e3f77p-51"),
    (6, 1.0, 0.5): ("0x1.2012012012028p-52", "0x1.33f0dd76f412dp-50"),
    (6, 2.0, 2.5): ("0x1.6f26016f2603ep-51", "0x1.1b03670c60ef3p-49"),
    (7, 2.0, 1.3): ("0x1.ae96abda1a013p-50", "0x1.7c90d8c5fa280p-53"),
    (8, -2.0, -8.0 / 3.0): ("0x1.13999999999b2p-49", "0x1.80df01ccccd0ep-51"),
}


def test_el_pins_cover_the_extremality_points():
    assert tuple(EL_HEX) == EXTREMALITY_POINTS


@pytest.mark.parametrize("N, alpha, beta", EXTREMALITY_POINTS)
def test_euler_lagrange_residual_is_pinned_bit_for_bit(N, alpha, beta):
    p = validate(N, alpha, beta)
    got = tuple(euler_lagrange_residual(extremal(p, lam=lam), p).hex() for lam in (1.0, 1e3))
    assert got == EL_HEX[(N, alpha, beta)]


@pytest.mark.parametrize("N, alpha, beta", EXTREMALITY_POINTS)
def test_negative_multiple_of_the_minimizer_solves_euler_lagrange(N, alpha, beta):
    """|u|^(p*-2) u is odd in u, so -u solves the equation whenever u does."""
    p = validate(N, alpha, beta)
    assert euler_lagrange_residual(extremal(p).scaled(-1), p) < 1e-8


@pytest.mark.parametrize("point", [(5, 1.0, 0.3), (6, 2.0, 2.5)])
@pytest.mark.parametrize("sigma", [2, 4])
def test_single_term_residual_meets_the_parameters_equation(point, sigma):
    """A single-term profile whose sigma is not 2+beta-alpha is judged against
    the same p* as the same function written as two terms."""
    p = validate(*point)
    one = PowerPeakProfile([(1.0, 0, -1.5)], sigma=sigma)
    two = PowerPeakProfile([(1.0, 0, -2.5), (1.0, sigma, -2.5)], sigma=sigma)
    for r in (0.5, 1.0, 2.0):
        assert euler_lagrange_residual(one, p, samples=[r]) == pytest.approx(
            euler_lagrange_residual(two, p, samples=[r]), rel=1e-9
        )


def test_perturbed_amplitude_fails_euler_lagrange(p511):
    u = extremal(p511)
    wrong = PowerPeakProfile(
        [(1.1 * c, pp, ee) for c, pp, ee in u.terms], sigma=u.sigma_frac, nu=u.nu
    )
    assert euler_lagrange_residual(wrong, p511) > 1e-2


@pytest.mark.parametrize("samples", [[], [math.nan], [math.inf], [-1.0], [0.0]], ids=str)
def test_euler_lagrange_residual_refuses_samples_it_cannot_judge(p511, samples):
    """An empty set once leaked numpy's ValueError, and nan, inf, -1 and 0 answered nan or 0.0."""
    with pytest.raises(DomainError, match=r"^residual samples must be radii r with 0 < r < inf, at least one"):
        euler_lagrange_residual(extremal(p511), p511, samples=samples)


def test_transform_to_autonomous_picture(p511):
    """phi of the ground state matches the closed cosh form."""
    u = extremal(p511)
    phi, residual = emden_fowler(u, p511)
    assert phi(0.0) == pytest.approx(384.0**0.25 / 2.0, rel=1e-12)
    ts = np.linspace(-5.0, 5.0, 41)
    # closed form at M=6: 384^(1/4) (2 cosh t)^(-1)
    closed = 384.0**0.25 / (2.0 * np.cosh(ts))
    np.testing.assert_allclose(phi(ts), closed, rtol=1e-11)
    assert np.max(np.abs(residual(ts))) < 1e-10


@pytest.mark.parametrize("point", [(5, 1.0, 1.0), (5, 10.0, 10.0), (5, 100.0, 100.0)])
def test_relative_transform_residual_judges_the_profile_not_its_size(point):
    """The ground state passes at any amplitude; twice the ground state fails."""
    p = validate(*point)
    ts = np.linspace(-6.0, 6.0, 101)
    _, residual = emden_fowler(extremal(p), p)
    assert np.max(residual(ts, relative=True)) < 1e-10
    _, wrong = emden_fowler(extremal(p).scaled(2.0), p)
    assert np.max(wrong(ts, relative=True)) >= 0.05
    assert wrong(0.0, relative=True) >= 0.05


@pytest.mark.parametrize(
    ("beta", "message"),
    [
        (-1.852, "Emden-Fowler residual overflows"),
        (-1.859, "transformed profile .* overflows"),
        (-1.87, "transformed profile .* overflows"),
    ],
)
def test_transform_overflow_is_a_domain_error(beta, message):
    """The ground state's transform near the lower strip edge, N = 8, alpha = 0.1.

    At M = 256 a term of the ODE leaves double range, at M = 300 the
    coefficient amplitude * q^((M-4)/2), at M = 409 q^((M-4)/2) itself;
    each raises DomainError instead of giving inf or NaN.
    """
    p = validate(8, 0.1, beta)
    ts = np.linspace(-6.0, 6.0, 101)
    with pytest.raises(DomainError, match=message + " double precision at M="):
        _, residual = emden_fowler(extremal(p), p)
        residual(ts, relative=True)


@pytest.mark.parametrize("m", [4.5, 5.0, 6.0, 8.0])
def test_cosh_profile_solves_autonomous_equation(m):
    ts = np.linspace(-8.0, 8.0, 81)
    assert np.max(np.abs(cosh_profile_residual(m, ts))) < 1e-12


def test_cosh_profile_amplitude_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows double precision at M=300.0"):
        cosh_profile_residual(300.0, 0.0)


@pytest.mark.parametrize("m", [1.3e77, 1e78, 1e300, math.inf])
def test_cosh_profile_refuses_where_gamma_m_is_inf(m):
    """gamma_m(M) is inf from M ~ 1.2e77, and exp(inf) is inf, not an OverflowError: the residual
    once read NaN there, and M**2 leaked a raw OverflowError at M = 1e300."""
    message = f"cosh profile amplitude overflows double precision at M={m!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        cosh_profile_residual(m, np.array([-1.0, 0.0, 2.0]))


PIN_TS = np.array([-7.5, -0.3, 0.7, 11.0])
#: cosh_profile_residual(M, PIN_TS), bit for bit
COSH_HEX = {
    4.5: ["0x1.85038bff20000p-55", "0x1.c000000000000p-50", "0x1.0000000000000p-52", "0x1.e7a5a179a4bfdp-56"],
    6.0: ["0x1.f5b3058980000p-60", "-0x1.0000000000000p-46", "0x0.0p+0", "0x1.337e3cd2bac19p-62"],
    37.3: ["-0x1.bcee770b80000p-130", "0x1.0000000000000p+34", "0x1.0000000000000p+29", "0x1.fc70263fc520ap-215"],
    200.0: ["0x1.258dbf4b08000p-340", "-0x1.6000000000000p+621", "-0x1.6000000000000p+594", "-0x0.0p+0"],
}
#: the ground state's Emden-Fowler residual at PIN_TS, absolute and relative,
#: at M = 6, 37.3 and 200
EF_HEX = {
    (5, 1.0, 1.0): (
        ["0x1.2fe941aca2c38p-47", "0x1.2000000000000p-44", "-0x1.8000000000000p-47", "-0x1.814dd4d7028b0p-61"],
        ["0x1.af00b7fe98f80p-42", "0x1.b11adf5c2d59cp-50", "0x1.68540164d6de0p-51", "0x1.1abd7eb6040d2p-50"],
    ),
    (5, 1.0, -0.7734): (
        ["-0x1.4c811704d9580p-124", "-0x1.1140000000000p+43", "-0x1.de00000000000p+34", "-0x1.2a04a97a6a182p-207"],
        ["0x1.af5d041ed9931p-47", "0x1.011a6c6ecf6d5p-42", "0x1.27a499a35bec9p-46", "0x1.99eb7df640f83p-46"],
    ),
    (5, 1.0, -0.9596): (
        ["-0x1.1f7a18169ce34p-322", "-0x1.46c0000000000p+628", "-0x1.6ca0000000000p+602", "0x1.abfb8b4aaf15ap-826"],
        ["0x1.96a73cbdcd4e4p-37", "0x1.9008f106d15d2p-43", "0x1.96ca4748ae1ffp-43", "0x1.195413efb47a8p-45"],
    ),
}


@pytest.mark.parametrize("m", COSH_HEX)
def test_cosh_profile_residual_is_pinned_bit_for_bit(m):
    assert [float(v).hex() for v in cosh_profile_residual(m, PIN_TS)] == COSH_HEX[m]
    assert cosh_profile_residual(m, 0.7).hex() == COSH_HEX[m][2]


@pytest.mark.parametrize("point", EF_HEX)
def test_emden_fowler_residual_is_pinned_bit_for_bit(point):
    p = validate(*point)
    _, residual = emden_fowler(extremal(p), p)
    absolute, relative = EF_HEX[point]
    assert [float(v).hex() for v in residual(PIN_TS)] == absolute
    assert [float(v).hex() for v in residual(PIN_TS, relative=True)] == relative
    assert residual(0.7).hex() == absolute[2]


# -- closed-form constants ----------------------------------------------------


def test_b_closed_reference_values():
    """B(M) = gamma_m(M) (Gamma(M/2)^2 / (2 Gamma(M)))^(4/M), S_r's M-dependent factor."""
    assert _scaled_b_closed(5.0, 0.0) == pytest.approx(7.481940131235293, rel=1e-12)
    assert _scaled_b_closed(6.0, 0.0) == pytest.approx(25.055152903480717, rel=1e-12)
    with pytest.raises(DomainError):
        _scaled_b_closed(4.0, 0.0)


def test_b_closed_independent_oracle():
    # recompute from stdlib gamma at a fractional M
    m = 5.5
    gamma = (m - 4.0) * (m - 2.0) * m * (m + 2.0)
    bracket = math.gamma(m / 2.0) ** 2 / (2.0 * math.gamma(m))
    assert _scaled_b_closed(m, 0.0) == pytest.approx(gamma * bracket ** (4.0 / m), rel=1e-12)


def test_s_r_closed_reference_value(p511):
    assert s_r_closed(p511) == pytest.approx(221.68826741979237, rel=1e-12)


def _s_r_by_lgamma(p):
    """s_r = q^(4/M - 4) omega^(4/M) b(M) in log space from math.lgamma, omega never formed."""
    d, m = derive(p), derive(p).M
    log_omega = math.log(2.0) + 0.5 * p.N * math.log(math.pi) - math.lgamma(0.5 * p.N)
    log_bracket = 2.0 * math.lgamma(m / 2.0) - math.log(2.0) - math.lgamma(m)
    log_b = math.log((m - 4.0) * (m - 2.0) * m * (m + 2.0)) + 4.0 / m * log_bracket
    return math.exp((4.0 / m - 4.0) * math.log(d.q) + 4.0 / m * log_omega + log_b)


# sphere_area(N) is subnormal from N = 439 and 0.0 from N = 456: there s_r
# once lost digits without a word, then raised a bare ValueError.
@pytest.mark.parametrize("N", [438, 439, 450, 456, 1000])
def test_s_r_closed_at_large_n_against_lgamma(N):
    p = validate(N, 1.0, 0.5)
    assert s_r_closed(p) == pytest.approx(_s_r_by_lgamma(p), rel=1e-12)


def test_s_r_closed_refuses_where_it_underflows():
    """At (10^6, -999997.9999997726, -999999.9999997725), M = 3908, log omega is about -5.5e6 and
    S_r's log scale about -5.7e3: S_r would read 0.0, made by underflow.  The point that once
    pinned this, (2^500, 1e300, 1.0000001e300), lies above the strip's upper end, 1e300."""
    p = validate(10**6, -999997.9999997726, -999999.9999997725)
    with pytest.raises(DomainError, match=r"^radial constant underflows double precision at M=3908\.0$"):
        s_r_closed(p)


@pytest.mark.parametrize("N", [5, 100, 438])
def test_s_r_closed_takes_the_log_of_a_normal_sphere_area(N):
    p = validate(N, 1.0, 0.5)
    d = derive(p)
    log_omega = math.log(sphere_area(N))
    expected = math.exp((4.0 / d.M - 4.0) * math.log(d.q) + 4.0 / d.M * log_omega) * _scaled_b_closed(d.M, 0.0)
    assert s_r_closed(p).hex() == expected.hex()


def test_s_0_closed_independent_oracle():
    for N in range(5, 11):
        poly = N * (N - 4.0) * (N * N - 4.0)
        expected = (
            math.pi**2 * poly * (math.gamma(N / 2.0) / math.gamma(N)) ** (4.0 / N)
        )
        assert s_0_closed(N) == pytest.approx(expected, rel=1e-13)


def test_unweighted_reduction(p500):
    assert s_r_closed(p500) == pytest.approx(s_0_closed(5), rel=1e-13)


def test_a_nonpositive_sigma_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^sigma must be positive, got -2\.0$"):
        PowerPeakProfile([(1.0, 0, -2)], sigma=-2)
