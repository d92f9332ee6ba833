"""Beta kernels against stdlib oracles and functional equations, and Gamma's known values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckn_lab.params import sphere_area
from ckn_lab.specfun import DomainError, beta_fn, log_beta


KNOWN_GAMMA = [
    (0.5, math.sqrt(math.pi)),
    (1.0, 1.0),
    (1.5, 0.5 * math.sqrt(math.pi)),
    (2.0, 1.0),
    (5.0, 24.0),
    (10.0, 362880.0),
    (2.5, 1.3293403881791370205),
    (3.0, 2.0),
]


# The package forms Gamma only as math.lgamma inside its closed forms; sphere_area(2x) = 2 pi^x / Gamma(x)
# reads it at x = n/2: 2, 2 pi, 4 pi, 2 pi^2, 8 pi^2/3 and pi^3 at n = 1...6, and n = 10, 20 besides.
@pytest.mark.parametrize("x, expected", KNOWN_GAMMA)
def test_gamma_known_values(x, expected):
    assert sphere_area(2.0 * x) == pytest.approx(2.0 * math.pi**x / expected, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=60.0),
    st.floats(min_value=0.05, max_value=60.0),
)
def test_beta_symmetry_and_reduction(a, b):
    assert log_beta(a, b) == pytest.approx(log_beta(b, a), rel=1e-12, abs=1e-12)
    expected = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    assert log_beta(a, b) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_beta_fn_exact_small_integers():
    # B(1,1)=1, B(2,3)=1/12, B(3,3)=1/30
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert beta_fn(3.0, 3.0) == pytest.approx(1.0 / 30.0, rel=1e-13)


def test_log_beta_refuses_a_nonpositive_argument():
    with pytest.raises(DomainError, match=r"^log_beta requires a, b > 0, got a=0\.0, b=1\.0$"):
        log_beta(0.0, 1.0)
