"""Gamma/Beta kernels against stdlib oracles and functional equations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckn_lab.specfun import DomainError, beta_fn, log_beta, log_gamma


KNOWN_GAMMA = [
    (0.5, math.sqrt(math.pi)),
    (1.0, 1.0),
    (1.5, 0.5 * math.sqrt(math.pi)),
    (2.0, 1.0),
    (5.0, 24.0),
    (10.0, 362880.0),
    (2.5, 1.3293403881791370205),
]


# Gamma itself is exp(log_gamma): the package forms only its logarithm.
@pytest.mark.parametrize("x, expected", KNOWN_GAMMA)
def test_gamma_known_values(x, expected):
    assert math.exp(log_gamma(x)) == pytest.approx(expected, rel=1e-13)


def test_gamma_against_stdlib_grid():
    for i in range(1, 200):
        x = 0.07 * i
        assert math.exp(log_gamma(x)) == pytest.approx(math.gamma(x), rel=5e-14)


def test_gamma_domain_errors():
    for x in (0.0, -1.5, -0.1):
        with pytest.raises(DomainError):
            log_gamma(x)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.05, max_value=80.0))
def test_gamma_recurrence(x):
    """Gamma(x+1) = x * Gamma(x)."""
    assert log_gamma(x + 1.0) == pytest.approx(
        log_gamma(x) + math.log(x), rel=1e-12, abs=1e-12
    )


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
