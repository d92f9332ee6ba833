"""Scalar special functions used by the closed-form constants, and the typed errors.

Everything downstream (sharp constants, Beta-function reductions of the
spectral integrals, sphere areas) funnels through ``log_gamma``, which
is the stdlib ``math.lgamma`` restricted to the positive axis.  The
errors the numerical layers raise live here too, beside ``DomainError``,
so the command line can catch them without importing those layers, and
so does the range rule of every closed form: a value is formed in floats,
inf where ``_or_inf`` meets an ``OverflowError``, and judged once by
``_finite`` where the quantity is named.
"""

from __future__ import annotations

import math

__all__ = [
    "log_gamma", "log_beta", "beta_fn",
    "DomainError", "DivergentIntegralError", "AccuracyError", "ConditioningError", "BracketError",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class DivergentIntegralError(DomainError):
    """The quadrature's tail rule found that an integrand does not decay at 0 or at infinity."""


class AccuracyError(RuntimeError):
    """Node budget exhausted before the tolerance was met.

    The best estimate so far, a `quadrature.QuadResult`, is attached as ``result``.
    """

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class ConditioningError(RuntimeError):
    """The Ritz operator matrix could not be assembled in floating point."""


class BracketError(RuntimeError):
    """No sign change of the least eigenvalue inside the search interval that its rounding resolves."""


def _or_inf(fn, *args) -> float:
    """fn(*args), or inf where it raises OverflowError (math.exp and float ** do past double range)."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _finite(value: float, what: str, at: str) -> float:
    """value where it is finite; a DomainError naming what overflows, and where, otherwise."""
    if math.isfinite(value):
        return value
    raise DomainError(f"{what} overflows double precision at {at}")


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for real x > 0.

    Raises:
        DomainError: if ``x <= 0`` (poles and the branch on the negative
            axis are outside the supported domain).
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a,b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"log_beta requires a, b > 0, got a={a!r}, b={b!r}")
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) for a, b > 0."""
    return math.exp(log_beta(a, b))
