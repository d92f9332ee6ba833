"""Acceptance gate: eleven pass/fail criteria over the whole toolkit.

Criteria 01-10 run the ten checks of `ckn_lab.verify.CHECKS`, which state
every grid and bound, each under a runtime ceiling; criterion 11 adds
deterministic scans and the whole battery.  The terminal summary (see
conftest) prints a CRITERION nn: PASS/FAIL line per entry.
"""

import time

import pytest

from ckn_lab.cli import main as cli_main
from ckn_lab.params import classify, validate
from ckn_lab.variation import second_variation
from ckn_lab.verify import CHECKS, EXTREMALITY_POINTS, run_all


def run_check(number: int, budget_seconds: float):
    """Run the check of criterion `number` under its runtime ceiling."""
    start = time.monotonic()
    result = CHECKS[number - 1]()
    assert result.passed, result.detail
    assert time.monotonic() - start < budget_seconds


def test_criterion_01():
    """Unweighted closed form coincides with the classical constant."""
    run_check(1, 1.0)


def test_criterion_02():
    """Quadrature of the minimizer reproduces the sharp radial constant."""
    assert len(EXTREMALITY_POINTS) == 10
    classes = {classify(N, a, b) for N, a, b in EXTREMALITY_POINTS}
    assert len(classes) >= 4  # the points straddle the region taxonomy
    run_check(2, 30.0)


def test_criterion_03():
    """Minimizer satisfies its fourth-order equation pointwise."""
    run_check(3, 10.0)


def test_criterion_04():
    """Autonomous-form solitary profile solves the transformed equation."""
    run_check(4, 5.0)


def test_criterion_05():
    """Transition curve: closed form, first-order map, spectral root."""
    run_check(5, 300.0)


def test_criterion_06():
    """Second-variation sign law on a grid straddling the curve."""
    run_check(6, 60.0)
    reference = second_variation(validate(5, 1.0, 1.0)).value
    assert reference == pytest.approx(-5.859, rel=1e-2)
    # full-precision pin against the Beta-reduction closed form
    assert reference == pytest.approx(-5.858682485431447, rel=1e-10)


def test_criterion_07():
    """Three independent witnesses of symmetry breaking at (5, 1, 1)."""
    run_check(7, 120.0)


def test_criterion_08():
    """Kernel structure exactly on the transition curve for (N, a) = (5, 1)."""
    run_check(8, 60.0)


def test_criterion_09():
    """Integral-identity battery: bound, expansions, scaling, substitution."""
    run_check(9, 120.0)


def test_criterion_10():
    """Equality on the upper boundary line and its shifted counterpart."""
    run_check(10, 60.0)


def test_criterion_11(tmp_path):
    """Deterministic scans and a green verification battery."""
    args = ["scan", "--N", "5", "--alpha", "0.5:1.5:3", "--beta", "auto:4"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    start = time.monotonic()
    results = run_all()
    elapsed = time.monotonic() - start
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert elapsed < 60.0
