"""Tests of the benchmark itself: inputs, span arithmetic and oracles.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import itertools
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ckn_lab.cli as cli  # noqa: E402
import ckn_lab.spectral as spectral  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ckn_lab.params import beta_fs, classify, validate  # noqa: E402
from ckn_lab.profiles import s_r_closed  # noqa: E402
import run  # noqa: E402

GENERATORS = (inputs.scan_cells, inputs.fs_locates, inputs.invariant_checks)


@pytest.mark.parametrize("generator", GENERATORS)
def test_same_seed_same_inputs(generator):
    first = list(itertools.islice(generator(7), 40))
    again = list(itertools.islice(generator(7), 40))
    other = list(itertools.islice(generator(8), 40))
    assert first == again
    assert first != other


def test_scan_keeps_the_auto_lower_edge():
    column = len(inputs.SCAN_STRATA) + 1
    cells = list(itertools.islice(inputs.scan_cells(3), 3 * column))
    edges = [c for c in cells if c.known == "edge"]
    assert [c.N for c in edges] == list(inputs.SCAN_DIMENSIONS)
    for cell in edges:
        assert cell.beta == cli._beta_values(cell.N, cell.alpha, "auto")[0]
    assert len({c.alpha for c in cells}) == 3


def _shape(item):
    if isinstance(item, inputs.Check):
        return item.kind, item.known
    return item.N, getattr(item, "known", None)


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=lambda w: w.name)
def test_every_round_has_the_same_shape(workload):
    size = workload.round_size
    items = list(itertools.islice(workload.inputs(4), 4 * size))
    shapes = [[_shape(item) for item in items[r * size : (r + 1) * size]] for r in range(4)]
    assert shapes[1] == shapes[2] == shapes[3] == shapes[0]
    assert items[:size] != items[size : 2 * size]


def test_scale_tag_marks_lambda_outside_the_window():
    rounds = 10
    checks = list(itertools.islice(inputs.invariant_checks(2), rounds * inputs.CHECKS_ROUND))
    checks = [c for c in checks if c.kind == "extremality"]
    lo, hi = inputs.SCALE_WINDOW
    for check in checks:
        lam = check.args[1]
        assert (check.known == "scale") == (not lo <= lam <= hi)
    assert sum(c.known == "scale" for c in checks) == 2 * rounds


class StepClock:
    """Clock that advances by preset steps, one per reading."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; the second inner holds leaf [5.5, 5.75]
    tracer = spans.Tracer(clock=StepClock([0.0, 1.0, 4.0, 5.0, 5.5, 5.75, 6.0, 10.0]))
    tracer.enabled = True

    def leaf():
        return None

    def inner(depth):
        if depth:
            tracer.call("leaf", leaf, (), {})

    def outer():
        tracer.call("inner", inner, (0,), {})
        tracer.call("inner", inner, (1,), {})

    tracer.call("outer", outer, (), {})
    stats = tracer.stats
    assert stats["outer"].durations == [10.0]
    assert stats["outer"].self_s == 10.0 - 3.0 - 1.0
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == 3.0 + (1.0 - 0.25)
    assert stats["leaf"].self_s == 0.25
    assert tracer.nested[("outer", "leaf")] == 1


def test_failed_span_is_counted_and_reraised():
    tracer = spans.Tracer()
    tracer.enabled = True

    def boom():
        raise spectral.ConditioningError("singular")

    with pytest.raises(spectral.ConditioningError):
        tracer.call("spectral.ritz_min_eig", boom, (), {})
    assert tracer.stats["spectral.ritz_min_eig"].failed == 1
    assert tracer.stats["spectral.ritz_min_eig"].calls == 1


def test_install_wraps_every_binding_and_removes_cleanly():
    original = spectral.ritz_min_eig
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        assert cli.ritz_min_eig is spectral.ritz_min_eig is not original
        tracer.enabled = True
        cli.beta_fs(5, 1.0)
        tracer.enabled = False
        assert tracer.stats["params.beta_fs"].calls == 1
    finally:
        installation.remove()
    assert cli.ritz_min_eig is spectral.ritz_min_eig is original


def _row(cell, sv, rho):
    p = validate(cell.N, cell.alpha, cell.beta)
    return [
        str(cell.N),
        repr(cell.alpha),
        repr(cell.beta),
        classify(cell.N, cell.alpha, cell.beta).value,
        repr(beta_fs(cell.N, cell.alpha)),
        repr(s_r_closed(p)),
        sv,
        rho,
        "",
    ]


def test_zero_second_variation_below_the_curve_fails():
    below = inputs.Cell(5, 1.0, beta_fs(5, 1.0) - 0.5, None)
    assert workloads.judge_scan_row(below, _row(below, "1.5", "0.2")).ok
    verdict = workloads.judge_scan_row(below, _row(below, "0.0", "0.2"))
    assert not verdict.ok and verdict.known is None
    edge = inputs.Cell(5, 1.0, inputs.lower_edge_beta(5, 1.0), "edge")
    verdict = workloads.judge_scan_row(edge, _row(edge, "0.0", ""))
    assert not verdict.ok and verdict.known == "edge"


def test_a_tiny_negative_beta_reaches_the_scan():
    cell = inputs.Cell(6, 1.8898774145081487, -9.416245698806724e-06, None)
    verdict = workloads.Scan.judge(cell, workloads.Scan.run(cell)).verdict
    assert verdict.ok, verdict.reason


def test_wrong_side_sign_fails():
    above = inputs.Cell(5, 1.0, beta_fs(5, 1.0) + 0.3, None)
    assert workloads.judge_scan_row(above, _row(above, "-1.0", "-0.1")).ok
    assert not workloads.judge_scan_row(above, _row(above, "-1.0", "0.1")).ok


def test_tally_separates_known_from_unexpected_failures():
    tally = run.Tally(3)
    ok = workloads.Judgement(workloads.Verdict(True))
    known = workloads.Judgement(workloads.Verdict(False, "edge", "blank"))
    unexpected = workloads.Judgement(workloads.Verdict(False, None, "bad sign"))
    for judgement in (ok, known, unexpected):
        tally.add(judgement, 0.5)
    assert (tally.attempted, tally.passed, tally.failed) == (3, 1, 2)
    assert tally.known_failures == {"edge": 1}
    assert tally.unexpected == ["bad sign"]
    assert tally.latencies_ms() == [500.0]


def test_position_medians_of_scaled_times_give_the_steady_round():
    tally = run.Tally(2)
    ok = workloads.Judgement(workloads.Verdict(True))
    known = workloads.Judgement(workloads.Verdict(False, "edge", "blank"))
    # three rounds; position 1 fails once; the machine ran at half speed in round 1
    runs = ((ok, 0.4, 1.0), (ok, 1.0, 1.0), (ok, 0.6, 0.5), (known, 3.0, 0.5), (ok, 0.2, 1.0), (ok, 1.6, 1.0))
    for judgement, elapsed, scale in runs:
        tally.add(judgement, elapsed, scale)
    assert tally.rounds == 3
    assert tally.raw_s == pytest.approx(6.8)
    assert tally.position_s() == pytest.approx([0.3, 1.5])
    assert tally.round_s() == pytest.approx(1.8)
    assert tally.latencies_ms() == pytest.approx([300.0])
    printed = run.end_to_end(tally, 0.3)
    assert printed["ops_per_s"]["value"] == pytest.approx(5 / 3 / 1.8)
    assert printed["op_ms_p50"]["value"] == pytest.approx(300.0)


class _Counting:
    """Workload stub: inputs are 0, 1, 2, ...; multiples of 3 fail with a known tag."""

    name = "counting"
    round_size = 3
    round_s = 1.0
    inputs = staticmethod(lambda seed: itertools.count())
    run = staticmethod(lambda item: item)

    @staticmethod
    def judge(item, output):
        return workloads.Judgement(workloads.Verdict(output % 3 != 0, "edge"))


class _Setup:
    def __init__(self):
        self.times = []

    def sample(self):
        self.times.append(0.1)


def test_meter_samples_during_an_operation_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter(interval_s=0.02)
    with meter:
        give_up = time.perf_counter() + 5.0
        while len(meter.samples) < 3 and time.perf_counter() < give_up:
            pass  # the timer's handler runs between these bytecodes
    assert len(meter.samples) >= 3
    assert sum(meter.samples) <= meter.stolen_s
    assert signal.getsignal(signal.SIGALRM) is previous
    assert meter.scale_since(1) == pytest.approx(
        speed.REFERENCE_KERNEL_S * (len(meter.samples) - 1) / sum(meter.samples[1:])
    )


def test_a_slower_machine_scales_to_the_same_figure(monkeypatch):
    def position_s(kernel):
        """Position times when the kernel takes `kernel` s and operations slow down with it."""
        now = [0.0]

        def run_item(item):
            now[0] += 0.002 * (item % 3 + 1) * kernel / speed.REFERENCE_KERNEL_S
            return item

        monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
        monkeypatch.setattr(run.speed, "kernel_s", lambda: kernel)
        monkeypatch.setattr(_Counting, "run", staticmethod(run_item))
        return run.measure(_Counting, 1, 4.0, _Setup())["tally"].position_s()

    assert position_s(speed.REFERENCE_KERNEL_S) == pytest.approx([0.002, 0.004, 0.006])
    assert position_s(2 * speed.REFERENCE_KERNEL_S) == pytest.approx([0.002, 0.004, 0.006])


def test_a_run_makes_a_fixed_number_of_rounds():
    setup = _Setup()
    tally = run.measure(_Counting, 1, 4.0, setup)["tally"]
    assert (tally.rounds, tally.attempted, tally.failed) == (4, 12, 4)
    assert len(setup.times) == run.SETUP_REPEATS
    assert run.measure(_Counting, 1, 0.5, _Setup())["tally"].rounds == run.MIN_ROUNDS


def test_benchmark_file_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER_UNITS)
    tally = run.Tally(1)
    tally.add(workloads.Judgement(workloads.Verdict(True)), 0.5)
    printed = run.end_to_end(tally, 0.3)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {k: v["unit"] for k, v in printed.items()}
