"""scripts/bench_pairs.py: its exact count table, its reading of
BENCHMARK.json, and its refusal of runs that failed their oracles.

Built on committed data only: ``BENCHMARK.json`` and the traced figures
recorded in ``BENCH_21.json``.  No perfbench run is started.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {figure["name"]: figure["unit"] for figure in BENCH["per_layer"]}
COUNTS = [name for name, unit in UNITS.items() if unit == "count"]
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _first_traced_runs() -> dict:
    """Per checkout of BENCH_21.json, its first traced run of each workload."""
    record = json.loads((ROOT / "BENCH_21.json").read_text())
    return {
        name: {workload: block["runs"][0] for workload, block in entry["trace"].items()}
        for name, entry in record["checkouts"].items()
    }


def test_count_ratios_of_a_recorded_pair():
    traced = _first_traced_runs()
    table = bench_pairs._count_ratios(traced["change"], traced["parent"], COUNTS)
    calls = "quadrature.integrate_semiinfinite.calls"
    assert traced["parent"]["invariants"][calls] == pytest.approx(2.2637, abs=1e-4)
    assert traced["change"]["invariants"][calls] == pytest.approx(2 / 9)
    assert table["invariants"][calls] == (
        traced["change"]["invariants"][calls] / traced["parent"]["invariants"][calls]
    )
    assert table["fs_curve"]["spectral.ritz_min_eig.calls"] == 1.0
    assert table["fs_curve"]["spectral.fs_locate.ritz_per_call"] == 1.0


def test_a_record_compared_with_itself_reads_exactly_one():
    traced = _first_traced_runs()["change"]
    table = bench_pairs._count_ratios(traced, traced, COUNTS)
    assert traced["invariants"]["spectral.ritz_min_eig.calls"] == 0.0
    assert set(table) == set(traced)
    for workload, ratios in table.items():
        assert ratios == {key: 1.0 for key in COUNTS if key in traced[workload]}


@pytest.mark.parametrize(
    "value, ref, ratio", [(0.0, 0.0, 1.0), (3.0, 3.0, 1.0), (1.0, 4.0, 0.25), (0.0, 2.0, 0.0), (2.0, 0.0, None)]
)
def test_ratio_of_two_counts(value, ref, ratio):
    key = "spectral.ritz_min_eig.calls"
    assert bench_pairs._count_ratios({"w": {key: value}}, {"w": {key: ref}}, [key]) == {"w": {key: ratio}}


def test_only_count_figures_enter_the_table():
    traced = _first_traced_runs()
    table = bench_pairs._count_ratios(traced["change"], traced["parent"], COUNTS)
    for workload, ratios in table.items():
        assert ratios, workload
        assert {UNITS[key] for key in ratios} == {"count"}
    assert "spectral.ritz_min_eig.gram_condition_max" in traced["change"]["scan"]
    assert "spectral.ritz_min_eig.gram_condition_max" not in table["scan"]


def _fake_line(workload: str, trace: int, scale: float) -> dict:
    if trace:
        metrics = {name: {"value": scale * len(name), "unit": unit} for name, unit in UNITS.items()}
    else:
        metrics = {figure["name"]: {"value": scale, "unit": figure["unit"]} for figure in BENCH["end_to_end"]}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_main_takes_its_figures_from_benchmark_json(monkeypatch, tmp_path):
    """Ten timed rounds and one traced run per checkout and workload, over
    BENCHMARK.json's workloads and bounded figures, with perfbench and the
    CLI replaced by fakes."""
    runs = []

    def fake_run(name, root, workload, seconds, trace):
        runs.append((name, workload, trace))
        assert seconds == str(BENCH["run_seconds"])
        scale = 2.0 if name == "change" else 1.0
        return {"machine": {"host": "fake"}, "accuracy": {"defect": scale}}, _fake_line(workload, trace, scale)

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_time_cli", lambda root, command: (1.0, 1.0, b"out"))
    out = tmp_path / "bench.json"
    bench_pairs.main(["--checkout", f"parent={ROOT}", "--checkout", f"change={ROOT}", "--out", str(out)])
    record = json.loads(out.read_text())

    timed = [(name, workload) for name, workload, trace in runs if not trace]
    traced = [(name, workload) for name, workload, trace in runs if trace]
    assert len(timed) == 2 * len(WORKLOADS) * bench_pairs.ROUNDS
    assert [workload for _, workload in timed[: 2 * len(WORKLOADS)]] == [w for w in WORKLOADS for _ in range(2)]
    assert traced == [(name, workload) for workload in WORKLOADS for name in ("parent", "change")]

    table = record["against_parent"]["change"]
    bounded = {f"{w}/{figure['name']}": figure["better"] for w in WORKLOADS for figure in BENCH["end_to_end"]}
    assert {key: table[key]["better"] for key in bounded} == bounded
    assert all(table[key]["better"] == "lower" for key in bench_pairs.CLI_RUNS)
    assert table["scan/ops_per_s"]["wins"] == bench_pairs.ROUNDS
    assert table["same_cli_output"] is True

    change = record["checkouts"]["change"]
    assert all(run["accuracy"] == {w: {"defect": 2.0} for w in WORKLOADS} for run in change["runs"])
    assert set(change["trace"]) == set(WORKLOADS)
    assert change["trace"]["scan"] == {name: 2.0 * len(name) for name in UNITS}
    assert "trace_order" not in record
    for workload in WORKLOADS:
        assert table["trace"][workload] == {key: 2.0 for key in COUNTS}


def test_a_run_that_failed_its_oracles_stops_the_script(monkeypatch):
    failures = [{"op": "scan cell", "error": "AccuracyError"}]
    lines = [
        json.dumps({"machine": {}, "unexpected_failures": failures}),
        json.dumps({"correct": False, "attempted": 5, "failed": 1, "metrics": {}}),
    ]
    monkeypatch.setattr(
        subprocess, "run", lambda *args, **kwargs: subprocess.CompletedProcess(args, 0, "\n".join(lines), "")
    )
    with pytest.raises(SystemExit) as stop:
        bench_pairs._run("change", ROOT, "scan", "36", 0)
    message = str(stop.value)
    assert message.startswith("change: the scan run")
    assert json.dumps(failures) in message
