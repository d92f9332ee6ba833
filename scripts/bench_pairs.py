"""Alternating benchmark runs of several checkouts, recorded in one JSON file.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --checkout parent=../parent \
        --checkout change=. --out BENCH_8.json

Each checkout is a directory holding a copy of the repository; the first
one named is the baseline, and its BENCHMARK.json names the workloads, the
end-to-end figures each workload's run reports (with the direction in which
each is better), the seconds S of a run and the unit of every per-layer
figure.  Each of ROUNDS rounds visits every checkout, in an order that is
reversed every other round, and in each one runs

* ``perfbench/run.py --workload W --seed 1 --seconds S`` for each workload
  W, and keeps the figures of its last line that BENCHMARK.json bounds as
  ``W/<figure>``; each workload runs in every checkout in turn before the
  next one starts, and
* the command-line runs of CLI_RUNS, each a few ``ckn-lab`` processes
  that call ``main`` once and loop over many cells or alphas inside it,
  as real use does: ``scan_cli_s`` is three ``scan`` processes
  (N = 5, 6, 8; 603 CSV rows), ``fs_curve_cli_s`` two ``fs-curve``
  processes (N = 5, 8; 40 alphas each), ``verify_all_cli_s`` one
  ``verify-all`` process, ``constants_cli_s`` five ``constants --json``
  processes at points across the strip, which time start-up as a
  closed-form query meets it, ``certify_cli_s`` three ``certify --json``
  processes, one on each side of the breaking curve and one deep in the
  symmetric strip, and ``transform_check_cli_s`` two ``transform-check
  --json`` processes; the last two run the minimizer, its kernel mode and
  its transformed profile.  Each process runs in every checkout in turn
  before the next one starts, so the checkouts meet the same phase of
  the host's load, and its wall time is scaled to the reference speed by
  the perfbench speed kernel, run KERNEL_RUNS times just before and just
  after it (the unscaled sum is kept as ``..._wall_s``).  The SHA-256 of
  each checkout's concatenated output is kept, so differing output shows.

For every end-to-end figure the output holds each checkout's runs, median
and quartiles and, against the baseline, the number of rounds in which the
checkout did better, the ratio of medians, whether the gap between medians
exceeds the baseline's interquartile range, and whether every run of the
checkout falls on one side of every baseline run (``separated``).

After the rounds, one traced run (``--trace 1``) per checkout and workload
gives the per-layer figures, kept as reported.  For a fixed seed the work
of each layer is fixed, so each figure whose BENCHMARK.json unit is
``count`` is compared with the baseline's as an exact ratio: 1.0 when the
two are equal (zeros included), null when only the baseline's is 0.
Traced milliseconds drift with the host's load more than with the code,
and get no ratio or verdict.

A perfbench run whose last line does not report ``correct: true`` stops
the script, naming the checkout, the workload and the run's unexpected
failures.

Each checkout is named by its commit when it is a git work tree of its
own, and always by a SHA-256 of its ``src/`` files, which a ``git
archive`` copy or a dirty tree also has.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import speed  # noqa: E402

CLI_RUNS = {
    "scan_cli_s": [
        ["scan", "--N", str(n), "--alpha", "0.1:2:10", "--beta", "auto:20"]
        for n in (5, 6, 8)
    ],
    "fs_curve_cli_s": [["fs-curve", "--N", str(n), "--alpha", "0.1:2:40", "--json"] for n in (5, 8)],
    "verify_all_cli_s": [["verify-all"]],
    "constants_cli_s": [
        ["constants", "--N", str(n), f"--alpha={alpha}", f"--beta={beta}", "--json"]
        for n, alpha, beta in ((5, 1, 1), (5, 0.1, -1.8), (6, -1, -2), (7, 2, 2.8), (8, -2, -3.5))
    ],
    "certify_cli_s": [
        ["certify", "--N", str(n), f"--alpha={alpha}", f"--beta={beta}", "--json"]
        for n, alpha, beta in ((5, 1, 1), (5, 1, 0.3), (6, 0.5, -1.2))
    ],
    "transform_check_cli_s": [
        ["transform-check", "--N", str(n), f"--alpha={alpha}", f"--beta={beta}", "--json"]
        for n, alpha, beta in ((5, 1, 1), (7, 2, 1.3))
    ],
}
#: rounds of runs; a gain counts when it wins nine tenths of at least ten
ROUNDS = 10
KERNEL_RUNS = 5


def _perfbench(workload: str, seconds: str, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", seconds, "--trace", str(trace)]


def _env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(name: str, root: Path, workload: str, seconds: str, trace: int) -> tuple[dict, dict]:
    """The record and the result line of one perfbench run, which must
    have met its oracles."""
    out = subprocess.run(
        [sys.executable, *_perfbench(workload, seconds, trace)],
        cwd=root, env=_env(root), check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    record, line = json.loads(out[-2]), json.loads(out[-1])
    if line["correct"] is not True:
        sys.exit(
            f"{name}: the {workload} run (--trace {trace}) failed its oracles; "
            f"unexpected failures: {json.dumps(record['unexpected_failures'])}"
        )
    return record, line


def _time_cli(root: Path, command: list[str]) -> tuple[float, float, bytes]:
    """Scaled and wall seconds of one `ckn-lab` process, and its output."""
    kernel = [speed.kernel_s() for _ in range(KERNEL_RUNS)]
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "ckn_lab.cli", *command],
        cwd=root, env=_env(root), check=True, capture_output=True,
    ).stdout
    wall = time.perf_counter() - start
    kernel += [speed.kernel_s() for _ in range(KERNEL_RUNS)]
    return wall * speed.REFERENCE_KERNEL_S * len(kernel) / sum(kernel), wall, out


def _order(names: list[str], i: int) -> list[str]:
    """The checkouts in the order round i visits them: reversed every other round."""
    return names if i % 2 == 0 else names[::-1]


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()


def _identity(root: Path) -> dict:
    """The checkout's commit and a digest of its src/ files.

    The commit is null unless the checkout is the top of its own work
    tree: a copy nested in another tree would otherwise take that tree's.
    """
    top = _git(root, "rev-parse", "--show-toplevel")
    commit = _git(root, "describe", "--always", "--dirty") if top and Path(top).resolve() == root else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _gap(values: list[float], refs: list[float]) -> dict:
    """Ratio of two medians, whether their gap exceeds the reference's
    interquartile range, and whether no run lies between two reference runs."""
    value, ref = _summary(values), _summary(refs)
    iqr = ref["q3"] - ref["q1"]
    return {
        "median_ratio": value["median"] / ref["median"] if ref["median"] else None,
        "baseline_iqr": iqr,
        "gap_exceeds_baseline_iqr": abs(value["median"] - ref["median"]) > iqr,
        "separated": max(values) < min(refs) or min(values) > max(refs),
    }


def _ratio(value: float, ref: float) -> float | None:
    """Exact ratio of two counts: 1.0 when they are equal, null when only ref is 0."""
    if value == ref:
        return 1.0
    return value / ref if ref else None


def _count_ratios(trace: dict, base_trace: dict, counts: list[str]) -> dict:
    """Per workload, the exact ratio of each count figure that both traces hold."""
    return {
        workload: {
            key: _ratio(figures[key], base_trace[workload][key])
            for key in counts
            if key in figures and key in base_trace[workload]
        }
        for workload, figures in trace.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="NAME=DIR")
    parser.add_argument("--out", required=True)
    parser.add_argument("--description", default="", help="what the checkouts are")
    args = parser.parse_args(argv)
    roots = {}
    for item in args.checkout:
        name, _, path = item.partition("=")
        roots[name] = Path(path).resolve()
    names = list(roots)
    base = names[0]
    bench = json.loads((roots[base] / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    workloads = [workload["name"] for workload in bench["workloads"]]
    better = {figure["name"]: figure["better"] for figure in bench["end_to_end"]}
    counts = [figure["name"] for figure in bench["per_layer"] if figure["unit"] == "count"]

    record = {
        "description": args.description,
        "command": " ".join(["python3", *_perfbench("<workload>", seconds, 0)]),
        "cli_commands": {
            key: [" ".join(["ckn-lab", *command]) for command in commands]
            for key, commands in CLI_RUNS.items()
        },
        "checkouts": {name: {**_identity(root), "runs": [], "trace": {}} for name, root in roots.items()},
        "order": [],
    }
    for i in range(ROUNDS):
        order = _order(names, i)
        record["order"].append(order)
        for name in order:
            record["checkouts"][name]["runs"].append({"ops": {}, "metrics": {}, "output_sha256": {}})
        for workload in workloads:
            for name in order:
                machine, last = _run(name, roots[name], workload, seconds, 0)
                record["machine"] = machine["machine"]
                run = record["checkouts"][name]["runs"][i]
                run["ops"][workload] = {key: last[key] for key in ("correct", "attempted", "failed")}
                run["metrics"].update(
                    {f"{workload}/{key}": last["metrics"][key]["value"] for key in better}
                )
        for key, commands in CLI_RUNS.items():
            wall_key = key.replace("_s", "_wall_s")
            digests = {name: hashlib.sha256() for name in order}
            for name in order:
                record["checkouts"][name]["runs"][i]["metrics"].update({key: 0.0, wall_key: 0.0})
            for command in commands:
                for name in order:
                    scaled, wall, out = _time_cli(roots[name], command)
                    metrics = record["checkouts"][name]["runs"][i]["metrics"]
                    metrics[key] += scaled
                    metrics[wall_key] += wall
                    digests[name].update(out)
            for name in order:
                record["checkouts"][name]["runs"][i]["output_sha256"][key] = digests[name].hexdigest()
        for name in order:
            metrics = record["checkouts"][name]["runs"][i]["metrics"]
            print(f"round {i + 1} {name}: scan {metrics['scan/ops_per_s']:.1f}/s, "
                  f"cli scan {metrics['scan_cli_s']:.3f} s", file=sys.stderr, flush=True)

    for workload in workloads:
        for name in names:
            metrics = _run(name, roots[name], workload, seconds, 1)[1]["metrics"]
            record["checkouts"][name]["trace"][workload] = {key: m["value"] for key, m in metrics.items()}
    for entry in record["checkouts"].values():
        runs = entry["runs"]
        entry["summary"] = {
            key: _summary([run["metrics"][key] for run in runs]) for key in runs[0]["metrics"]
        }

    base_runs = record["checkouts"][base]["runs"]
    record["against_" + base] = {}
    for name in names[1:]:
        runs = record["checkouts"][name]["runs"]
        table = {}
        for key in record["checkouts"][base]["summary"]:
            sign = 1.0 if better.get(key.partition("/")[2]) == "higher" else -1.0
            wins = sum(
                sign * (run["metrics"][key] - ref["metrics"][key]) > 0
                for run, ref in zip(runs, base_runs)
            )
            table[key] = {
                "better": "higher" if sign > 0 else "lower",
                "wins": wins,
                "rounds": len(runs),
                **_gap([run["metrics"][key] for run in runs], [run["metrics"][key] for run in base_runs]),
            }
        table["same_cli_output"] = all(
            run["output_sha256"] == ref["output_sha256"] for run, ref in zip(runs, base_runs)
        )
        table["trace"] = _count_ratios(
            record["checkouts"][name]["trace"], record["checkouts"][base]["trace"], counts
        )
        record["against_" + base][name] = table

    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
