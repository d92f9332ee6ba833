"""ckn-lab benchmark: seeded workloads, oracle-checked, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A run makes a fixed number of rounds of fresh
inputs, ``seconds / round_s`` of them, so a seed fixes what is attempted.
End-to-end times are scaled to a reference speed (see speed.py).
``--workload all`` runs every workload in turn and prints each
workload's end-to-end figures under their own names.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine, the accuracy figures and the operation counts.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one thread per process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
#: rounds a run makes however short `--seconds` is
MIN_ROUNDS = 2
#: a run stops after the round that takes its rounds past this many times their nominal time
DEADLINE_FACTOR = 3.0
#: operation time after which the speed kernel runs again
KERNEL_EVERY_S = 0.1
SETUP_SCRIPT = (
    "from ckn_lab.cli import main; "
    "raise SystemExit(main(['constants', '--N', '5', '--alpha', '1', '--beta', '1', '--json']))"
)
#: how each workload's figures are named when all are printed together
NAMED = {
    "scan": (("scan.points_per_s", "ops_per_s", "1/s", 1.0), ("scan.point_ms_p50", "op_ms_p50", "ms", 1.0),
             ("scan.point_ms_p90", "op_ms_p90", "ms", 1.0)),
    "fs_curve": (("fs_curve.locates_per_min", "ops_per_s", "1/min", 60.0),
                 ("fs_curve.locate_s_p50", "op_ms_p50", "s", 1e-3)),
    "invariants": (("invariants.checks_per_s", "ops_per_s", "1/s", 1.0),
                   ("invariants.check_ms_p50", "op_ms_p50", "ms", 1.0),
                   ("invariants.check_ms_p90", "op_ms_p90", "ms", 1.0)),
}


def _quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class SetupProbe:
    """Wall time of a fresh interpreter that imports ckn_lab and runs `constants` once.

    Samples are taken between rounds, spread over the run, and each is
    scaled to the reference speed by the speed kernel run around it.
    """

    def __init__(self, expected_s_r: float):
        self.expected_s_r = expected_s_r
        self.times: list[float] = []  # scaled to the reference speed
        self.raw: list[float] = []
        self.ok = True

    def sample(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = speed.kernel_s()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        elapsed = time.perf_counter() - start
        self.raw.append(elapsed)
        self.times.append(elapsed * 2.0 * speed.REFERENCE_KERNEL_S / (before + speed.kernel_s()))
        self.ok = self.ok and done.returncode == 0 and json.loads(done.stdout)["s_r"] == self.expected_s_r


def blas_record() -> dict:
    """BLAS library numpy was built with, and its live thread count read through ctypes."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(bundled.glob("*blas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def machine_record() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


class Tally:
    """Outcomes of a run's operations, and each round position's steady time.

    Position k of every round has inputs of the same shape (see
    inputs.py).  Each operation's time is scaled to the reference speed
    (see speed.py), and a position's steady time is the median of its
    scaled times over the rounds.
    """

    def __init__(self, size: int):
        self.size = size
        self.attempted = 0
        self.passed = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known_failures: dict[str, int] = {}
        self.scaled_s: list[list[float]] = [[] for _ in range(size)]
        self.position_ok = [True] * size
        self.accuracy: dict[str, float] = {}
        self.raw_s = 0.0

    def add(self, judgement, elapsed: float, scale: float = 1.0) -> None:
        """Record one operation that took `elapsed` seconds; `scale` converts to the reference speed."""
        position = self.attempted % self.size
        self.attempted += 1
        self.raw_s += elapsed
        self.scaled_s[position].append(elapsed * scale)
        verdict = judgement.verdict
        if verdict.ok:
            self.passed += 1
        else:
            self.failed += 1
            self.position_ok[position] = False
            if verdict.known is None:
                self.unexpected.append(verdict.reason)
            else:
                self.known_failures[verdict.known] = self.known_failures.get(verdict.known, 0) + 1
        for key, value in judgement.accuracy.items():
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)

    @property
    def rounds(self) -> int:
        return self.attempted // self.size

    def position_s(self) -> list[float]:
        return [statistics.median(times) for times in self.scaled_s]

    def round_s(self) -> float:
        """Steady time of one round: the sum of the positions' steady times."""
        return sum(self.position_s())

    def latencies_ms(self) -> list[float]:
        """Steady times of the positions whose operations all passed."""
        return [1e3 * t for t, ok in zip(self.position_s(), self.position_ok) if ok]


def rounds_for(workload, seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds / workload.round_s))


def measure(workload, seed: int, seconds: float, setup: SetupProbe) -> dict:
    """Run whole rounds of fresh inputs, judging and timing each operation.

    The speed kernel runs before the first operation of a round, again
    whenever `KERNEL_EVERY_S` of operations have run since it last did and
    at the end of the round, and on a timer during operations.  Each
    operation is scaled by the mean of the kernel times from the sample
    before it to the sample after it.  Set-up samples are taken before
    the first round, after the last one and at evenly spread round
    boundaries between them, with the timer off.
    """
    rounds = rounds_for(workload, seconds)
    size = workload.round_size
    probes = [round(g * rounds / (SETUP_REPEATS - 1)) for g in range(SETUP_REPEATS)]
    items = workload.inputs(seed)
    tally = Tally(size)
    meter = speed.Meter()
    budget_s = DEADLINE_FACTOR * rounds * workload.round_s
    spent_s = 0.0
    for r in range(rounds + 1):
        for _ in range(probes.count(r)):
            setup.sample()
        if r == rounds or spent_s > budget_s:
            break
        round_start = time.perf_counter()
        with meter:
            meter.sample()
            first, pending = len(meter.samples) - 1, []
            for number, item in enumerate(itertools.islice(items, size)):
                stolen = meter.stolen_s
                t0 = time.perf_counter()
                output = workload.run(item)
                elapsed = time.perf_counter() - t0 - (meter.stolen_s - stolen)
                pending.append((item, output, elapsed))
                if number == size - 1 or sum(e for _, _, e in pending) >= KERNEL_EVERY_S:
                    meter.sample()
                    scale = meter.scale_since(first)
                    for done, out, e in pending:
                        tally.add(workload.judge(done, out), e, scale)
                    first, pending = len(meter.samples) - 1, []
        spent_s += time.perf_counter() - round_start
    return {"tally": tally}


def _timed(workload, item, tracer, traced: bool):
    tracer.enabled = traced
    try:
        start = time.perf_counter()
        output = workload.run(item)
        return output, time.perf_counter() - start
    finally:
        tracer.enabled = False


def measure_traced(workload, seed: int, seconds: float, tracer) -> dict:
    """Run each operation untraced and traced, in alternating order.

    The two outputs must be equal, and their times give the tracing
    overhead.  Each operation runs twice, so the run makes half the rounds
    of an untraced run.
    """
    size = workload.round_size
    rounds = max(1, rounds_for(workload, seconds) // 2)
    tally = Tally(size)
    plain_s = traced_s = 0.0
    mismatches = 0
    for number, item in enumerate(itertools.islice(workload.inputs(seed), rounds * size)):
        traced_first = number % 2 == 1
        if traced_first:
            traced_output, traced = _timed(workload, item, tracer, True)
        output, elapsed = _timed(workload, item, tracer, False)
        if not traced_first:
            traced_output, traced = _timed(workload, item, tracer, True)
        plain_s += elapsed
        traced_s += traced
        mismatches += traced_output != output
        tally.add(workload.judge(item, output), elapsed)
    return {"tally": tally, "traced_s": traced_s, "plain_s": plain_s, "mismatches": mismatches}


def end_to_end(tally: Tally, setup_s: float) -> dict:
    latencies = tally.latencies_ms()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": tally.passed / tally.rounds / tally.round_s(), "unit": "1/s"},
        "op_ms_p50": {"value": _quantile(latencies, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": _quantile(latencies, 0.9), "unit": "ms"},
    }


def per_layer(result: dict, tracer) -> dict:
    import spans

    values = spans.layer_metrics(tracer, result["tally"].attempted)
    values["trace.overhead_frac"] = result["traced_s"] / result["plain_s"]
    units = {name: unit for name, unit in PER_LAYER_UNITS}
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER_UNITS}


PER_LAYER_UNITS = (
    ("spectral.ritz_min_eig.calls", "count"),
    ("spectral.ritz_min_eig.self_ms", "ms"),
    ("spectral.ritz_min_eig.ms_p50", "ms"),
    ("spectral.ritz_min_eig.basis_size_mean", "count"),
    ("spectral.ritz_min_eig.gram_condition_max", "cond"),
    ("spectral.ritz_min_eig.useful_ratio", "ratio"),
    ("profiles.PowerPeakProfile.constructed", "count"),
    ("profiles.algebra.self_ms", "ms"),
    ("spectral.fs_locate.ritz_per_call", "count"),
    ("spectral.fs_locate.self_ms", "ms"),
    ("quadrature.integrate_semiinfinite.calls", "count"),
    ("quadrature.integrate_semiinfinite.nodes", "count"),
    ("quadrature.integrate_semiinfinite.self_ms", "ms"),
    ("quadrature.integrate_semiinfinite.failed", "count"),
    ("quadrature.quotient_radial.ms_p50", "ms"),
    ("variation.second_variation.self_ms", "ms"),
    ("variation.second_variation.failed", "count"),
    ("variation.directional_quotient.self_ms", "ms"),
    ("profiles.euler_lagrange_residual.ms_p50", "ms"),
    ("identities.checks.calls", "count"),
    ("identities.checks.self_ms", "ms"),
    ("specfun.calls", "count"),
    ("specfun.self_ms", "ms"),
    ("params.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, record line)."""
    import workloads
    from ckn_lab.params import validate
    from ckn_lab.profiles import s_r_closed

    workload = workloads.WORKLOADS[name]
    rho1 = workloads.rho1_reference()
    rho1_ok = abs(rho1 - workloads.RHO1_PIN) <= 1e-6 * abs(workloads.RHO1_PIN)
    setup = None
    if trace:
        import spans

        tracer = spans.Tracer()
        installation = spans.install(tracer)
        try:
            result = measure_traced(workload, seed, seconds, tracer)
        finally:
            installation.remove()
        metrics = per_layer(result, tracer)
    else:
        setup = SetupProbe(s_r_closed(validate(5, 1.0, 1.0)))
        result = measure(workload, seed, seconds, setup)
        metrics = end_to_end(result["tally"], statistics.median(setup.times))
    tally = result["tally"]
    setup_ok = setup is None or setup.ok
    correct = rho1_ok and setup_ok and tally.passed > 0 and not tally.unexpected and result.get("mismatches", 0) == 0
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": tally.rounds,
        "round_size": tally.size,
        "ops": {"attempted": tally.attempted, "passed": tally.passed, "failed": tally.failed},
        "known_defect_failures": tally.known_failures,
        "unexpected_failures": tally.unexpected[:10],
        "latency_samples": len(tally.latencies_ms()),
        "unscaled": {
            "ops_per_s": tally.passed / tally.raw_s,
            "setup_s": statistics.median(setup.raw) if setup else None,
        },
        "traced_output_mismatches": result.get("mismatches"),
        "accuracy": {"rho1_ref": rho1, **tally.accuracy},
    }
    line = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "fs_curve", "invariants", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ckn_lab" / "__init__.py").is_file():
        print(f"error: no ckn_lab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"machine": machine_record(), **record}))
        print(json.dumps(line))
        return 0

    named, correct, attempted, failed = {}, True, 0, 0
    for name in NAMED:
        line, record = run_workload(name, args.seed, args.seconds, False)
        print(json.dumps(record))
        correct = correct and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        named.setdefault("setup_s", line["metrics"]["setup_s"])
        for label, key, unit, scale in NAMED[name]:
            named[label] = {"value": line["metrics"][key]["value"] * scale, "unit": unit}
        print(f"{name:<14} attempted {line['attempted']:>6}  failed {line['failed']:>5}")
    for label, metric in named.items():
        print(f"{label:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"machine": machine_record()}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
