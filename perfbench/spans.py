"""Span recorder for the traced run, installed from outside the package.

`install` wraps every public function of the layer modules, plus the
term-rewriting methods of `PowerPeakProfile`, and rebinds each wrapper
wherever a module of the package holds the original: modules bind
imported names at import, so patching `ckn_lab.spectral.ritz_min_eig`
alone would miss the copy that `ckn_lab.cli` calls.

Spans nest.  A span's self time is its duration minus the durations of
the spans it directly contains.  Counts come from return values
(`QuadResult.nodes`, `RitzResult.basis_size` and `.gram_condition`).
Spans are kept in memory as per-name totals; nothing is written while
the run measures.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("params", "specfun", "quadrature", "profiles", "spectral", "variation", "identities", "cli")

#: PowerPeakProfile methods that build new profiles (term rewriting, not evaluation)
ALGEBRA_METHODS = (
    "__init__",
    "differentiate",
    "times_power",
    "scaled",
    "compose_power",
    "canonical",
    "__add__",
    "__sub__",
)


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    nodes: int = 0
    basis_sum: int = 0
    gram_max: float = 0.0


class Tracer:
    """Per-name span totals; recording only while `enabled` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stats: dict[str, SpanStats] = {}
        self.nested: Counter = Counter()  # (ancestor name, name) -> calls
        self._stack: list[list] = []  # [name, time covered by child spans]

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        for ancestor in {frame[0] for frame in self._stack}:
            self.nested[(ancestor, name)] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        stats = self.stats.setdefault(name, SpanStats())
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stats.failed += 1
            raise
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            stats.calls += 1
            stats.self_s += elapsed - frame[1]
            stats.durations.append(elapsed)
        _count(stats, result)
        return result


def _count(stats: SpanStats, result) -> None:
    nodes = getattr(result, "nodes", None)
    if isinstance(nodes, int):
        stats.nodes += nodes
    basis = getattr(result, "basis_size", None)
    if isinstance(basis, int):
        stats.basis_sum += basis
        stats.gram_max = max(stats.gram_max, float(result.gram_condition))


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


class Installation:
    """Undo record of one `install` call."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap the layers' public functions at every binding site in the package."""
    import ckn_lab  # noqa: F401  (loads every layer module)
    from ckn_lab.profiles import PowerPeakProfile

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"ckn_lab.{layer}"]
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    done = Installation()
    holders = [m for n, m in sorted(sys.modules.items()) if n == "ckn_lab" or n.startswith("ckn_lab.")]
    for module in holders:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                done.set(module, attr, wrappers[obj])
    for method in ALGEBRA_METHODS:
        original = getattr(PowerPeakProfile, method)
        done.set(PowerPeakProfile, method, _wrap(tracer, f"profiles.PowerPeakProfile.{method}", original))
    return done


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures; counts and self times are per workload operation."""
    stats = tracer.stats
    empty = SpanStats()

    def get(name: str) -> SpanStats:
        return stats.get(name, empty)

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def prefixed(prefix: str):
        return [s for n, s in stats.items() if n.startswith(prefix)]

    ritz = get("spectral.ritz_min_eig")
    locate = get("spectral.fs_locate")
    quad = get("quadrature.integrate_semiinfinite")
    algebra = prefixed("profiles.PowerPeakProfile.")
    checks = prefixed("identities.check_")
    specfun = prefixed("specfun.")
    ritz_ok = ritz.calls - ritz.failed
    return {
        "spectral.ritz_min_eig.calls": per_op(ritz.calls),
        "spectral.ritz_min_eig.self_ms": per_op(1e3 * ritz.self_s),
        "spectral.ritz_min_eig.ms_p50": 1e3 * _p50(ritz.durations),
        "spectral.ritz_min_eig.basis_size_mean": ritz.basis_sum / ritz_ok if ritz_ok else 0.0,
        "spectral.ritz_min_eig.gram_condition_max": ritz.gram_max,
        "spectral.ritz_min_eig.useful_ratio": ritz_ok / ritz.calls if ritz.calls else 0.0,
        "profiles.PowerPeakProfile.constructed": per_op(get("profiles.PowerPeakProfile.__init__").calls),
        "profiles.algebra.self_ms": per_op(1e3 * sum(s.self_s for s in algebra)),
        "spectral.fs_locate.ritz_per_call": (
            tracer.nested[("spectral.fs_locate", "spectral.ritz_min_eig")] / locate.calls
            if locate.calls
            else 0.0
        ),
        "spectral.fs_locate.self_ms": per_op(1e3 * locate.self_s),
        "quadrature.integrate_semiinfinite.calls": per_op(quad.calls),
        "quadrature.integrate_semiinfinite.nodes": per_op(quad.nodes),
        "quadrature.integrate_semiinfinite.self_ms": per_op(1e3 * quad.self_s),
        "quadrature.integrate_semiinfinite.failed": per_op(quad.failed),
        "quadrature.quotient_radial.ms_p50": 1e3 * _p50(get("quadrature.quotient_radial").durations),
        "variation.second_variation.self_ms": per_op(1e3 * get("variation.second_variation").self_s),
        "variation.second_variation.failed": per_op(get("variation.second_variation").failed),
        "variation.directional_quotient.self_ms": per_op(1e3 * get("variation.directional_quotient").self_s),
        "profiles.euler_lagrange_residual.ms_p50": 1e3 * _p50(get("profiles.euler_lagrange_residual").durations),
        "identities.checks.calls": per_op(sum(s.calls for s in checks)),
        "identities.checks.self_ms": per_op(1e3 * sum(s.self_s for s in checks)),
        "specfun.calls": per_op(sum(s.calls for s in specfun)),
        "specfun.self_ms": per_op(1e3 * sum(s.self_s for s in specfun)),
        "params.self_ms": per_op(1e3 * sum(s.self_s for s in prefixed("params."))),
        "cli.main.self_ms": per_op(1e3 * get("cli.main").self_s),
    }
