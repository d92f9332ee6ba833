"""Command-line front end: constants, certificates, region scans, batteries.

Subcommands
-----------
constants        closed-form exponents and sharp constants at one triple
certify          three-witness symmetry-breaking certificate at one triple
fs-curve         transition curve: closed form vs spectral root (Brent)
scan             CSV region map over a parameter grid
verify-all       the ten checks of the acceptance gate
transform-check  fourth-order ODE residuals for the transformed profiles

Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 I/O failure.  Single-point commands emit JSON lines with ``--json``;
``scan`` always writes CSV with a fixed header so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from multiprocessing import Pool

import numpy as np

from . import quadrature
from .params import (
    ParamError,
    RegionClass,
    beta_fs,
    classify,
    derive,
    hardy_comparison_constants,
    rellich_infimum,
    validate,
)
from .profiles import (
    amplitude_constant,
    cosh_profile_residual,
    emden_fowler,
    extremal,
    s_r_closed,
)
from .quadrature import (
    AccuracyError,
    DivergentIntegralError,
    set_default_tolerance,
    set_node_cap,
)
from .specfun import DomainError
from .spectral import BracketError, ConditioningError, fs_locate, ritz_min_eig_fallback
from .spectral import ritz_min_eig  # noqa: F401  (perfbench's tracer wraps this binding)
from .variation import DEFAULT_CERT_TOL, DEFAULT_EPS, certify, second_variation
from .verify import run_all

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument helpers


def _parse_range(text: str, name: str) -> list[float]:
    """Parse 'lo:hi:steps' into a linspace, or a bare number into [x]."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"{name} range must be lo:hi:steps, got {text!r}")
        try:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"unparseable {name} range {text!r}: {exc}") from exc
        if steps < 2:
            raise DomainError(f"{name} range needs steps >= 2, got {steps}")
        if not lo < hi:
            raise DomainError(f"{name} range needs lo < hi, got {lo} >= {hi}")
        return [float(v) for v in np.linspace(lo, hi, steps)]
    try:
        return [float(text)]
    except ValueError as exc:
        raise DomainError(f"unparseable {name} value {text!r}") from exc


def _beta_values(N: int, alpha: float, beta_arg: str) -> list[float]:
    """Beta grid for one alpha: explicit range, or the valid strip ('auto').

    'auto' (optionally 'auto:steps', default 20) spans
    [alpha-2+delta, N*alpha/(N-2)] with delta = 1e-3 * strip width, so the
    open lower boundary is never sampled.
    """
    if beta_arg.startswith("auto"):
        steps = 20
        if ":" in beta_arg:
            try:
                steps = int(beta_arg.split(":", 1)[1])
            except ValueError as exc:
                raise DomainError(f"bad auto step count in {beta_arg!r}") from exc
        if steps < 2:
            raise DomainError(f"auto beta range needs steps >= 2, got {steps}")
        lo = alpha - 2.0
        hi = N * alpha / (N - 2.0)
        width = hi - lo
        if width <= 0.0:
            raise DomainError(f"empty beta strip at alpha={alpha} (need alpha > {2 - N})")
        delta = 1e-3 * width
        return [float(v) for v in np.linspace(lo + delta, hi, steps)]
    return _parse_range(beta_arg, "beta")


_CONFIG_KEYS = ("eps", "tol", "jobs", "quad_tol", "node_cap")


def _apply_config(args: argparse.Namespace) -> None:
    """Layer an optional key=value config file under explicit flags.

    Precedence is CLI flag > config entry > built-in default; quadrature
    knobs (quad_tol, node_cap) have no flags and apply until `main` returns.
    """
    path = getattr(args, "config", None)
    if not path:
        return
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise DomainError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(known: {', '.join(_CONFIG_KEYS)})"
                )
            entries[key] = value
    try:
        if "quad_tol" in entries:
            set_default_tolerance(float(entries["quad_tol"]))
        if "node_cap" in entries:
            set_node_cap(int(entries["node_cap"]))
        for key, cast in (("eps", float), ("tol", float), ("jobs", int)):
            if key in entries and getattr(args, key, None) is None and hasattr(args, key):
                setattr(args, key, cast(entries[key]))
    except ValueError as exc:
        raise DomainError(f"{path}: bad value: {exc}") from exc


def _resolve_jobs(args: argparse.Namespace) -> int:
    if getattr(args, "jobs", None):
        return max(1, args.jobs)
    env = os.environ.get("CKN_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise DomainError(
                f"CKN_LAB_THREADS must be an integer, got {env!r}"
            ) from exc
    return os.cpu_count() or 1


def _open_out(args: argparse.Namespace, newline: str | None = None):
    path = getattr(args, "out", None)
    if path:
        return open(path, "w", newline=newline), True
    return sys.stdout, False


def _emit_record(record: dict, args: argparse.Namespace) -> None:
    stream, owned = _open_out(args)
    try:
        if getattr(args, "json", False):
            print(json.dumps(record, sort_keys=True), file=stream)
        else:
            width = max(len(key) for key in record)
            for key, value in record.items():
                print(f"{key:<{width}}  {value}", file=stream)
    finally:
        if owned:
            stream.close()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(args: argparse.Namespace) -> int:
    p = validate(args.N, args.alpha, args.beta)
    d = derive(p)
    hc = hardy_comparison_constants(p)
    # the comparable fourth-order weight |x|^(2a-beta) matches |x|^(-2a_r)
    # with a_r = (beta - 2 alpha)/2
    r_val, r_k = rellich_infimum(p.N, (p.beta - 2.0 * p.alpha) / 2.0)
    record = {
        "n": p.N,
        "alpha": p.alpha,
        "beta": p.beta,
        "class": classify(p.N, p.alpha, p.beta).value,
        "p_star": d.p_star,
        "q": d.q,
        "m": d.M,
        "amplitude": amplitude_constant(p),
        "s_r": s_r_closed(p),
        "beta_fs": beta_fs(p.N, p.alpha),
        "hardy_e": hc.hardy_e,
        "bound_c": hc.bound_c,
        "rellich_infimum": r_val,
        "rellich_argmin": r_k,
    }
    _emit_record(record, args)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    p = validate(args.N, args.alpha, args.beta)
    eps = args.eps if args.eps is not None else DEFAULT_EPS
    tol = args.tol if args.tol is not None else DEFAULT_CERT_TOL
    cert = certify(p, eps=eps, tol=tol)
    record = {
        "n": p.N,
        "alpha": p.alpha,
        "beta": p.beta,
        "verdict": cert.verdict.value,
        "expected": cert.expected.value,
        "witness_signs": list(cert.witness_signs),
        "s_r": cert.s_r,
        "second_variation": cert.second_variation,
        "directional_quotient": cert.directional_quotient,
        "eps": cert.eps,
        "ritz_rho1": cert.ritz_rho1,
        "discrepancies": list(cert.discrepancies),
    }
    _emit_record(record, args)
    return 1 if cert.discrepancies else 0


def _cmd_fs_curve(args: argparse.Namespace) -> int:
    tol = args.tol if args.tol is not None else 1e-4
    stream, owned = _open_out(args)
    try:
        for alpha in _parse_range(args.alpha, "alpha"):
            closed = beta_fs(args.N, alpha)
            located = fs_locate(args.N, alpha, tol)
            row = {
                "alpha": alpha,
                "beta_fs_closed": closed,
                "beta_fs_spectral": located,
                "gap": located - closed,
            }
            if getattr(args, "json", False):
                print(json.dumps(row, sort_keys=True), file=stream)
            else:
                print(
                    f"alpha={alpha!r} closed={closed!r} "
                    f"spectral={located!r} gap={row['gap']:.3e}",
                    file=stream,
                )
    finally:
        if owned:
            stream.close()
    return 0


_SCAN_FIELDS = (
    "N",
    "alpha",
    "beta",
    "class",
    "beta_fs",
    "s_r",
    "second_variation",
    "rho1",
    "wall_time_ms",
)


def _scan_point(point: tuple[int, float, float]) -> list[str]:
    """One CSV row; must stay top-level so worker processes can pickle it.

    Numeric cells are empty where the quantity is undefined (Invalid or
    degenerate triples) or where the computation cannot condition at the
    extreme edge of the strip; wall_time_ms stays empty so reruns are
    byte-identical.
    """
    N, alpha, beta = point
    tag = classify(N, alpha, beta)
    row = [str(N), repr(alpha), repr(beta), tag.value, "", "", "", "", ""]
    if tag in (RegionClass.INVALID, RegionClass.RELLICH_DEGENERATE):
        return row
    p = validate(N, alpha, beta)
    row[4] = repr(beta_fs(N, alpha))
    row[5] = repr(s_r_closed(p))
    try:
        row[6] = repr(second_variation(p).value)
    except (AccuracyError, DivergentIntegralError):
        pass
    try:
        row[7] = repr(ritz_min_eig_fallback(1, p).min_eigenvalue)
    except ConditioningError:
        pass
    return row


def _init_scan_worker(quad_tol: float, node_cap: int) -> None:
    """Apply the parent's quadrature settings in a worker.

    Workers started by spawn or forkserver import the package afresh and
    would otherwise integrate with the built-in defaults.
    """
    set_default_tolerance(quad_tol)
    set_node_cap(node_cap)


def _cmd_scan(args: argparse.Namespace) -> int:
    points = [
        (args.N, alpha, beta)
        for alpha in _parse_range(args.alpha, "alpha")
        for beta in _beta_values(args.N, alpha, args.beta)
    ]
    jobs = _resolve_jobs(args)
    if jobs > 1 and len(points) > 1:
        settings = (quadrature.DEFAULT_TOL, quadrature.NODE_CAP)
        with Pool(processes=jobs, initializer=_init_scan_worker, initargs=settings) as pool:
            rows = pool.map(_scan_point, points)
    else:
        rows = [_scan_point(pt) for pt in points]
    stream, owned = _open_out(args, newline="")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_SCAN_FIELDS)
        writer.writerows(rows)
    finally:
        if owned:
            stream.close()
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    results = run_all(args.perturb)
    stream, owned = _open_out(args)
    try:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name}: {r.detail}", file=stream)
        failures = [r.name for r in results if not r.passed]
        if failures:
            print(
                f"{len(failures)} check(s) failed: {', '.join(failures)}",
                file=stream,
            )
    finally:
        if owned:
            stream.close()
    return 1 if any(not r.passed for r in results) else 0


def _cmd_transform_check(args: argparse.Namespace) -> int:
    p = validate(args.N, args.alpha, args.beta)
    ts = np.linspace(-6.0, 6.0, 101)
    _, residual = emden_fowler(extremal(p), p)
    record = {
        "n": p.N,
        "alpha": p.alpha,
        "beta": p.beta,
        "ground_state_residual": float(np.max(np.abs(residual(ts)))),
    }
    worst = record["ground_state_residual"]
    for m in (4.5, 5.0, 6.0, 8.0):
        value = float(np.max(np.abs(cosh_profile_residual(m, ts))))
        record[f"cosh_residual_m{str(m).replace('.', '_')}"] = value
        worst = max(worst, value)
    _emit_record(record, args)
    return 0 if worst < 1e-6 else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn-lab",
        description=(
            "Sharp constants, symmetry-breaking certificates and region scans "
            "for a fourth-order weighted critical inequality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, json_flag=True):
        if json_flag:
            sp.add_argument("--json", action="store_true", help="emit a JSON line")
        sp.add_argument("--config", help="key=value config file (eps, tol, jobs, quad_tol, node_cap)")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    def add_point(sp):
        sp.add_argument("--N", type=int, required=True, help="dimension (integer >= 5)")
        sp.add_argument("--alpha", type=float, required=True, help="gradient weight exponent")
        sp.add_argument("--beta", type=float, required=True, help="operator weight exponent")

    sp = sub.add_parser("constants", help="closed-form constants at one triple")
    add_point(sp)
    add_io(sp)
    sp.set_defaults(handler=_cmd_constants)

    sp = sub.add_parser("certify", help="three-witness symmetry-breaking certificate")
    add_point(sp)
    sp.add_argument("--eps", type=float, default=None, help="perturbation amplitude (default 0.01)")
    sp.add_argument("--tol", type=float, default=None, help="dead-zone tolerance for witness signs")
    add_io(sp)
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("fs-curve", help="transition curve, closed form vs spectral root")
    sp.add_argument("--N", type=int, required=True, help="dimension (integer >= 5)")
    sp.add_argument("--alpha", required=True, help="value or lo:hi:steps range (alpha > 0)")
    sp.add_argument("--tol", type=float, default=None, help="bracket width (default 1e-4)")
    add_io(sp)
    sp.set_defaults(handler=_cmd_fs_curve)

    sp = sub.add_parser("scan", help="CSV region map over a parameter grid")
    sp.add_argument("--N", type=int, required=True, help="dimension (integer >= 5)")
    sp.add_argument("--alpha", required=True, help="value or lo:hi:steps range")
    sp.add_argument(
        "--beta",
        required=True,
        help="value, lo:hi:steps range, or auto[:steps] for the valid strip",
    )
    sp.add_argument("--jobs", type=int, default=None, help="worker processes (default: all cores)")
    add_io(sp, json_flag=False)
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("verify-all", help="run the invariant battery")
    sp.add_argument("--perturb", type=float, default=0.0, help=argparse.SUPPRESS)
    add_io(sp, json_flag=False)
    sp.set_defaults(handler=_cmd_verify_all)

    sp = sub.add_parser("transform-check", help="autonomous-ODE residuals")
    add_point(sp)
    add_io(sp)
    sp.set_defaults(handler=_cmd_transform_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # --config's quadrature settings hold for this command only
    saved = quadrature.DEFAULT_TOL, quadrature.NODE_CAP
    try:
        _apply_config(args)
        return args.handler(args)
    except (ParamError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConditioningError, BracketError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        quadrature.DEFAULT_TOL, quadrature.NODE_CAP = saved


if __name__ == "__main__":
    raise SystemExit(main())
