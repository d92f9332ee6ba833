"""Command-line front end: constants, certificates, region scans, batteries.

Subcommands
-----------
constants        closed-form exponents and sharp constants at one triple
certify          three-witness symmetry-breaking certificate at one triple
fs-curve         transition curve: closed form vs spectral root (Brent)
scan             CSV region map over a parameter grid
verify-all       the ten checks of the acceptance gate
transform-check  fourth-order ODE residual of the transformed ground state

Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 I/O failure.  Single-point commands emit JSON lines with ``--json``;
``scan`` always writes CSV with a fixed header so reruns are
byte-identical.

numpy and the numerical layers are imported by the handlers that use
them, so ``constants``, ``--help`` and argument errors run on the stdlib
alone.

A named command is parsed by its own parser, the one the whole parser
would hand its tokens to; the whole parser answers only an argv that
names no command or leaves tokens over, so every usage line, error and
exit code is the one the whole parser gives.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import math
import re
import sys

from .params import (
    DEFAULT_CERT_TOL,
    DEFAULT_EPS,
    ParamError,
    RegionClass,
    _dimension,
    amplitude_constant,
    beta_fs,
    beta_strip,
    classify,
    derive,
    hardy_comparison_constants,
    rellich_infimum,
    s_r_closed,
    validate,
)
from .specfun import AccuracyError, BracketError, ConditioningError, DomainError

__all__ = ["main"]

#: the one numerical-layer function read as an attribute of this module, by defining module
_LAYER_NAMES = {"ritz_min_eig": "spectral"}


def __getattr__(name: str):
    """A name of `_LAYER_NAMES`, read from its module on every access (so a rebinding there shows);
    only perfbench's install test reads one, and ROADMAP item 10 deletes this hook once item 1 repoints it."""
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_LAYER_NAMES[name]}"), name)


# ---------------------------------------------------------------------------
# argument helpers


def _grid(lo: float, hi: float, steps: int, name: str) -> list[float]:
    """`steps` evenly spaced values from lo to hi; numpy loads only once steps, width and order pass."""
    if steps < 2:
        raise DomainError(f"{name} range needs steps >= 2, got {steps}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"{name} range from {lo} to {hi} has no finite width")
    if not lo < hi:
        raise DomainError(f"{name} range needs lo < hi, got {lo} >= {hi}")
    import numpy as np

    try:
        values = np.linspace(lo, hi, steps)
    except ValueError as exc:  # a step count numpy cannot hold, refused by size before it allocates
        raise DomainError(f"{name} range from {lo} to {hi} has {steps} steps, more than numpy can hold") from exc
    return [float(v) for v in values]


def _parse_range(text: str, name: str) -> list[float]:
    """Parse 'lo:hi:steps' into a linspace, or a bare number into [x]."""
    try:
        if ":" not in text:
            return [float(text)]
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise DomainError(f"{name} must be a number or lo:hi:steps, got {text!r}") from exc
    return _grid(lo, hi, steps, name)


def _beta_values(N: int, alpha: float, beta_arg: str) -> list[float]:
    """Beta grid for one alpha: explicit range, or the valid strip ('auto').

    'auto' (optionally 'auto:steps', default 20) spans
    [alpha-2+delta, N*alpha/(N-2)] with delta = 1e-3 * strip width, so the
    open lower boundary is never sampled.
    """
    if not beta_arg.startswith("auto"):
        return _parse_range(beta_arg, "beta")
    try:  # exactly 'auto' or 'auto:<steps>': 'auto3' and 'autofoo' are no step counts
        steps = 20 if beta_arg == "auto" else int(beta_arg.removeprefix("auto:"))
    except ValueError as exc:
        raise DomainError(f"bad auto step count in {beta_arg!r}") from exc
    lo, hi = beta_strip(N, alpha)
    return _grid(lo + 1e-3 * (hi - lo), hi, steps, "auto beta")


def _output(args: argparse.Namespace, newline: str | None = None):
    """The ``--out`` file, closed when the block ends, or stdout without one."""
    return open(args.out, "w", newline=newline) if args.out else contextlib.nullcontext(sys.stdout)


def _emit_record(p, fields: dict, args: argparse.Namespace) -> None:
    """The point p as n, alpha and beta, then `fields`: aligned text lines, or one JSON line with --json."""
    record = {"n": p.N, "alpha": p.alpha, "beta": p.beta, **fields}
    with _output(args) as stream:
        if getattr(args, "json", False):
            print(json.dumps(record, sort_keys=True), file=stream)
        else:
            width = max(len(key) for key in record)
            for key, value in record.items():
                print(f"{key:<{width}}  {value}", file=stream)


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
    _emit_record(p, record, args)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .variation import certify

    p = validate(args.N, args.alpha, args.beta)
    cert = certify(p, eps=args.eps, tol=args.tol)
    fields = cert._asdict()
    del fields["params"]  # _emit_record prints it as n, alpha and beta
    fields.update(verdict=cert.verdict.value, expected=cert.expected.value,
                  witness_signs=list(cert.witness_signs), discrepancies=list(cert.discrepancies))
    _emit_record(p, fields, args)
    return 1 if cert.discrepancies else 0


def _cmd_fs_curve(args: argparse.Namespace) -> int:
    from .spectral import fs_locate

    _dimension(args.N)
    with _output(args) as stream:
        for alpha in _parse_range(args.alpha, "alpha"):
            closed = beta_fs(args.N, alpha)
            located = fs_locate(args.N, alpha, args.tol)
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
    return 0


_SCAN_FIELDS = ("N", "alpha", "beta", "class", "beta_fs", "s_r", "second_variation", "rho1", "wall_time_ms")


def _scan_cell(N: int, alpha: float, beta: float) -> dict[str, str]:
    """The cells of one scan row, keyed by column name; `_cmd_scan` leaves a missing one empty.

    rho1 is the closed-form least mode-1 eigenvalue `mode_eigenvalue(1, p)`, negative exactly
    where the radial extremal is unstable (beta > beta_fs).  beta_fs, s_r, second_variation and
    rho1 are missing at Invalid or degenerate triples, second_variation also where it underflows
    double precision (large M or large N); wall_time_ms is never filled, so reruns are byte-identical.
    """
    from .spectral import mode_eigenvalue
    from .variation import second_variation

    tag = classify(N, alpha, beta)
    cell = {"N": str(N), "alpha": repr(alpha), "beta": repr(beta), "class": tag.value}
    if tag in (RegionClass.INVALID, RegionClass.RELLICH_DEGENERATE):
        return cell
    p = validate(N, alpha, beta)
    cell["beta_fs"] = repr(beta_fs(N, alpha))
    cell["s_r"] = repr(s_r_closed(p))
    with contextlib.suppress(DomainError):
        cell["second_variation"] = repr(second_variation(p).value)
    cell["rho1"] = repr(mode_eigenvalue(1, p))
    return cell


def _cmd_scan(args: argparse.Namespace) -> int:
    _dimension(args.N)
    points = [
        (args.N, alpha, beta)
        for alpha in _parse_range(args.alpha, "alpha")
        for beta in _beta_values(args.N, alpha, args.beta)
    ]
    cells = [_scan_cell(*point) for point in points]
    import csv

    with _output(args, newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_SCAN_FIELDS)
        writer.writerows([cell.get(name, "") for name in _SCAN_FIELDS] for cell in cells)
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from .verify import run_all

    results = run_all()
    failures = [r.name for r in results if not r.passed]
    with _output(args) as stream:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name}: {r.detail}", file=stream)
        if failures:
            print(
                f"{len(failures)} check(s) failed: {', '.join(failures)}",
                file=stream,
            )
    return 1 if failures else 0


def _cmd_transform_check(args: argparse.Namespace) -> int:
    import numpy as np

    from .profiles import emden_fowler, extremal

    p = validate(args.N, args.alpha, args.beta)
    ts = np.linspace(-6.0, 6.0, 101)
    _, residual = emden_fowler(extremal(p), p)
    record = {
        "ground_state_residual": float(np.max(np.abs(residual(ts)))),
        "ground_state_residual_rel": float(np.max(residual(ts, relative=True))),
    }
    _emit_record(p, record, args)
    # the ground state's size spans many orders of magnitude over the
    # domain, so its defect is judged relative to the terms of the equation
    return 0 if record["ground_state_residual_rel"] < 1e-6 else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every `main` call.

    `parse_args` leaves the parser unchanged, and each handler looks up the
    functions it calls when it runs, so one instance serves every call.
    """
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
    sp.add_argument(
        "--eps", type=float, default=DEFAULT_EPS, help="perturbation size (default %(default)g)"
    )
    sp.add_argument(
        "--tol", type=float, default=DEFAULT_CERT_TOL, help="sign dead zone (default %(default)g)"
    )
    add_io(sp)
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("fs-curve", help="transition curve, closed form vs spectral root")
    sp.add_argument("--N", type=int, required=True, help="dimension (integer >= 5)")
    sp.add_argument("--alpha", required=True, help="value or lo:hi:steps range (alpha > 0)")
    sp.add_argument("--tol", type=float, default=1e-4, help="bracket width (default %(default)g)")
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
    sp.add_argument(
        "--jobs", type=int, choices=[1], default=1,
        help="accepts only 1: every cell runs in the calling process (default %(default)s)",
    )
    add_io(sp, json_flag=False)
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("verify-all", help="run the invariant battery")
    add_io(sp, json_flag=False)
    sp.set_defaults(handler=_cmd_verify_all)

    sp = sub.add_parser("transform-check", help="autonomous-ODE residual of the ground state")
    add_point(sp)
    add_io(sp)
    sp.set_defaults(handler=_cmd_transform_check)

    return parser


_LONG_OPTION, _NEGATIVE_VALUE = re.compile(r"--[^=]+"), re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--opt -1e-3` written `--opt=-1e-3`.

    argparse reads a token that starts with '-' as an option unless it looks like -5 or -.5, so it
    refuses -1e-3, -inf or a range -1:0.5:2 after its option; joined by '=', any value passes.
    """
    joined: list[str] = []
    for token in argv:
        if _NEGATIVE_VALUE.match(token) and joined and _LONG_OPTION.fullmatch(joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of `_build_parser`, by name."""
    return next(a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        if command := _commands().get(argv[0] if argv else None):  # a named command: its own parser reads the rest
            args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not command or rest:  # no command, or tokens left over: the whole parser answers
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
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


if __name__ == "__main__":
    raise SystemExit(main())
