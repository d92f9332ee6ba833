"""The three workloads: what one operation runs, and the oracle that judges it.

`run` is the timed part and calls the program only through attribute
lookups on its modules (`cli.main`, `quadrature.quotient_radial`, ...),
so the traced run sees every call.  `judge` is untimed and uses the
closed forms, bound at import, as oracles.  Bounds are the ones the
verify battery and the acceptance tests already use.  `round_size` is the
number of inputs in one round of the workload's generator, and `round_s`
the time one round takes on the reference machine when other tenants
slow it; a run makes `seconds / round_s` rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import ckn_lab.cli as cli
import ckn_lab.identities as identities
import ckn_lab.params as params
import ckn_lab.profiles as profiles
import ckn_lab.quadrature as quadrature
import ckn_lab.spectral as spectral
import ckn_lab.variation as variation
from ckn_lab.identities import BATTERY_PROFILES, TestFunction
from ckn_lab.params import RegionClass, beta_fs, classify, derive, validate
from ckn_lab.profiles import PowerPeakProfile, s_r_closed
from ckn_lab.spectral import _potential_constant
from ckn_lab.variation import DEFAULT_CERT_TOL

import inputs

SCAN_HEADER = "N,alpha,beta,class,beta_fs,s_r,second_variation,rho1,wall_time_ms"
#: fs_locate's tolerance in the verify battery; also the band around the
#: curve inside which a scan cell's signs are not judged
FS_TOL = 1e-4
EXTREMALITY_BOUND = 1e-6
EL_BOUND = 1e-8
IDENTITY_BOUND = 1e-8
KERNEL_BOUND = 1e-8
DIRECTIONAL_EPS = 1e-2


@dataclass
class Verdict:
    """Judgement of one point (a scan cell, a locate, a check)."""

    ok: bool
    known: str | None = None  # known-defect tag of the input
    reason: str = ""


@dataclass
class Judgement:
    verdict: Verdict
    accuracy: dict[str, float] = field(default_factory=dict)


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # op boundary: an escaped error is a failed op
            return -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def judge_scan_row(cell: inputs.Cell, fields: list[str]) -> Verdict:
    """Oracle for one CSV row of ``scan``."""
    N, alpha, beta = cell.N, cell.alpha, cell.beta

    def fail(reason: str) -> Verdict:
        return Verdict(False, cell.known, reason)

    if len(fields) != 9:
        return fail(f"row has {len(fields)} fields")
    if fields[:3] != [str(N), repr(alpha), repr(beta)]:
        return fail(f"row is for {fields[:3]}")
    tag = classify(N, alpha, beta)
    if fields[3] != tag.value:
        return fail(f"class {fields[3]} != {tag.value}")
    if tag in (RegionClass.INVALID, RegionClass.RELLICH_DEGENERATE):
        return Verdict(True, cell.known) if fields[4:] == [""] * 5 else fail("undefined cell filled")
    curve = beta_fs(N, alpha)
    if fields[4] != repr(curve) or fields[5] != repr(s_r_closed(validate(N, alpha, beta))):
        return fail("closed forms differ")
    if fields[8] != "":
        return fail("wall_time_ms not blank")
    if fields[6] == "" or fields[7] == "":
        return fail("blank second_variation or rho1 in a defined cell")
    sv, rho = float(fields[6]), float(fields[7])
    if sv == 0.0:
        return fail("second_variation is exactly 0.0")
    side = _sign(curve - beta)
    if abs(curve - beta) > FS_TOL and (_sign(sv) != side or _sign(rho) != side):
        return fail(f"signs ({sv:.3e}, {rho:.3e}) on curve side {side}")
    return Verdict(True, cell.known)


def _judge_scan_text(cell: inputs.Cell, code: int, text: str) -> Verdict:
    lines = text.splitlines()
    if code != 0 or len(lines) != 2 or lines[0] != SCAN_HEADER:
        return Verdict(False, cell.known, f"scan exit {code}, {len(lines)} lines")
    return judge_scan_row(cell, lines[1].split(","))


class Scan:
    """Serial region-map cells, one ``scan`` call per cell."""

    name = "scan"
    round_size = inputs.SCAN_ROUND
    inputs = staticmethod(inputs.scan_cells)
    round_s = 6.0

    @staticmethod
    def run(cell: inputs.Cell):
        # `--beta=x`, not `--beta x`: argparse takes "-9.4e-06" for an option name
        return _run_cli(["scan", f"--N={cell.N}", f"--alpha={cell.alpha!r}", f"--beta={cell.beta!r}", "--jobs=1"])

    @staticmethod
    def judge(cell, output) -> Judgement:
        code, text, _ = output
        return Judgement(_judge_scan_text(cell, code, text))


class FsCurve:
    """Transition-curve searches, one ``fs-curve`` call per alpha."""

    name = "fs_curve"
    round_size = inputs.FS_ROUND
    inputs = staticmethod(inputs.fs_locates)
    round_s = 7.2

    @staticmethod
    def run(loc: inputs.Locate):
        return _run_cli(["fs-curve", f"--N={loc.N}", f"--alpha={loc.alpha!r}", "--json"])

    @staticmethod
    def judge(loc, output) -> Judgement:
        code, text, err = output
        if code != 0:
            return Judgement(Verdict(False, None, f"fs-curve exit {code}: {err.strip()}"))
        row = json.loads(text)
        closed = beta_fs(loc.N, loc.alpha)
        gap = abs(row["beta_fs_spectral"] - closed)
        ok = row["alpha"] == loc.alpha and row["beta_fs_closed"] == closed and gap <= FS_TOL
        accuracy = {"fs_gap_max": gap}
        return Judgement(Verdict(ok, None, "" if ok else f"gap {gap:.3e}"), accuracy)


def _test_function(profile: int, mode: int) -> TestFunction:
    return TestFunction(BATTERY_PROFILES[profile][1], mode)


def _execute_check(check: inputs.Check):
    kind, args = check.kind, check.args
    if kind == "extremality":
        point, lam = args
        p = params.validate(*point)
        return quadrature.quotient_radial(profiles.extremal(p, lam), p)
    if kind == "euler_lagrange":
        point, lam = args
        p = params.validate(*point)
        return profiles.euler_lagrange_residual(profiles.extremal(p, lam), p)
    if kind == "sign_law":
        return variation.second_variation(params.validate(*args)).value
    if kind == "directional":
        return variation.directional_quotient(params.validate(*args), DIRECTIONAL_EPS)
    if kind == "kernel":
        N, alpha = args
        p = params.validate(N, alpha, params.beta_fs(N, alpha))
        m = params.derive(p).M
        x1 = PowerPeakProfile([(1.0, 1, -(m - 2.0) / 2.0)], sigma=2, nu=1.0)
        q1 = spectral.mode_quadratic_form(x1, 1, p)
        pot = quadrature.integrate_semiinfinite(
            lambda s: quadrature.power_weighted(x1.eval(s) / (1.0 + s * s) ** 2, s, 2.0, m - 1.0)
        ).value
        return q1, pot
    point, profile, mode = args
    p = params.validate(*point)
    u = _test_function(profile, mode)
    if kind == "laplacian_bound":
        return identities.check_laplacian_bound(u, p)
    if kind == "divergence":
        return identities.check_divergence_expansion(u, p)
    if kind == "pohozaev":
        return identities.check_pohozaev_identity(u, p.N)
    return identities.check_cross_term_identity(u, p)


def _judge_check(check: inputs.Check, value) -> tuple[bool, dict[str, float]]:
    kind, args = check.kind, check.args
    if kind == "extremality":
        p = validate(*args[0])
        defect = abs(value - s_r_closed(p)) / s_r_closed(p)
        return defect < EXTREMALITY_BOUND, {"extremality_max_rel_defect": defect}
    if kind == "euler_lagrange":
        return value < EL_BOUND, {"el_residual_max": value}
    if kind == "sign_law":
        N, alpha, beta = args
        d = derive(validate(*args))
        law = _sign(d.q * d.q * (N - 1.0) - (d.M - 1.0))
        return value != 0.0 and _sign(value) == law == _sign(beta_fs(N, alpha) - beta), {}
    if kind == "directional":
        N, alpha, beta = args
        s_r = s_r_closed(validate(*args))
        drop = value - s_r
        if abs(drop) <= DEFAULT_CERT_TOL * s_r * DIRECTIONAL_EPS**2:
            return False, {}
        return _sign(drop) == _sign(beta_fs(N, alpha) - beta), {}
    if kind == "kernel":
        N, alpha = args
        q1, pot = value
        m = derive(validate(N, alpha, beta_fs(N, alpha))).M
        return abs(q1) / (_potential_constant(m) * pot) < KERNEL_BOUND, {}
    if kind == "laplacian_bound":
        ratio, bound, ok = value
        ok = ok and ratio <= bound * (1.0 + 1e-12)
        if args[0][1] == 0.0:
            ok = ok and bound == 1.0 and abs(ratio - 1.0) <= 1e-10
        return ok, {}
    return value < IDENTITY_BOUND, {"identity_defect_max": value}


class Invariants:
    """Public-API invariant checks that need no Ritz solve."""

    name = "invariants"
    round_size = inputs.CHECKS_ROUND
    inputs = staticmethod(inputs.invariant_checks)
    round_s = 0.8

    @staticmethod
    def run(check: inputs.Check):
        try:
            return ("value", _execute_check(check))
        except Exception as exc:  # op boundary: a raised error is a failed check
            return ("error", f"{type(exc).__name__}: {exc}")

    @staticmethod
    def judge(check, output) -> Judgement:
        status, value = output
        if status == "error":
            return Judgement(Verdict(False, check.known, value))
        ok, accuracy = _judge_check(check, value)
        reason = "" if ok else f"{check.kind} bound missed: {value!r}"
        return Judgement(Verdict(ok, check.known, reason), accuracy)


WORKLOADS = {w.name: w for w in (Scan, FsCurve, Invariants)}


def rho1_reference() -> float:
    """Least mode-1 Ritz eigenvalue at (5, 1, 1) with J = 16."""
    return spectral.ritz_min_eig(1, validate(5, 1.0, 1.0), 16).min_eigenvalue


#: pinned by the spectral tests at relative 1e-6
RHO1_PIN = -0.20334538714081252
