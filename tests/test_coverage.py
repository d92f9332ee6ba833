"""The coverage ledger: what each point command answers over the whole admissible domain.

One grid of 270 points runs through `cli.main`: N in {5, 6, 8, 12, 30, 100, 438, 1000, 10^6},
alpha in {-1, 0.1, 1, 4, 50} (each above 2 - N), and beta at the fractions {1e-6, 1e-4, 1e-2,
0.3, 0.9} of the strip (lo, hi] and at hi itself.  Each command keeps one table of outcomes:
"answer" (exit 0), "exit 1", and each exit-2 refusal by the quantity its message names; so does
`quotient_radial` on the extremal, by its DomainError's message.  No table may get worse: answers
only rise, every other count only falls, and an outcome the table does not list is worse.  A
change that moves a count updates its table and says so.
"""

import contextlib
import functools
import io
import json
import re
import sys
from collections import Counter

import pytest

from ckn_lab.cli import main
from ckn_lab.params import beta_strip, s_r_closed, validate
from ckn_lab.profiles import extremal
from ckn_lab.quadrature import quotient_radial
from ckn_lab.specfun import DomainError

_FRACTIONS = (1e-6, 1e-4, 1e-2, 0.3, 0.9)

_LEDGER = {
    "constants": {"answer": 98, "exit 1": 0, "amplitude constant overflows double precision": 172},
    "transform-check": {
        "answer": 85,
        "exit 1": 0,
        "amplitude constant overflows double precision": 172,
        "transformed profile q^((M-4)/2) u overflows double precision": 13,
    },
    "certify": {"answer": 224, "exit 1": 46},
}

#: scan cells left blank, by column, over the grid
_SCAN_BLANKS = {"beta_fs": 0, "s_r": 0, "second_variation": 160, "rho1": 0}

#: quotient_radial(extremal(p), p) over the grid; the three non-finite integrands are at (5, 50,
#: 48.35333333333333), (8, 1, -0.9766666666666667) and (8, 4, 2.033333333333333), M ~ 302, 602
#: and 602, where constants answers
_QUOTIENT_LEDGER = {
    "answer": 95,
    "amplitude constant overflows double precision": 172,
    "integrand produced a non-finite value at s=1": 3,
}

#: constants' fields that are positive in closed form: 0.0, -0.0 or a subnormal there is underflow
_POSITIVE_FIELDS = ("p_star", "q", "m", "amplitude", "s_r", "hardy_e", "bound_c")


def _grid():
    for N in (5, 6, 8, 12, 30, 100, 438, 1000, 10**6):
        for alpha in (-1.0, 0.1, 1.0, 4.0, 50.0):
            if alpha > 2 - N:
                lo, hi = beta_strip(N, alpha)
                yield from ((N, alpha, lo + f * (hi - lo)) for f in _FRACTIONS)
                yield N, alpha, hi


def _run(argv):
    """main(argv)'s exit code, stdout and stderr; a raw exception escapes and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse_non_numbers(constant):
    raise AssertionError(f"printed {constant}")


def _worse(counts, table):
    """{outcome: (now, ledger)} where counts is worse than table: fewer answers, more of any other."""
    return {
        key: (counts[key], table.get(key))
        for key in counts.keys() | table.keys()
        if (counts[key] < table[key] if key == "answer" else counts[key] > table.get(key, 0))
    }


@functools.cache
def _outcomes(command):
    """(outcome counts, printed records) of `command --json` over the grid."""
    counts, records = Counter(), []
    for N, alpha, beta in _grid():
        code, out, err = _run([command, "--N", str(N), "--alpha", repr(alpha), f"--beta={beta!r}", "--json"])
        if code == 2:
            counts[re.sub(r" at M=\S*$", "", err.strip().removeprefix("error: "))] += 1
        else:
            counts["answer" if code == 0 else f"exit {code}"] += 1
        records += out.splitlines()
    return counts, records


def test_the_grid_holds_270_points():
    assert len(list(_grid())) == 270


@pytest.mark.parametrize("command", sorted(_LEDGER))
def test_point_commands_are_no_worse_than_the_ledger(command):
    counts, _ = _outcomes(command)
    table = _LEDGER[command]
    assert sum(counts.values()) == 270
    worse = _worse(counts, table)
    assert not worse, f"worse than the ledger (now, ledger): {worse}; all counts {dict(counts)}"


@pytest.mark.parametrize("command", sorted(_LEDGER))
def test_every_printed_record_is_json_with_no_inf_or_nan(command):
    counts, records = _outcomes(command)
    assert len(records) == counts["answer"] + counts["exit 1"]
    for line in records:
        record = json.loads(line, parse_constant=_refuse_non_numbers)
        if command == "constants":
            tiny = {key: record[key] for key in _POSITIVE_FIELDS if not record[key] >= sys.float_info.min}
            assert not tiny, f"printed zero or subnormal {tiny} in {line}"


def test_scan_cells_are_no_worse_than_the_ledger():
    blanks = Counter()
    for N, alpha, beta in _grid():
        code, out, err = _run(["scan", "--N", str(N), "--alpha", repr(alpha), f"--beta={beta!r}"])
        assert code == 0, err
        header, row = (line.split(",") for line in out.splitlines())
        cell = dict(zip(header, row))
        blanks.update(name for name in _SCAN_BLANKS if cell[name] == "")
    worse = _worse(blanks, _SCAN_BLANKS)
    assert not worse, f"more blank cells than the ledger (now, ledger): {worse}"


def test_quotient_radial_is_no_worse_than_the_ledger():
    """Every answer is within 1e-12 of the closed S_r (worst 1.5e-13 at landing)."""
    counts = Counter()
    for N, alpha, beta in _grid():
        p = validate(N, alpha, beta)
        try:
            quotient = quotient_radial(extremal(p), p)
        except DomainError as error:
            counts[re.sub(r" at M=\S*$", "", str(error))] += 1
        else:
            assert quotient == pytest.approx(s_r_closed(p), rel=1e-12, abs=0.0), (N, alpha, beta)
            counts["answer"] += 1
    assert sum(counts.values()) == 270
    worse = _worse(counts, _QUOTIENT_LEDGER)
    assert not worse, f"worse than the ledger (now, ledger): {worse}; all counts {dict(counts)}"
