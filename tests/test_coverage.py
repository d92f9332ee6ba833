"""The coverage ledger: what each point command answers over the whole admissible domain.

One grid of 270 points runs through `cli.main`: N in {5, 6, 8, 12, 30, 100, 438, 1000, 10^6},
alpha in {-1, 0.1, 1, 4, 50} (each above 2 - N), and beta at the fractions {1e-6, 1e-4, 1e-2,
0.3, 0.9} of the strip (lo, hi] and at hi itself.  Each command keeps one table of outcomes:
"answer" (exit 0), "exit 1", and each exit-2 refusal by the quantity its message names.  No
table may get worse: answers only rise, every other count only falls, and an outcome the
table does not list is worse.  A change that moves a count updates its table and says so.
"""

import contextlib
import functools
import io
import json
import re
from collections import Counter

import pytest

from ckn_lab.cli import main
from ckn_lab.params import beta_strip

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
    worse = {
        key: (counts[key], table.get(key))
        for key in counts.keys() | table.keys()
        if (counts[key] < table[key] if key == "answer" else counts[key] > table.get(key, 0))
    }
    assert not worse, f"worse than the ledger (now, ledger): {worse}; all counts {dict(counts)}"


@pytest.mark.parametrize("command", sorted(_LEDGER))
def test_every_printed_record_is_json_with_no_inf_or_nan(command):
    counts, records = _outcomes(command)
    assert len(records) == counts["answer"] + counts["exit 1"]
    for line in records:
        json.loads(line, parse_constant=_refuse_non_numbers)


def test_scan_cells_are_no_worse_than_the_ledger():
    blanks = Counter()
    for N, alpha, beta in _grid():
        code, out, err = _run(["scan", "--N", str(N), "--alpha", repr(alpha), f"--beta={beta!r}"])
        assert code == 0, err
        header, row = (line.split(",") for line in out.splitlines())
        cell = dict(zip(header, row))
        blanks.update(name for name in _SCAN_BLANKS if cell[name] == "")
    worse = {name: (blanks[name], limit) for name, limit in _SCAN_BLANKS.items() if blanks[name] > limit}
    assert not worse, f"more blank cells than the ledger (now, ledger): {worse}"
