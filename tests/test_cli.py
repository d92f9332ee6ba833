"""End-to-end command-line behavior: records, scans, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckn_lab import cli, profiles, variation, verify
from ckn_lab.cli import main
from ckn_lab.params import beta_fs, beta_strip, validate
from ckn_lab.specfun import DivergentIntegralError, DomainError
from ckn_lab.spectral import mode_eigenvalue, ritz_min_eig
from ckn_lab.verify import run_all


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_json_record(capsys):
    code, out, _ = run(
        capsys, "constants", "--N", "5", "--alpha", "1", "--beta", "1", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["p_star"] == pytest.approx(6.0)
    assert record["m"] == pytest.approx(6.0)
    assert record["s_r"] == pytest.approx(221.68826741979237, rel=1e-12)
    assert record["class"] == "SymmetryBreaking"
    assert record["hardy_e"] == pytest.approx(1.0)
    assert record["bound_c"] == pytest.approx(4.0)


def test_constants_reduces_to_unweighted(capsys):
    code, out, _ = run(
        capsys, "constants", "--N", "5", "--alpha", "0", "--beta", "0", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["s_r"] == pytest.approx(102.38327344058321, rel=1e-12)
    assert record["class"] == "Classical"


def test_constants_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, "constants", "--N", "4", "--alpha", "0", "--beta", "0")
    assert code == 2
    assert "integer >= 5" in err


def test_certify_breaking_point(capsys):
    code, out, _ = run(
        capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "1", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "Breaking"
    assert record["witness_signs"] == [-1, -1, -1]
    assert record["discrepancies"] == []


def test_certify_symmetric_point(capsys):
    code, out, _ = run(
        capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "0.3", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "NotBreaking"


def test_certify_corrupted_tolerance_exits_one(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--N", "5", "--alpha", "1", "--beta", "1",
        "--tol", "1e30", "--json",
    )
    assert code == 1
    record = json.loads(out)
    assert record["verdict"] == "Boundary"
    assert record["discrepancies"]


def test_fs_curve_single_alpha(capsys):
    code, out, _ = run(
        capsys, "fs-curve", "--N", "5", "--alpha", "1", "--tol", "1e-3", "--json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["beta_fs_spectral"] == pytest.approx(row["beta_fs_closed"], abs=1e-3)


SCAN_HEADER = "N,alpha,beta,class,beta_fs,s_r,second_variation,rho1,wall_time_ms"


def test_scan_reruns_are_byte_identical(tmp_path):
    args = [
        "scan", "--N", "5", "--alpha", "0.6:1.4:3", "--beta", "auto:4",
        "--jobs", "1",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 1 + 3 * 4


GOLDEN_SCAN = Path(__file__).parent / "data" / "scan_golden.csv"


def test_scan_matches_golden_fixture(tmp_path):
    """Scan output is byte-identical to the committed fixture.

    The fixture holds `scan --N 5 --alpha 0.1:2:4 --beta auto:5` followed by
    the rows of `scan --N 8 --alpha 2 --beta auto:8`; a deliberate change of
    a value regenerates it.
    """
    five, eight = tmp_path / "n5.csv", tmp_path / "n8.csv"
    assert main(["scan", "--N", "5", "--alpha", "0.1:2:4", "--beta", "auto:5",
                 "--jobs", "1", "--out", str(five)]) == 0
    assert main(["scan", "--N", "8", "--alpha", "2", "--beta", "auto:8",
                 "--jobs", "1", "--out", str(eight)]) == 0
    rows_8 = eight.read_bytes().split(b"\n", 1)[1]
    assert five.read_bytes() + rows_8 == GOLDEN_SCAN.read_bytes()


GOLDEN_FS_CURVE = Path(__file__).parent / "data" / "fs_curve_golden.jsonl"


def test_fs_curve_matches_golden_fixture(tmp_path):
    """fs-curve's JSON lines are byte-identical to the committed fixture.

    The fixture holds `fs-curve --N 5 --alpha 0.5:2:7 --json` followed by
    the same command with `--N 6`: every spectral root rests on J = 1 Ritz
    solves, so a change in any bit of them shows here.
    """
    five, six = tmp_path / "n5.jsonl", tmp_path / "n6.jsonl"
    for N, out in ((5, five), (6, six)):
        assert main(["fs-curve", "--N", str(N), "--alpha", "0.5:2:7", "--json", "--out", str(out)]) == 0
    assert five.read_bytes() + six.read_bytes() == GOLDEN_FS_CURVE.read_bytes()


GOLDEN_PROFILES = Path(__file__).parent / "data" / "profiles_golden.jsonl"

#: the fixture's commands, one JSON line each: betas with long binary expansions
#: (0.3, -0.6, -1.8, 1.3) put the profile algebra's exponents on large denominators
GOLDEN_PROFILE_COMMANDS = [
    *(("transform-check", N, alpha, beta)
      for N, alpha, beta in [(5, 0.7, 0.3), (5, 1.0, 1.0), (6, 1.3, -0.6), (6, 0.25, 0.1),
                             (8, 0.1, -1.8), (8, 2.0, 1.3)]),
    *(("certify", N, alpha, beta) for N, alpha, beta in [(5, 1.0, 1.0), (5, 0.7, 0.3), (6, 1.3, -0.6), (8, 2.0, 2.5)]),
]


def test_profile_commands_match_golden_fixture(tmp_path):
    """transform-check and certify, which run the exact profile algebra, print the
    committed fixture's bytes: any moved bit of a residual or a quotient shows here."""
    out = tmp_path / "line.jsonl"
    lines = []
    for command, N, alpha, beta in GOLDEN_PROFILE_COMMANDS:
        argv = [command, "--N", str(N), "--alpha", repr(alpha), f"--beta={beta!r}", "--json", "--out", str(out)]
        assert main(argv) == 0
        lines.append(out.read_bytes())
    assert b"".join(lines) == GOLDEN_PROFILES.read_bytes()


GOLDEN_CERTIFY_TEXT = Path(__file__).parent / "data" / "certify_golden.txt"


def test_certify_text_matches_golden_fixture(tmp_path):
    """certify without --json prints its fields in a fixed order, which the sorted keys of
    the JSON fixture cannot show: at the fixture's four certify points, the same bytes."""
    out = tmp_path / "certify.txt"
    blocks = []
    for command, N, alpha, beta in GOLDEN_PROFILE_COMMANDS:
        if command == "certify":
            assert main([command, "--N", str(N), "--alpha", repr(alpha), f"--beta={beta!r}", "--out", str(out)]) == 0
            blocks.append(out.read_bytes())
    assert len(blocks) == 4
    assert b"".join(blocks) == GOLDEN_CERTIFY_TEXT.read_bytes()


def test_golden_rho1_is_the_closed_form():
    """Every rho1 of the fixture is the closed-form least mode-1 eigenvalue, to the bit."""
    rows = list(csv.DictReader(GOLDEN_SCAN.open()))
    assert len(rows) == 28
    for row in rows:
        p = validate(int(row["N"]), float(row["alpha"]), float(row["beta"]))
        assert row["rho1"] == repr(mode_eigenvalue(1, p))


@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from([5, 6, 8]), alpha=st.floats(0.1, 2.0), t=st.floats(1e-3, 1.0))
@example(N=5, alpha=0.1, t=1e-3)  # M near 3000
@example(N=8, alpha=2.0, t=1.0)  # the upper end of the strip
def test_scan_rho1_has_the_sign_of_the_breaking_criterion(N, alpha, t):
    """A scan row's rho1 is negative above beta_fs and positive below it, and the
    J = 16 Ritz value, which scan no longer computes, stays an upper bound of it."""
    lo, hi = beta_strip(N, alpha)
    beta = min(hi, lo + t * (hi - lo))
    row = cli._scan_cell(N, alpha, beta)
    p = validate(N, alpha, beta)
    rho1 = float(row["rho1"])
    gap = beta_fs(N, alpha) - beta
    if abs(gap) > 1e-4:
        assert math.copysign(1.0, rho1) == math.copysign(1.0, gap) and rho1 != 0.0
    ritz = ritz_min_eig(1, p, 16).min_eigenvalue
    assert ritz >= rho1 - 1e-12 * max(1.0, abs(rho1))


def test_scan_rows_are_class_consistent(tmp_path):
    from ckn_lab.params import classify

    out = tmp_path / "grid.csv"
    assert main(
        ["scan", "--N", "5", "--alpha", "0.5:2:4", "--beta", "auto:5",
         "--jobs", "1", "--out", str(out)]
    ) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 20
    for row in rows:
        tag = classify(int(row["N"]), float(row["alpha"]), float(row["beta"]))
        assert row["class"] == tag.value
        if row["class"] == "SymmetryBreaking":
            assert float(row["second_variation"]) < 0.0


def test_scan_blank_cells_outside_validity(tmp_path):
    out = tmp_path / "edge.csv"
    # the beta sweep crosses the degenerate line (beta = alpha-2 = -1)
    # and leaves the admissible strip at the top (beta = 2 > 5/3)
    assert main(
        ["scan", "--N", "5", "--alpha", "1", "--beta=-1.5:2:8",
         "--jobs", "1", "--out", str(out)]
    ) == 0
    rows = {row["beta"]: row for row in csv.DictReader(out.open())}
    assert rows["-1.0"]["class"] == "RellichDegenerate"
    assert rows["-1.0"]["s_r"] == ""
    assert rows["-1.5"]["class"] == "Invalid"
    assert rows["-1.5"]["second_variation"] == ""
    assert rows["2.0"]["class"] == "Invalid"
    assert rows["1.0"]["class"] == "SymmetryBreaking"
    assert rows["1.0"]["s_r"] != ""


def test_scan_cell_just_above_the_strip_is_an_invalid_row(tmp_path):
    """A beta 3.3e-14 above N*alpha/(N-2), within BOUNDARY_TOL, is outside the
    strip: its row is Invalid with blank cells, and the grid's other rows stay."""
    out = tmp_path / "edge.csv"
    assert main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1.6:1.6666666666667:2",
         "--jobs", "1", "--out", str(out)]
    ) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows[0].startswith("5,1.0,1.6,SymmetryBreaking,0.")
    assert rows[1] == "5,1.0,1.6666666666667,Invalid,,,,,"


def test_scan_cell_that_validate_refuses_is_an_invalid_row(capsys):
    """At alpha = 1.5e308 the upper end N*alpha/(N-2) is inf, so beta = inf sits in the strip,
    but N-4+2*alpha-beta is NaN: validate refuses the triple and its row reads Invalid."""
    code, out, err = run(capsys, "scan", "--N", "5", "--alpha", "1.5e308", "--beta", "inf")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "5,1.5e+308,inf,Invalid,,,,,"


@pytest.mark.parametrize(
    "error",
    [
        DomainError("second variation underflows double precision at M=3000.0"),
        DivergentIntegralError("divergent"),
    ],
    ids=["accuracy", "divergent"],
)
def test_scan_leaves_a_failed_cell_blank(tmp_path, monkeypatch, error):
    """A second variation that cannot give an accurate double (its Beta values underflow) or
    meets a divergent integral raises a DomainError, and its cell stays blank; the command
    exits 0 and fills the row's other cells."""

    def fail(p):
        raise error

    monkeypatch.setattr(variation, "second_variation", fail)
    out = tmp_path / "cell.csv"
    assert main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1", "--jobs", "1", "--out", str(out)]
    ) == 0
    (row,) = csv.DictReader(out.open())
    assert row["class"] == "SymmetryBreaking"
    for key in ("beta_fs", "s_r", "second_variation", "rho1"):
        assert (row[key] == "") == (key == "second_variation")


def test_scan_single_point_matches_constants(tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1", "--out", str(out)]
    ) == 0
    (row,) = csv.DictReader(out.open())
    code, text, _ = run(
        capsys, "constants", "--N", "5", "--alpha", "1", "--beta", "1", "--json"
    )
    record = json.loads(text)
    assert float(row["s_r"]) == record["s_r"]
    assert row["class"] == record["class"]


@pytest.mark.parametrize("N", [438, 439, 456, 1000])
def test_scan_reports_s_r_where_the_sphere_area_underflows(tmp_path, capsys, N):
    """From N = 438 the sphere area is below about 1e-307: s_r still answers, and the second
    variation, which underflows to +-0.0, leaves its cell blank."""
    out = tmp_path / "scan.csv"
    code, _, err = run(capsys, "scan", "--N", str(N), "--alpha", "1", "--beta", "auto:3", "--jobs", "1",
                       "--out", str(out))
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    for row in rows:
        assert float(row["s_r"]) == profiles.s_r_closed(validate(N, 1.0, float(row["beta"])))
        assert 0.0 < float(row["s_r"]) < math.inf
        assert row["second_variation"] == ""


def test_a_default_scan_starts_no_workers(tmp_path):
    """--jobs accepts only its default 1: every cell runs in this process, as with no flag."""
    args = ["scan", "--N", "5", "--alpha", "1.0", "--beta", "0.2:1.0:3"]
    default, serial = tmp_path / "d.csv", tmp_path / "s.csv"
    assert main(args + ["--out", str(default)]) == 0
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert default.read_bytes() == serial.read_bytes()


def test_scan_bad_range_spec():
    assert main(["scan", "--N", "5", "--alpha", "2:1:5", "--beta", "auto"]) == 2
    assert main(["scan", "--N", "5", "--alpha", "1:2:1", "--beta", "auto"]) == 2


def test_unwritable_output_is_io_failure():
    code = main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1",
         "--out", "/nonexistent-dir/depth/file.csv"]
    )
    assert code == 3


def test_certify_solves_the_full_ritz_basis_deep_in_the_strip(capsys, monkeypatch):
    """At M = 42 the Ritz witness solves J = 16, with no smaller fallback."""
    sizes = []

    def solve(k, p, J):
        sizes.append(J)
        return ritz_min_eig(k, p, J)

    monkeypatch.setattr(variation, "ritz_min_eig", solve)
    _, out, err = run(
        capsys, "certify", "--N", "5", "--alpha", "1", "--beta=-0.8", "--json"
    )
    assert "verification failure" not in err
    record = json.loads(out)
    assert sizes == [16]
    assert record["ritz_rho1"] == pytest.approx(2.2204, abs=1e-4)
    assert record["witness_signs"][2] == 1


def test_fs_curve_without_a_bracket_is_verification_failure(capsys, monkeypatch):
    """A least eigenvalue that is positive across the strip has no sign change
    for fs_locate to bracket: BracketError, exit 1."""
    from ckn_lab import spectral

    monkeypatch.setattr(
        spectral, "ritz_min_eig", lambda k, p, J: spectral.RitzResult(1.0, None, J, 1.0)
    )
    code, out, err = run(capsys, "fs-curve", "--N", "5", "--alpha", "50")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: least eigenvalue does not change sign")


@pytest.mark.parametrize("N, alpha", [("5", "8"), ("500", "1")])
def test_fs_curve_locates_near_either_end_of_the_strip(capsys, N, alpha):
    """At (5, 8) beta_FS lies in the lowest tenth of the strip, at (500, 1)
    above 0.99 N alpha/(N-2); both come back within the default tol."""
    code, out, _ = run(capsys, "fs-curve", "--N", N, "--alpha", alpha, "--json")
    assert code == 0
    assert abs(json.loads(out)["gap"]) <= 1e-4


def test_certify_text_output_has_no_basis_size(capsys):
    """Neither record carries the basis size, which is always 16."""
    code, out, _ = run(capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "1")
    assert code == 0
    assert "ritz_rho1" in out
    assert "ritz_basis_size" not in out
    code, out, _ = run(capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "1", "--json")
    assert code == 0
    assert "ritz_rho1" in json.loads(out)
    assert "ritz_basis_size" not in json.loads(out)


def test_certify_eps_flag(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--N", "5", "--alpha", "1", "--beta", "1", "--eps", "0.03", "--json",
    )
    assert code == 0
    assert json.loads(out)["eps"] == pytest.approx(0.03)


def test_certify_refuses_an_eps_whose_square_underflows(capsys):
    """At eps = 1e-200, eps^2 is 0.0 and the quotient drop cannot be told from underflow: a typed
    error naming eps, exit 2, where the witness once read a false conflict and exited 1."""
    code, out, err = run(capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "1", "--eps", "1e-200")
    assert (code, out) == (2, "")
    assert "1e-200" in err


def test_certify_small_eps_and_classical_point_exit_zero(capsys):
    """Exit 0 at eps = 1e-8, with every witness negative, and at alpha = beta = 0, on the curve."""
    code, out, _ = run(capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "1", "--eps", "1e-8", "--json")
    assert (code, json.loads(out)["witness_signs"]) == (0, [-1, -1, -1])
    code, out, _ = run(capsys, "certify", "--N", "5", "--alpha", "0", "--beta", "0", "--json")
    assert (code, json.loads(out)["verdict"]) == (0, "Boundary")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1", "--jobs", "0"],
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1", "--jobs", "-1"],
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1", "--jobs", "2"],
        ["certify", "--N", "5", "--alpha", "1", "--beta", "1", "--tol", "nan"],
        ["constants", "--N", "5", "--alpha", "1", "--beta", "1", "--config", "x"],
        ["fs-curve", "--N", "5", "--alpha", "1", "--tol", "inf"],
        ["fs-curve", "--N", "5", "--alpha", "1", "--tol", "nan"],
        ["fs-curve", "--N", "5", "--alpha", "1", "--tol", "0"],
        ["certify", "--N", "5", "--alpha", "1", "--beta", "1", "--tol", "inf"],
        ["scan", "--N", "2", "--alpha", "1", "--beta", "auto"],
        ["fs-curve", "--N", "2", "--alpha", "1"],
        ["scan", "--N", "5", "--alpha", "1:inf:3", "--beta", "1"],
        ["scan", "--N", "5", "--alpha=-1e308:1e308:3", "--beta", "1"],
        ["fs-curve", "--N", "5", "--alpha", "inf"],
        ["scan", "--N", "5", "--alpha", "1", "--beta", "auto3"],  # once scanned the strip in 20 steps
        ["scan", "--N", "5", "--alpha", "1", "--beta", "autofoo"],
        ["scan", "--N", "5", "--alpha", "1", "--beta", "auto:x"],
        ["constants", "--N", "5", "--alpha", "1", "--beta", "1", "--json", "-1e-3"],  # a flag takes no value
    ],
    ids=["jobs_zero", "jobs_negative", "jobs_two", "tol_nan", "config_removed", "fs_tol_inf", "fs_tol_nan",
         "fs_tol_zero", "tol_inf", "auto_strip_n2", "fs_n2", "alpha_range_to_inf", "alpha_range_overflows",
         "fs_alpha_inf", "auto_digits", "auto_word", "auto_bad_steps", "json_negative_value"],
)
def test_bad_setting_is_parameter_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--N", "3", "--alpha", "1", "--beta", "auto:3"],
        ["scan", "--N", "4", "--alpha", "1", "--beta", "1"],
        ["fs-curve", "--N", "0", "--alpha", "1"],
    ],
    ids=["scan_n3", "scan_n4", "fs_n0"],
)
def test_dimension_outside_domain_is_parameter_error(capsys, argv):
    """scan and fs-curve reject N < 5 before any cell or transition value is computed."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "dimension must be an integer >= 5" in err


def test_auto_strip_of_infinite_width_is_parameter_error(capsys):
    """At (5, 1.5e308) the strip's upper end 5/3 alpha itself exceeds the largest double."""
    code, _, err = run(capsys, "scan", "--N", "5", "--alpha", "1.5e308", "--beta", "auto:3")
    assert code == 2
    assert "finite" in err


def test_auto_strip_where_only_n_alpha_overflows_is_finite(capsys):
    """At (5, 1e308) N*alpha overflows, but the end 5/3 alpha does not: the strip has a finite width,
    where it once read inf, and its first cell meets the radial constant's overflow instead."""
    code, out, err = run(capsys, "scan", "--N", "5", "--alpha", "1e308", "--beta", "auto:3")
    assert (code, out) == (2, "")
    assert err == "error: radial constant overflows double precision at M=inf\n"


def test_transform_check_record(capsys):
    code, out, _ = run(
        capsys, "transform-check", "--N", "5", "--alpha", "1", "--beta", "1", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["ground_state_residual"] < 1e-8
    for key in ("cosh_residual_m4_5", "cosh_residual_m5_0",
                "cosh_residual_m6_0", "cosh_residual_m8_0"):
        assert record[key] < 1e-8


@pytest.mark.parametrize("point", [("10", "10"), ("100", "100")])
def test_transform_check_judges_the_relative_residual(capsys, point):
    """Large-amplitude ground states pass on their relative defect."""
    alpha, beta = point
    code, out, _ = run(
        capsys, "transform-check", "--N", "5", "--alpha", alpha, "--beta", beta, "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["ground_state_residual_rel"] < 1e-10
    assert record["ground_state_residual"] > 1e-6


def test_transform_check_nan_residual_fails(capsys, monkeypatch):
    monkeypatch.setattr(profiles, "cosh_profile_residual", lambda m, ts: float("nan"))
    code, _, _ = run(capsys, "transform-check", "--N", "5", "--alpha", "1", "--beta", "1")
    assert code == 1


@pytest.mark.parametrize("beta", ["-1.852", "-1.859", "-1.87"])
def test_transform_check_overflow_is_parameter_error(capsys, beta):
    """Near the lower strip edge (M = 256, 300, 409 at N = 8, alpha = 0.1)
    the transformed ground state leaves double range: exit 2 with a
    message, and no record with NaN residuals."""
    code, out, err = run(
        capsys, "transform-check", "--N", "8", "--alpha", "0.1", f"--beta={beta}", "--json"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "overflows double precision at M=" in err


@pytest.mark.parametrize("command", ["constants", "transform-check"])
def test_lower_strip_edge_overflow_is_parameter_error(capsys, command):
    # an auto-scan cell at M ~ 3000, where the amplitude exceeds double range
    code, _, err = run(capsys, command, "--N", "5", "--alpha", "0.1", "--beta=-1.89793")
    assert code == 2
    assert err.startswith("error:")
    assert "M=" in err


@pytest.mark.parametrize("command", ["constants", "transform-check"])
def test_an_underflowing_amplitude_is_parameter_error(capsys, command):
    """At the upper edge with alpha = -0.99999 (N-2), q = 1e5 and the amplitude underflows: constants
    printed the subnormal 5.6e-309 with exit 0, and transform-check blamed the scaling parameter."""
    code, out, err = run(capsys, command, "--N", "239", "--alpha", "-236.99763", "--beta=-238.99761", "--json")
    assert (code, out) == (2, "")
    assert err == "error: amplitude constant underflows double precision at M=239.0000002629008\n"


def test_certify_answers_where_the_amplitude_squared_overflows(capsys):
    """U's amplitude is 8.0e166 at M = 320.7, so eps^2 times its square leaves double range;
    the quotient witness is taken at unit amplitude and never meets it."""
    code, out, _ = run(
        capsys, "certify", "--N", "12", "--alpha", "1.2873567717275503", "--beta=-0.6418136948579916", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert (record["verdict"], record["witness_signs"], record["discrepancies"]) == ("NotBreaking", [1, 1, 1], [])


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--N", "6", "--alpha", "1e100", "--beta=1.5e100"],
        ["scan", "--N", "1000000", "--alpha=-999997.9999997726", "--beta=-999999.9999997725"],
    ],
    ids=["scan-1e100", "scan-underflow"],
)
def test_closed_form_overflow_at_large_alpha_is_parameter_error(capsys, argv):
    """q = 2/(2+beta-alpha) is 4e-100: S_r leaves double range.  At (10^6, -999997.9999997726,
    -999999.9999997725), M = 3908, its log scale is about -5.7e3: S_r underflows there."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "M=" in err


@pytest.mark.parametrize(
    "N, alpha, beta, verdict, signs",
    [
        ("5", "0.1", "-1.89793", "NotBreaking", [1, 1, 1]),
        ("6", "1e100", "1.5e100", "Breaking", [-1, -1, -1]),
        ("6", "1e200", "1.5e200", "Breaking", [-1, -1, -1]),
        ("5", "1e160", "1.2e160", "Breaking", [-1, -1, -1]),
        ("5", "1", "-0.9905158431464591", "NotBreaking", [1, 1, 1]),
    ],
    ids=["lower-edge", "alpha-1e100", "alpha-1e200", "alpha-1e160", "m-845"],
)
def test_certify_answers_where_the_radial_closed_forms_leave_double_range(capsys, N, alpha, beta, verdict, signs):
    """At M ~ 3000 the second variation underflows; at alpha = 1e100 S_r overflows, and at 1e200
    the second variation does too.  certify reads neither value, only the factor, D and rho1.  At
    alpha = 1e160 beta_fs's radicand overflows: it read inf, so the expected verdict was NotBreaking.
    At M = 845.5 the unit-amplitude ground state's integrals in r are subnormal, where certify once
    exited 1 with an AccuracyError; in Lin's variable s every integrand of the quotient is of order 1."""
    code, out, _ = run(capsys, "certify", "--N", N, "--alpha", alpha, f"--beta={beta}", "--json")
    assert code == 0
    record = json.loads(out)
    assert (record["verdict"], record["witness_signs"], record["discrepancies"]) == (verdict, signs, [])
    assert record["expected"] == verdict


def test_constants_at_large_weight_exponent(capsys):
    """|a| = |beta - 2 alpha|/2 is 3e9; the Rellich infimum tries a few k, not three billion."""
    code, out, _ = run(capsys, "constants", "--N", "6", "--alpha", "1e10", "--beta=1.4e10", "--json")
    assert code == 0
    assert json.loads(out)["rellich_argmin"] == 2999999997


def test_constants_refuses_a_rellich_exponent_from_2_52(capsys):
    """a = (beta - 2 alpha)/2 is -1.67e16: the float formula printed 0.0 where the exact
    minimum is 2.78e32, at k = 16666666666666669."""
    code, out, err = run(capsys, "constants", "--N", "5", "--alpha", "1e17", "--beta=1.6666666666666666e17")
    assert code == 2
    assert out == ""
    assert err.startswith("error: weight exponent a must satisfy |a| < 2**52")


@pytest.mark.parametrize("N", [2**512, 10**400], ids=["2^512", "10^400"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--alpha", "1", "--beta", "1"],
        ["fs-curve", "--alpha", "1"],
        ["constants", "--alpha", "1", "--beta", "1"],
        ["certify", "--alpha", "1", "--beta", "1"],
    ],
    ids=["scan", "fs-curve", "constants", "certify"],
)
def test_a_dimension_too_large_for_doubles_exits_2(capsys, argv, N):
    """scan and fs-curve died with an OverflowError traceback and exit 1 here."""
    code, out, err = run(capsys, argv[0], "--N", str(N), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: dimension N={N} is too large: N*N exceeds the largest double\n"


@pytest.mark.parametrize(
    "N, message",
    [
        (10**14, "least eigenvalue does not change sign on [-0.8, 0.99] (rho: 7.261e-14, 0.000e+00) "
                 "clear of its rounding floor 3.55e-15 and steeply enough to resolve tol=0.0001"),
        (10**16, "least eigenvalue does not change sign on [-0.8, 0.99] (rho: 7.184e-16, -1.432e-16) "
                 "clear of its rounding floor 3.55e-15 and steeply enough to resolve tol=0.0001"),
        (10**20, "least eigenvalue does not change sign on [-0.8, 1] (rho: 0.000e+00, 1.316e-16) "
                 "clear of its rounding floor 3.55e-15 and steeply enough to resolve tol=0.0001"),
        (10**78, "the Jacobi recurrence for the exponents a=5.0000000000000015e+78, "
                 "b=5.0000000000000015e+78 leaves double range, at M=1e+79, basis size 1"),
        (10**153, "the Jacobi recurrence for the exponents a=5.000000000000001e+153, "
                  "b=5.000000000000001e+153 leaves double range, at M=1e+154, basis size 1"),
    ],
    ids=["10^14", "10^16", "10^20", "10^78", "10^153"],
)
def test_fs_curve_at_a_huge_dimension_is_a_verification_failure(capsys, N, message):
    """At 10^78 a ZeroDivisionError and at 10^153 numpy's LinAlgError escaped as a traceback.
    At 10^14, 10^16 and 10^20 the end values are within rounding (an exact 0.0 among them), where
    the search printed 0.98469, -0.8 and, with J = 1, -0.8 against beta_FS near 1."""
    code, out, err = run(capsys, "fs-curve", "--N", str(N), "--alpha", "1")
    assert (code, out, err) == (1, "", f"verification failure: {message}\n")


@pytest.mark.parametrize(
    "N, alpha, beta, message",
    [
        ("6", "1e10", "1e10", "amplitude constant overflows double precision at M="),
        ("5", "1e308", "1.5e308", "weight exponent a must be finite, got -inf"),
    ],
)
def test_constants_at_huge_alpha_is_parameter_error(capsys, N, alpha, beta, message):
    """At alpha = beta = 1e10 M is 1e10 and the amplitude overflows; at alpha = 1e308,
    2 alpha is inf and so is the weight exponent a = (beta - 2 alpha)/2."""
    code, out, err = run(capsys, "constants", "--N", N, "--alpha", alpha, f"--beta={beta}", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--N", str(10**78), "--alpha", "0", "--beta", "0"],
         f"Rellich infimum overflows double precision at N={10**78}, a=0.0"),
        (["constants", "--N", str(10**70), "--alpha", "1", "--beta=-0.99999999"],
         "amplitude constant overflows double precision at M=2.0000000121549423e+78"),
        (["transform-check", "--N", str(10**70), "--alpha", "1", "--beta=-0.99999999"],
         "amplitude constant overflows double precision at M=2.0000000121549423e+78"),
    ],
    ids=["constants-1e78", "constants-1e70", "transform-check-1e70"],
)
def test_a_closed_form_past_double_range_names_itself(capsys, argv, message):
    """gamma_m(M) is inf from M ~ 1.2e77: constants once printed "amplitude": Infinity and
    "rellich_infimum": Infinity, which is not JSON, and transform-check blamed the scaling parameter."""
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# criteria 01-10 of the acceptance gate, in order
CHECK_NAMES = """closed_form_consistency extremality euler_lagrange_residual
    transform_closed_form fs_curve_recoveries second_variation_sign_law
    breaking_certificate kernel_at_curve identity_battery boundary_equality""".split()


GOLDEN_VERIFY_ALL = Path(__file__).parent / "data" / "verify_all_golden.txt"


def test_verify_all_runs_the_ten_checks_in_criterion_order(capsys):
    """Each check's line, its figures too, is the fixture's to the byte."""
    assert [r.name for r in run_all()] == CHECK_NAMES
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert [line.split()[1].rstrip(":") for line in out.splitlines()] == CHECK_NAMES
    assert all(line.startswith("PASS  ") for line in out.splitlines())
    assert out == GOLDEN_VERIFY_ALL.read_text()


TWICE = """
import contextlib, io, json
from ckn_lab.cli import main
outs = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify-all"]) == 0
    outs.append(out.getvalue())
print(json.dumps(outs))
"""


def test_verify_all_prints_the_same_bytes_with_every_profile_jet_kept():
    """A fresh interpreter runs verify-all cold, then again with the battery profiles' jets kept
    on the quadrature's first-call grid; both print the fixture to the byte."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", TWICE], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [GOLDEN_VERIFY_ALL.read_text()] * 2


def test_verify_all_perturbation_hook(capsys, monkeypatch):
    """One closed form off by 1e-6 fails exactly the check that compares it."""
    s_0_closed = verify.s_0_closed
    monkeypatch.setattr(verify, "s_0_closed", lambda N: s_0_closed(N) * (1 + 1e-6))
    code, out, _ = run(capsys, "verify-all")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL  closed_form_consistency:")


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "record.json"
    assert main(
        ["constants", "--N", "5", "--alpha", "1", "--beta", "1",
         "--json", "--out", str(target)]
    ) == 0
    assert json.loads(target.read_text())["m"] == pytest.approx(6.0)


# one small invocation of every subcommand
OUTPUT_COMMANDS = {
    "constants": ["constants", "--N", "5", "--alpha", "1", "--beta", "1"],
    "certify": ["certify", "--N", "5", "--alpha", "1", "--beta", "1", "--json"],
    "fs-curve": ["fs-curve", "--N", "5", "--alpha", "1"],
    "scan": ["scan", "--N", "5", "--alpha", "1", "--beta", "auto:3", "--jobs", "1"],
    "verify-all": ["verify-all"],
    "transform-check": ["transform-check", "--N", "5", "--alpha", "1", "--beta", "1"],
}


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS)
def test_out_file_holds_the_stdout_bytes(capsysbinary, tmp_path, argv):
    code = main(argv)
    stdout = capsysbinary.readouterr().out
    target = tmp_path / "out"
    assert main(argv + ["--out", str(target)]) == code == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == stdout != b""


def test_every_option_is_shown_in_help():
    (subcommands,) = (
        a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subcommands) == set(OUTPUT_COMMANDS)
    for name, sp in subcommands.items():
        shown = sp.format_help()
        for action in sp._actions:
            assert action.help is not argparse.SUPPRESS, (name, action.dest)
            for option in action.option_strings:
                assert option in shown, (name, option)


def test_missing_subcommand_is_parameter_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_parameter_error(capsys):
    assert main(["constants", "--N", "5", "--alpha", "1", "--beta", "1", "--frob", "2"]) == 2


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_keeps_nothing_between_calls(capsys):
    code, out, _ = run(capsys, "certify", "--N", "5", "--alpha", "1", "--beta", "1", "--json")
    assert code == 0
    json.loads(out)
    code, out, _ = run(capsys, "constants", "--N", "5", "--alpha", "1", "--beta", "1")
    assert code == 0
    assert out.startswith("n ")
    code, _, err = run(capsys, "scan", "--N", "5", "--alpha", "1", "--beta", "1", "--jobs", "0")
    assert code == 2
    assert "--jobs" in err


def test_a_malformed_alpha_is_parameter_error(capsys):
    code, out, err = run(capsys, "scan", "--N", "5", "--alpha", "abc", "--beta", "auto")
    assert (code, out) == (2, "")
    assert err == "error: alpha must be a number or lo:hi:steps, got 'abc'\n"


@pytest.mark.parametrize(
    "argv, label",
    [
        (["scan", "--N", "5", "--alpha", "1", "--beta", "auto:4611686018427387904"], "auto beta"),
        (["scan", "--N", "5", "--alpha", "0.1:2:10000000000000000000", "--beta", "1"], "alpha"),
        (["fs-curve", "--N", "5", "--alpha", "0.5:2:4611686018427387904"], "alpha"),
    ],
    ids=["scan_auto_2^62", "scan_alpha_10^19", "fs_curve_2^62"],
)
def test_a_step_count_numpy_cannot_hold_is_parameter_error(capsys, argv, label):
    """numpy refuses these counts by size before it allocates; a count it might try to allocate stays untested."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {label} range from ") and err.endswith(" steps, more than numpy can hold\n")


def _main_io(argv):
    """main(argv)'s exit code, stdout and stderr, captured without a pytest fixture, which hypothesis would share."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(allow_nan=False, allow_infinity=False), beta=st.floats(allow_nan=False, allow_infinity=False))
@example(alpha=-1e-3, beta=-1.5)  # "--alpha -1e-3" was refused as an option with no value
@example(alpha=1.0, beta=-0.9905158431464591)
@example(alpha=-2.5e-05, beta=-1.9999)
def test_a_negative_value_may_follow_its_option(alpha, beta):
    """`--alpha <repr> --beta <repr>` answers exactly as `--alpha=<repr> --beta=<repr>` does."""
    spaced = _main_io(["constants", "--N", "5", "--alpha", repr(alpha), "--beta", repr(beta), "--json"])
    assert spaced == _main_io(["constants", "--N", "5", f"--alpha={alpha!r}", f"--beta={beta!r}", "--json"])


@pytest.mark.parametrize(
    "head, option, value",
    [
        (["scan", "--N", "5", "--beta", "auto:2"], "--alpha", "-1:0.5:2"),
        (["scan", "--N", "5", "--alpha", "1"], "--beta", "-0.5:0.5:2"),
        (["certify", "--N", "5", "--alpha", "1", "--beta", "1", "--json"], "--eps", "-1e-2"),
    ],
    ids=["scan_alpha_range", "scan_beta_range", "certify_eps"],
)
def test_a_negative_range_or_eps_may_follow_its_option(capsys, head, option, value):
    spaced = run(capsys, *head, option, value)
    assert spaced[0] == 0 and spaced[1] != ""
    assert spaced == run(capsys, *head, f"{option}={value}")
