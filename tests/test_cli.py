"""End-to-end command-line behavior: records, scans, exit codes, config."""

import csv
import json
import multiprocessing

import pytest

from ckn_lab import cli, quadrature
from ckn_lab.cli import main
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


def test_scan_parallel_matches_serial(tmp_path):
    args = ["scan", "--N", "5", "--alpha", "0.8:1.2:2", "--beta", "0.2:1.0:3"]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_scan_spawn_workers_keep_quadrature_settings(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "Pool", multiprocessing.get_context("spawn").Pool)
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("node_cap = 16\n")
    args = ["scan", "--N", "5", "--alpha", "1.0", "--beta", "0.5:1.0:2",
            "--config", str(cfg)]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_scan_env_var_worker_count(tmp_path, monkeypatch):
    monkeypatch.setenv("CKN_LAB_THREADS", "2")
    out = tmp_path / "env.csv"
    assert main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "0.3:1.0:2", "--out", str(out)]
    ) == 0
    assert len(out.read_text().splitlines()) == 3


def test_scan_env_var_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("CKN_LAB_THREADS", "many")
    assert main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "0.3:1.0:2",
         "--out", str(tmp_path / "x.csv")]
    ) == 2


def test_scan_bad_range_spec():
    assert main(["scan", "--N", "5", "--alpha", "2:1:5", "--beta", "auto"]) == 2
    assert main(["scan", "--N", "5", "--alpha", "1:2:1", "--beta", "auto"]) == 2


def test_unwritable_output_is_io_failure():
    code = main(
        ["scan", "--N", "5", "--alpha", "1", "--beta", "1",
         "--out", "/nonexistent-dir/depth/file.csv"]
    )
    assert code == 3


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# comment line\neps = 0.02\nquad_tol = 1e-9\n")
    code, out, _ = run(
        capsys,
        "certify", "--N", "5", "--alpha", "1", "--beta", "1",
        "--config", str(cfg), "--json",
    )
    assert code == 0
    assert json.loads(out)["eps"] == pytest.approx(0.02)
    # explicit flag outranks the file
    code, out, _ = run(
        capsys,
        "certify", "--N", "5", "--alpha", "1", "--beta", "1",
        "--config", str(cfg), "--eps", "0.03", "--json",
    )
    assert json.loads(out)["eps"] == pytest.approx(0.03)


@pytest.mark.parametrize("last_line", ["", "node_cap = many\n"])
def test_config_settings_end_with_the_command(tmp_path, capsys, last_line):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("quad_tol = 1e-5\nnode_cap = 64\n" + last_line)
    before = quadrature.DEFAULT_TOL, quadrature.NODE_CAP
    code, _, _ = run(
        capsys, "constants", "--N", "5", "--alpha", "1", "--beta", "1",
        "--config", str(cfg),
    )
    assert code == (2 if last_line else 0)
    assert (quadrature.DEFAULT_TOL, quadrature.NODE_CAP) == before


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid_points = 7\n")
    code, _, err = run(
        capsys, "constants", "--N", "5", "--alpha", "1", "--beta", "1",
        "--config", str(cfg),
    )
    assert code == 2
    assert "unknown key" in err


def test_missing_config_is_io_failure(capsys):
    code, _, _ = run(
        capsys, "constants", "--N", "5", "--alpha", "1", "--beta", "1",
        "--config", "/no/such/file.cfg",
    )
    assert code == 3


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


@pytest.mark.parametrize("command", ["constants", "certify", "transform-check"])
def test_lower_strip_edge_overflow_is_parameter_error(capsys, command):
    # an auto-scan cell at M ~ 3000, where the amplitude exceeds double range
    code, _, err = run(capsys, command, "--N", "5", "--alpha", "0.1", "--beta=-1.89793")
    assert code == 2
    assert err.startswith("error:")
    assert "M=" in err


# criteria 01-10 of the acceptance gate, in order
CHECK_NAMES = """closed_form_consistency extremality euler_lagrange_residual
    transform_closed_form fs_curve_recoveries second_variation_sign_law
    breaking_certificate kernel_at_curve identity_battery boundary_equality""".split()


def test_verify_all_runs_the_ten_checks_in_criterion_order(capsys):
    assert [r.name for r in run_all()] == CHECK_NAMES
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert [line.split()[1].rstrip(":") for line in out.splitlines()] == CHECK_NAMES
    assert all(line.startswith("PASS  ") for line in out.splitlines())


def test_verify_all_perturbation_hook(capsys):
    code, out, _ = run(capsys, "verify-all", "--perturb", "1e-6")
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


def test_missing_subcommand_is_parameter_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_parameter_error(capsys):
    assert main(["constants", "--N", "5", "--alpha", "1", "--beta", "1", "--frob", "2"]) == 2
