"""The package namespace: what it exports, and what its start-up loads."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ckn_lab

GOLDEN_SCAN = Path(__file__).parent / "data" / "scan_golden.csv"


def test_imported_names_are_exported():
    """Each exported name is its module's object, listed by dir and bound by a star import."""
    for name in ckn_lab.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"ckn_lab.{ckn_lab._EXPORTS[name]}")
        value = getattr(ckn_lab, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__, name
    public = {n for n, v in vars(ckn_lab).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public <= set(ckn_lab.__all__)
    assert set(ckn_lab.__all__) <= set(dir(ckn_lab))
    namespace = {}
    exec("from ckn_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ckn_lab.__all__)


STARTUP = """
import contextlib, io, sys
import ckn_lab
from ckn_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["constants", "--N", "5", "--alpha", "1", "--beta", "1", "--json"]) == 0
    assert main(["--help"]) == 0
    assert main(["constants", "--N", "4", "--alpha", "1", "--beta", "1"]) == 2
print(sorted({"numpy", "multiprocessing", "fractions"} & set(sys.modules)))
sys.exit(main(["scan", "--N", "5", "--alpha", sys.argv[1], "--beta=" + sys.argv[2], "--jobs", "1"]))
"""


def test_closed_form_commands_load_neither_numpy_nor_multiprocessing():
    """constants, --help and a ParamError exit run on the stdlib without numpy, multiprocessing
    or fractions; scan then still works."""
    row = GOLDEN_SCAN.read_text().splitlines()[2]
    _, alpha, beta, *_ = row.split(",")
    env = dict(os.environ, PYTHONPATH=str(Path(ckn_lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP, alpha, beta], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded, header, scanned = done.stdout.splitlines()
    assert loaded == "[]"
    assert scanned == row
