"""The package namespace: what it exports, what its start-up loads, and what its modules import."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckn_lab
from ckn_lab import (
    CheckResult,
    TestFunction,
    certify,
    derive,
    extremal,
    hardy_comparison_constants,
    integrate_semiinfinite,
    mode,
    rellich_sobolev_constants,
    ritz_min_eig,
    second_variation,
    validate,
)
from ckn_lab.variation import _Witness

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


LAYERS = ("specfun", "params", "quadrature", "profiles", "spectral", "variation", "identities", "verify", "cli")


def test_no_layer_lists_another_layers_names():
    """Each module's __all__ holds only what it defines: a function or class is its own, and no
    name (DEFAULT_EPS, say) is listed by two modules."""
    owners = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ckn_lab.{layer}")
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, (layer, name)
            assert owners.setdefault(name, layer) == layer, (name, owners[name], layer)


STARTUP = """
import contextlib, io, sys
import ckn_lab
from ckn_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["constants", "--N", "5", "--alpha", "1", "--beta", "1", "--json"]) == 0
    assert main(["--help"]) == 0
    assert main(["constants", "--N", "4", "--alpha", "1", "--beta", "1"]) == 2
    assert main(["scan", "--N", "5", "--alpha", "2:1:5", "--beta", "1"]) == 2
    assert main(["scan", "--N", "2", "--alpha", "1", "--beta", "auto"]) == 2
    assert main(["scan", "--N", "5", "--alpha", "1", "--beta", "auto3"]) == 2
    assert main(["scan", "--N", "5", "--alpha", "1", "--beta", "autofoo"]) == 2
print(sorted({"numpy", "multiprocessing", "fractions", "dataclasses", "csv"} & set(sys.modules)))
sys.exit(main(["scan", "--N", "5", "--alpha", sys.argv[1], "--beta=" + sys.argv[2], "--jobs", "1"]))
"""


def test_closed_form_commands_load_neither_numpy_nor_multiprocessing():
    """constants, --help, a ParamError exit and a scan whose range, dimension or auto step count is rejected run
    on the stdlib without numpy, multiprocessing, fractions, dataclasses or csv; scan then
    still works."""
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


RUNTIME = """
import contextlib, io, sys
from ckn_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["scan", "--N", "5", "--alpha", "0.5:1.5:2", "--beta", "auto:3", "--jobs", "1"]) == 0
    assert main(["certify", "--N", "5", "--alpha", "1", "--beta", "1", "--json"]) == 0
    assert main(["fs-curve", "--N", "5", "--alpha", "1", "--json"]) == 0
    assert main(["verify-all"]) == 0
print(sorted({"scipy", "mpmath", "sympy", "hypothesis"} & set(sys.modules)))
"""


def test_commands_run_on_numpy_alone():
    """scan, certify, fs-curve and verify-all load none of the test-only oracles: numpy is the
    one runtime dependency, though the test extras install scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(ckn_lab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", RUNTIME], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_no_layer_loads_dataclasses():
    """Importing every layer and numpy leaves dataclasses unloaded."""
    layers = ", ".join(f"ckn_lab.{name}" for name in sorted(set(ckn_lab._EXPORTS.values())) + ["cli"])
    env = dict(os.environ, PYTHONPATH=str(Path(ckn_lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {layers}; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_records_are_read_only_tuples():
    p = validate(5, 1.0, 1.0)
    records = [
        p,
        derive(p),
        hardy_comparison_constants(p),
        integrate_semiinfinite(lambda s: 1.0 / (1.0 + s * s)),
        mode(1, p),
        ritz_min_eig(1, p, 4),
        second_variation(p),
        certify(p),
        _Witness(-1.0, 1e-10),
        TestFunction(extremal(p)),
        rellich_sobolev_constants(5, -0.5),
        CheckResult("name", True, "detail"),
    ]
    assert len({type(r) for r in records}) == 12
    for record in records:
        assert isinstance(record, tuple)
        assert len(record) == len(record._fields)
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_ritz_results_and_certificates_compare_by_identity():
    """A copy with the same fields is another record: tuple equality over an ndarray would raise."""
    for record in (ritz_min_eig(1, validate(5, 1.0, 1.0), 4), certify(validate(5, 1.0, 1.0))):
        twin = record._replace()
        assert twin is not record
        assert record == record and record != twin and not record == twin
        assert len({record, twin, record}) == 2


def _unread_imports(source: str) -> list[str]:
    """The names an import binds in `source` that nothing there reads, less `__future__`'s, the names
    of its literal `__all__`, and those imported on a line marked `# noqa: F401` (a re-export)."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
    return [
        f"{alias.lineno}: {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.partition(".")[0]) not in read
        and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import (\n    a,\n    b as c,\n)\n"
    assert _unread_imports(source) == ["2: math", "2: os.path", "4: a", "5: c"]
    assert _unread_imports(source + "__all__ = ['a']\nmath.pi, os, c\n") == []
    assert _unread_imports("from x import a  # noqa: F401\nimport os\n") == ["2: os"]


def test_no_module_imports_a_name_it_never_reads():
    """Every name each module of the package imports is read there, or listed in its __all__; the one
    `# noqa: F401` line is `profiles`' re-export of `s_r_closed`."""
    unread = {
        path.name: names
        for path in sorted(Path(ckn_lab.__file__).parent.glob("*.py"))
        if (names := _unread_imports(path.read_text()))
    }
    assert not unread, f"imported but never read: {unread}"
