"""The package namespace: what it imports is what it exports."""

import inspect

import ckn_lab


def test_imported_names_are_exported():
    imported = {
        name
        for name, value in vars(ckn_lab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(ckn_lab.__all__) - {"__version__"}
