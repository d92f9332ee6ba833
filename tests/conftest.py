"""Shared fixtures plus the acceptance-suite summary hook.

The hook collects pass/fail results from ``tests/test_acceptance.py``
(tests named ``test_criterion_NN``) and prints one line per criterion at
the end of the run.
"""

import re

import pytest

from ckn_lab import validate

_CRITERION_ID = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_criterion_results: dict[int, bool] = {}


def pytest_collection_modifyitems(items):
    # Pre-register every collected criterion as failed so a crash during
    # setup still yields its summary line.
    for item in items:
        match = _CRITERION_ID.search(item.nodeid)
        if match:
            _criterion_results[int(match.group(1))] = False


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        match = _CRITERION_ID.search(report.nodeid)
        if match:
            _criterion_results[int(match.group(1))] = report.passed
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_results):
        status = "PASS" if _criterion_results[number] else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {status}")


@pytest.fixture(scope="session")
def p511():
    """The canonical interior symmetry-breaking triple."""
    return validate(5, 1.0, 1.0)


@pytest.fixture(scope="session")
def p500():
    return validate(5, 0.0, 0.0)
