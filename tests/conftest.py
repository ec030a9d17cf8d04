"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them once at the end of the run, bypassing output capture; holds
the fixtures that several test modules share; makes a RuntimeWarning (a
float overflow, an invalid value) an error in every test of this suite."""

from pathlib import Path

import pytest

from flowcomp.robust import resource_estimate

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def estimate_sb10():
    """resource_estimate(10.0) with its ~9,600-digit ln_h1.fix, built once
    for every test that reads the exact integer (it takes seconds)."""
    est = resource_estimate(10.0)
    assert est.ln_h1.fix > 0
    return est


def pytest_collection_modifyitems(config, items):
    # only this directory's tests: the perfbench suite keeps its own filters
    here = Path(__file__).resolve().parent
    for item in items:
        if here in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
