"""Shared fixtures and the acceptance-summary terminal hook."""

import os
from pathlib import Path

import pytest

import crqiv

# (number, label, passed, detail) tuples appended by acceptance tests
ACCEPTANCE_LOG: list = []


@pytest.fixture(scope="session")
def record():
    def _record(number: int, label: str, passed: bool, detail: str = "") -> None:
        ACCEPTANCE_LOG.append((number, label, bool(passed), detail))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_LOG):
        word = "PASS" if passed else "FAIL"
        line = f"criterion {number:>2}: {word}  {label}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line, green=passed, red=not passed)


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child interpreter that imports this crqiv."""
    src = str(Path(crqiv.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def mc_design1():
    """100 replications of design 1 at n=10,000 (shared across tests)."""
    from crqiv.simulate import DgpSpec, mc_study

    return mc_study(DgpSpec(design=1, n=10_000, seed=0), reps=100)


@pytest.fixture(scope="session")
def mc_design2():
    """100 replications of design 2 at n=10,000 (shared across tests)."""
    from crqiv.simulate import DgpSpec, mc_study

    return mc_study(DgpSpec(design=2, n=10_000, seed=0), reps=100)
