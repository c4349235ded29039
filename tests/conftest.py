"""Shared pytest wiring: acceptance verdict lines in the summary, a helper
that runs a fresh interpreter on the package under test, and a fixture that
runs a fault-planting script under `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import comaximal


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `args`, importing the same `comaximal` as these tests.

    The imported package's source tree leads PYTHONPATH, so neither an installed
    copy nor a missing one changes what the subprocess runs.
    """
    src = str(Path(comaximal.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def _run_python_O(plant: str, expression: str) -> str:
    """stdout of a `python -O` run that executes `plant`, then evaluates `expression`.

    Prints `raised <optimize flag> <message>` when the expression raises
    InternalConsistencyError, and `returned <type>` otherwise.
    """
    script = (
        "import sys\n"
        "from comaximal import InternalConsistencyError\n"
        + plant
        + "try:\n"
        f"    result = {expression}\n"
        "except InternalConsistencyError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
        "else:\n"
        "    print('returned', type(result).__name__)\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture
def python_O():
    """`_run_python_O(plant, expression)`, for self-checks that must survive `-O`."""
    return _run_python_O
