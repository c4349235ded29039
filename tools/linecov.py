"""List the function-body lines of src/comaximal that a test run never reaches.

    python tools/linecov.py [pytest arguments]    (default: -q tests, the Tier-1 suite)

Runs pytest in this process under a `sys.settrace` line counter; subprocesses are not traced.
A function's lines are those its bytecode names, less its `def` line.
"""

import sys
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
reached: set[tuple[str, int]] = set()


def line(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return line


def call(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(str(SRC)) else None


def body_lines(code: CodeType):
    for inner in (c for c in code.co_consts if isinstance(c, CodeType)):
        yield from (n for _, _, n in inner.co_lines() if n and n != inner.co_firstlineno)
        yield from body_lines(inner)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.settrace(call)
    status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider", "tests"])
    sys.settrace(None)
    for path in sorted((SRC / "comaximal").glob("*.py")):
        lines = set(body_lines(compile(path.read_text(), str(path), "exec")))
        missed = sorted(lines - {n for f, n in reached if f == str(path)})
        print(f"{path.name}: {len(lines) - len(missed)} of {len(lines)} reached; unreached:", *missed)
    sys.exit(status)
