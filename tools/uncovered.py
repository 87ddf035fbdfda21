"""Print each function-body line of ``src/axc`` that the tier-1 suite never runs.

Stdlib only, since no coverage package is needed: the suite runs in this
process under ``sys.settrace``, and the lines that ran are compared with the
lines that the compiled functions of ``src/axc`` can run.  Lines that run
only in a child process (the tests that start ``axc`` as a command) count as
never run.  Run from anywhere, with optional extra pytest arguments:

    python3 tools/uncovered.py [-k EXPR ...]

It writes nothing into the checkout: no byte code and no pytest cache.  The
last line of output is the count.  The exit code is 1 when pytest passes but
some line never ran, and pytest's in every other case, so the tool is a gate.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "axc"


def function_lines(path: Path) -> set[int]:
    """The lines that the functions of one source file can run: each line of
    each function's code, nested functions, lambdas and comprehensions too,
    bar the ``def`` (or first decorator) line itself."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            own = {line for _, _, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                own.discard(code.co_firstlineno)
            lines |= own
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the ``(file, line)`` pairs of ``src/axc`` that ran."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # the child interpreters that the tests start, as the tier-1 command sets them up
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    code, ran = run_traced(argv)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(function_lines(path) - {line for name, line in ran if name == str(path)})
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"{total} function-body lines of src/axc never ran (pytest exit code {code})")
    return 1 if code == 0 and total else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
