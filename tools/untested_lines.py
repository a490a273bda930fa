"""The lines of src/rmencca that no tier-1 test executes.

Usage: python tools/untested_lines.py [PYTEST_ARGS...]

Installs a line tracer (sys.settrace for this thread, threading.settrace for
any thread a test starts) limited to the files of src/rmencca, before
rmencca is imported, then runs pytest in this process with the tier-1
arguments (-q --continue-on-collection-errors, from the repository root);
PYTEST_ARGS are appended to them, so `-k solver` narrows the run.  It then
prints one "path:line  source" line for every executable line, as the
compiled code objects' co_lines() list them, that no test ran, then their
count, and exits with pytest's status.

It uses the standard library only (no coverage package is needed), so it is
slower than a plain tier-1 run.  Code that runs only in child processes, such
as a CLI command a test starts with subprocess, is not seen: a line reached
only there is listed as untested.
"""
from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "rmencca") + os.sep
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def _executable_lines(path: str) -> set[int]:
    """Every line a code object compiled from path maps an instruction to
    (line 0, where a module's code starts, aside)."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _tracer(seen: dict[str, set[int]]):
    """A global trace function that records the lines run in PACKAGE's files
    and traces no other frame."""

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        hit = seen.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local

        return local

    return trace


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    seen: dict[str, set[int]] = {}
    trace = _tracer(seen)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(TIER1_ARGS + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(_executable_lines(path) - seen.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}  {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} untested lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
