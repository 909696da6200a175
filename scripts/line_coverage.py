#!/usr/bin/env python3
"""List the lines of ``src/aerolink`` that the Tier-1 tests never run.

    python3 scripts/line_coverage.py [pytest arguments]

Runs pytest in this process (default arguments: the Tier-1 suite, ``-q
--continue-on-collection-errors``) under a ``sys.settrace`` line tracer that
records the lines executed in ``src/aerolink``, then prints each line that
can run (one a code object maps to) but never did, as ``path:line: text``,
and their count.  Standard library only; slower than a plain test run.

Only this process is traced: a line run only in a worker process of a
parallel sweep counts as unrun.  The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "aerolink")


def _code_lines(code) -> set:
    """The lines a code object and those nested in it map to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _executable(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        return _code_lines(compile(fh.read(), path, "exec"))


def main(argv: list) -> int:
    import pytest

    run = {}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        run.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in sorted(_executable(path) - run.get(path, set())):
            unrun += 1
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} unrun lines in src/aerolink")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
