"""List the statements of a package that no unit test runs.

Usage, from anywhere::

    python3 tools/never_run.py

It runs pytest on ``tests/`` without ``tests/test_acceptance.py`` and
traces ``src/banditpool``.  A line tracer (``sys.settrace``) records
every line run in the package's files, and every statement the ``ast`` of
those files holds is checked against them; docstrings are not statements.
A compound statement counts as run when its header ran.  Statements run
only in worker processes are not traced.

It prints each never-run statement as ``file:line  function  source``,
marking those on ``ALLOWED`` with the reason, then a count.  It exits 1 if
a never-run statement is not on ``ALLOWED``, with pytest's status if a test
failed, and 0 otherwise.  The trace makes the tests several times slower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "banditpool"
UNIT_TESTS = ["-q", str(ROOT / "tests"),
              f"--ignore={ROOT / 'tests' / 'test_acceptance.py'}"]

# (file in the package, enclosing function or class, source) -> reason.
ALLOWED = {
    ("agents.py", "Agent._scores", "raise NotImplementedError"):
        "abstract hook; every agent kind overrides it",
    ("agents.py", "Agent._learn", "raise NotImplementedError"):
        "abstract hook; every agent kind overrides it",
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only as a script; the tests call main()",
}


def statements(path: Path) -> list[tuple[range, int, str, str]]:
    """``(lines, line, where, source)`` of every statement in one file.

    ``lines`` are the lines whose run counts as the statement's: a simple
    statement's own lines, or a compound one's decorators and header.
    """
    source = path.read_text()
    text = source.splitlines()
    found = []

    def visit(body, where):
        for node in body:
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring, which compiles to no code
            first = min([node.lineno]
                        + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = [getattr(node, name) for name in
                     ("body", "orelse", "finalbody", "handlers")
                     if getattr(node, name, None)]
            last = inner[0][0].lineno - 1 if inner else node.end_lineno
            found.append((range(first, max(first, last) + 1), node.lineno,
                          where, text[node.lineno - 1].strip()))
            scope = where
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                scope = node.name if where == "<module>" else f"{where}.{node.name}"
            for block in inner:
                visit(block, scope)

    visit(ast.parse(source, str(path)).body, "<module>")
    return found


def trace_tests(package: Path, pytest_args: list[str]) -> tuple[int, dict]:
    """Run pytest under a line tracer; pytest's status and, per file of
    ``package`` (resolved path), the set of lines that ran."""
    prefix = str(package.resolve()) + os.sep
    hits, tracers = {}, {}

    def line_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            real = os.path.realpath(name)
            tracers[name] = (line_tracer(hits.setdefault(real, set()))
                             if real.startswith(prefix) else None)
        return tracers[name]

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
    return int(status), hits


def never_run(package: Path, hits: dict) -> list[tuple[str, int, str, str]]:
    """``(file, line, where, source)`` of each statement no line of which ran."""
    out = []
    for path in sorted(package.resolve().rglob("*.py")):
        ran = hits.get(str(path), set())
        rel = path.relative_to(package.resolve()).as_posix()
        out += [(rel, line, where, source)
                for lines, line, where, source in statements(path)
                if ran.isdisjoint(lines)]
    return out


def main() -> int:
    status, hits = trace_tests(PACKAGE, UNIT_TESTS)
    missed = never_run(PACKAGE, hits)
    unexplained = 0
    for rel, line, where, source in missed:
        reason = ALLOWED.get((rel, where, source))
        unexplained += reason is None
        print(f"{PACKAGE.name}/{rel}:{line}  {where}  {source}"
              + (f"  (allowed: {reason})" if reason else ""))
    print(f"{len(missed)} statements never ran; {unexplained} not allowed.")
    return status or int(unexplained > 0)


if __name__ == "__main__":
    sys.exit(main())
