"""List the statements of obslim's functions that a pytest run never executes.

Usage: python tools/unreached.py [PYTEST_ARGS ...]

Runs ``pytest.main`` in this process, with ``-p no:cacheprovider`` and the
given arguments, under a ``sys.settrace`` line trace that covers only the
files of the ``obslim`` package this process imports (the one ``PYTHONPATH``
picks). It then prints ``path:line: statement`` for each statement in a
function or method body that never ran, followed by a count, and exits with
pytest's exit code. A compound statement counts as run when any of its lines
ran. Module and class bodies run at import, before the trace starts, and are
not listed.

Only this process is traced. Code that runs only in a child, such as
``prune_model``'s forked reference worker or a test's ``python -m obslim``
subprocess, is not seen and shows as unreached.

Example: PYTHONPATH=src python tools/unreached.py -q tests/test_schedule.py
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import obslim

PACKAGE = str(Path(obslim.__file__).resolve().parent)


def function_statements(path):
    """``(first line, line, last line, text)`` of each statement in a function body.

    A docstring is not a statement that runs. A decorated definition runs
    from its first decorator's line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    found = []

    def visit(body, in_function):
        for i, stmt in enumerate(body):
            docstring = (i == 0 and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant)
                         and isinstance(stmt.value.value, str))
            if in_function and not docstring:
                first = min([stmt.lineno] + [d.lineno for d in
                                             getattr(stmt, "decorator_list", [])])
                found.append((first, stmt.lineno, stmt.end_lineno,
                              lines[stmt.lineno - 1].strip()))
            inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for part in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, part, []), inner)
            for clause in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
                visit(clause.body, inner)

    visit(ast.parse("\n".join(lines), filename=str(path)).body, False)
    return sorted(found)


def main(argv) -> int:
    ran = defaultdict(set)  # file name -> line numbers that ran

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    unreached = 0
    for path in sorted(Path(PACKAGE).rglob("*.py")):
        lines = ran[str(path)]
        for first, line, last, text in function_statements(path):
            if not any(n in lines for n in range(first, last + 1)):
                print(f"{os.path.relpath(path)}:{line}: {text}")
                unreached += 1
    print(f"{unreached} statements unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
