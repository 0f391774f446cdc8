#!/usr/bin/env python3
"""List the statements of src/bvcontact that a pytest run never executes.

    python3 scripts/line_trace.py [pytest args ...]     # default: tests -q

Runs pytest in this process under a sys.settrace tracer that follows only
frames of src/bvcontact, then prints, for each module, the statements that
never ran with their source line.  Docstrings and def/class lines are left
out; a compound statement (if, for, while, with) counts by its header.  Only
this process is traced: code run in a subprocess or a thread started before
the tracer counts as unexecuted.  Needs no coverage package.  Exits with
pytest's status.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bvcontact"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# statements counted by their body alone
_BODY_ONLY = (*_SCOPES, ast.Try)


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(path: Path) -> dict[int, range]:
    """{first line: the lines whose execution counts} of each counted
    statement; a compound statement counts by its header lines."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_SCOPES)) and node.body
                  and _is_docstring(node.body[0])}
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, _BODY_ONLY) \
                and id(node) not in docstrings:
            body = getattr(node, "body", None)
            end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            out[node.lineno] = range(node.lineno, end + 1)
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}
    ours: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(prefix)
            if mine:
                hits.setdefault(code.co_filename, set())
        return local if mine else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests", "-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        missed = [first for first, span in sorted(statements(path).items())
                  if not ran.intersection(span)]
        total_missed += len(missed)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} statements never ran")
            for first in missed:
                print(f"  {first:5d}  {lines[first - 1].strip()}")
    print(f"\n{total_missed} statements never ran in src/bvcontact")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
