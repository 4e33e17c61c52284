"""List the statements of ``src/gvblocks`` that a pytest run never executes.

    python3 scripts/unrun_lines.py [PYTEST_ARG ...]

The pytest arguments default to ``-q -p no:cacheprovider tests``.  Pytest
runs in this process under ``sys.settrace``, which records every line
executed in the package; each statement none of whose own lines ran is
then printed as ``path:line: text``, followed by a count.  The exit status
is pytest's.  A whole ``tests`` run takes several minutes, since every line
of the package is traced.  Only the standard library is used.

A statement counts as run if any line of its own span was traced: Python
3.11 reports a multi-line ``if (`` condition at its inner lines, not its
first.  The own span of a simple statement is its whole extent; that of a
compound statement is its header, from its first decorator to the line
before its body.  Left out, because no line event ever marks them, are
docstrings and other bare constants, ``nonlocal`` and ``global``, and
annotations without a value inside a function; the
``if __name__ == "__main__":`` guard is left out with its body.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gvblocks"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]


def _start(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _skipped(node: ast.stmt, in_function: bool) -> bool:
    return (
        isinstance(node, (ast.Nonlocal, ast.Global))
        or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        or (isinstance(node, ast.AnnAssign) and node.value is None and in_function)
    )


def statements(source: str) -> list[tuple[int, range]]:
    """The statements of ``source`` that run code, each as its first line
    and the lines of its own span (see the module docstring), in source
    order."""
    out: list[tuple[int, range]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if _is_main_guard(child):
                    continue
                if not _skipped(child, in_function):
                    start, body = _start(child), getattr(child, "body", None)
                    if isinstance(body, list) and body:
                        end = max(start, _start(body[0]) - 1)
                    else:
                        end = child.end_lineno
                    out.append((start, range(start, end + 1)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, True)
            elif isinstance(child, ast.ClassDef):
                visit(child, False)
            else:
                visit(child, in_function)

    visit(ast.parse(source), False)
    return sorted(out, key=lambda s: s[0])


def traced_pytest(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with ``args`` and return its exit status and the lines
    executed in each file of the package."""
    import pytest

    hits: dict[Path, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its hit set, if in the package

    def lines_of(filename: str) -> set[int] | None:
        if filename not in files:
            path = Path(os.path.realpath(filename))
            files[filename] = hits.setdefault(path, set()) if path.parent == PACKAGE else None
        return files[filename]

    def tracer(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def unrun(hits: dict[Path, set[int]]) -> list[tuple[Path, int, str]]:
    """(file, first line, text of that line) of each statement of the
    package none of whose own lines is in ``hits``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, seen = source.splitlines(), hits.get(path, set())
        for start, span in statements(source):
            if seen.isdisjoint(span):
                out.append((path, start, lines[start - 1].strip()))
    return out


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or DEFAULT_ARGS
    os.chdir(ROOT)
    status, hits = traced_pytest(args)
    missing = unrun(hits)
    for path, line, text in missing:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missing)} statements of {PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
