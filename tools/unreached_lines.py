"""Print the lines of src/modelkit that a pytest run never executes.

    python3 tools/unreached_lines.py [PYTEST ARGS...]

Runs pytest in this process (default arguments: this tree's ``tests``
directory and ``-q``) under a ``sys.settrace`` line tracer that records only
frames of files under ``src/modelkit``, then prints every executable line that
never ran as ``FILE:LINE: source``, one per line, and a count per file,
with how many of those lines are not part of a ``raise`` statement.
Executable lines are the line numbers of the compiled code objects
(``co_lines``), the same lines the tracer can report.  Code run in a child
process is not seen.  The exit status is pytest's.  Standard library plus
pytest only; a traced run takes several times as long as an untraced one.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "modelkit"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from the file."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def raise_lines(path: Path) -> set[int]:
    """Line numbers spanned by the file's ``raise`` statements."""
    return {n for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
            for n in range(node.lineno, node.end_lineno + 1)}


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines it ran, by real file path."""
    import pytest

    prefix = str(PKG.resolve()) + os.sep
    inside: dict[str, str | None] = {}
    hits: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
        real = inside[name]
        if real is None:
            return None
        seen = hits.setdefault(real, set())
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = run_traced(argv or [str(ROOT / "tests"), "-q"])
    total = total_plain = 0
    counts = []
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path.resolve()), set()))
        plain = len(set(missed) - raise_lines(path))
        shown = path.relative_to(ROOT)
        for n in missed:
            print(f"{shown}:{n}: {source[n - 1].strip()}")
        counts.append(f"{shown}: {len(missed)} of {len(lines)} executable lines "
                      f"unreached, {plain} not in a raise")
        total += len(missed)
        total_plain += plain
    print(*counts, sep="\n")
    print(f"{total} executable lines unreached, {total_plain} not in a raise")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
