"""Compare the example pipelines of two source trees byte for byte.

    python3 tools/compare_examples.py BEFORE/src AFTER/src [--expect-changed NAME]...
        [--rtol R]

For each tree, every example in ``modelkit.cli.EXAMPLES`` runs as
``python -m modelkit.cli run <name> --seed 0 --check --out <dir>`` in a fresh
process with ``PYTHONPATH=<src>``.  An example matches when its stdout, its
exit code and every file it wrote to ``--out`` are byte-identical between the
two trees.  One line is printed per example.  ``--expect-changed NAME``
(repeatable) names an example whose output a change means to alter: it prints
"changed (expected)" when it differs and "UNCHANGED" when it matches.  For
every example that differs, the line also gives the largest relative
difference |a - b| / max(|a|, |b|) over the numeric cells of its
``<name>.csv`` (inf when the two files differ in shape or in a text cell).
``--rtol R`` bounds the change a named example may make: it passes only when
that difference is at most R and its exit code is unchanged.  The exit
status is 0 when every other example matches and every named one passes,
1 otherwise, and 2 when a tree cannot list its examples or a named example
is in neither tree.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _run(src: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def examples(src: str) -> list[str]:
    """The example names the tree's CLI declares."""
    proc = _run(src, ["-c", "from modelkit.cli import EXAMPLES; print(*EXAMPLES)"])
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace").strip())
    return proc.stdout.decode().split()


def outputs(src: str, name: str) -> dict[str, bytes]:
    """stdout, exit code and each written file of one example run."""
    with tempfile.TemporaryDirectory() as out:
        proc = _run(src, ["-m", "modelkit.cli", "run", name, "--seed", "0",
                          "--check", "--out", out])
        got = {"stdout": proc.stdout, "exit code": str(proc.returncode).encode()}
        for path in sorted(Path(out).iterdir()):
            got[path.name] = path.read_bytes()
    return got


def _cell_gap(a: str, b: str) -> float:
    """The relative difference of two numeric cells, 0 for equal text, else inf."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    gap = abs(x - y) / max(abs(x), abs(y))
    return gap if math.isfinite(gap) else math.inf


def csv_gap(a: bytes | None, b: bytes | None) -> float:
    """The largest relative difference over the cells of two CSV files."""
    if a is None or b is None:
        return 0.0 if a == b else math.inf
    ra, rb = (list(csv.reader(io.StringIO(x.decode()))) for x in (a, b))
    if [len(r) for r in ra] != [len(r) for r in rb]:
        return math.inf
    return max((_cell_gap(x, y) for p, q in zip(ra, rb) for x, y in zip(p, q)),
               default=0.0)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Compare the example pipelines "
                                 "of two source trees byte for byte.")
    ap.add_argument("before", metavar="BEFORE/src")
    ap.add_argument("after", metavar="AFTER/src")
    ap.add_argument("--expect-changed", action="append", default=[],
                    metavar="NAME", help="an example expected to differ")
    ap.add_argument("--rtol", type=float, default=None, metavar="R",
                    help="largest relative CSV difference a named example may show")
    args = ap.parse_args(argv)
    trees = (args.before, args.after)
    try:
        before, after = (examples(src) for src in trees)
    except RuntimeError as e:
        print(f"cannot list examples: {e}", file=sys.stderr)
        return 2
    names = before + [n for n in after if n not in before]
    expected = set(args.expect_changed)
    unknown = sorted(expected - set(names))
    if unknown:
        print(f"--expect-changed names no example: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        gap = math.inf
        if name not in before or name not in after:
            diff = ["only in one tree"]
        else:
            a, b = (outputs(src, name) for src in trees)
            diff = [k for k in list(a) + [k for k in b if k not in a]
                    if a.get(k) != b.get(k)]
            gap = csv_gap(a.get(f"{name}.csv"), b.get(f"{name}.csv"))
        ok = bool(diff) == (name in expected)
        if name in expected:
            verdict = "changed (expected)" if diff else "UNCHANGED"
            if diff and args.rtol is not None and (gap > args.rtol or "exit code" in diff):
                verdict, ok = f"BEYOND rtol {args.rtol:g}", False
        else:
            verdict = "DIFFERS " if diff else "match   "
        failed += not ok
        print(f"{verdict}  {name}" + (f": {', '.join(diff)}; largest relative "
                                      f"CSV difference {gap:.3g}" if diff else ""))
    print(f"{len(names) - failed} of {len(names)} examples as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
