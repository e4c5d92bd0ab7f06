"""Compare the example pipelines of two source trees byte for byte.

    python3 tools/compare_examples.py BEFORE/src AFTER/src

For each tree, every example in ``modelkit.cli.EXAMPLES`` runs as
``python -m modelkit.cli run <name> --seed 0 --check --out <dir>`` in a fresh
process with ``PYTHONPATH=<src>``.  An example matches when its stdout, its
exit code and every file it wrote to ``--out`` are byte-identical between the
two trees.  One line is printed per example.  The exit status is 0 when every
example matches, 1 on any difference and 2 when a tree cannot list its
examples.  Standard library only.
"""

from __future__ import annotations

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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_examples.py BEFORE/src AFTER/src", file=sys.stderr)
        return 2
    try:
        before, after = (examples(src) for src in argv)
    except RuntimeError as e:
        print(f"cannot list examples: {e}", file=sys.stderr)
        return 2
    names = before + [n for n in after if n not in before]
    differing = 0
    for name in names:
        if name not in before or name not in after:
            diff = ["only in one tree"]
        else:
            a, b = (outputs(src, name) for src in argv)
            diff = [k for k in list(a) + [k for k in b if k not in a]
                    if a.get(k) != b.get(k)]
        differing += bool(diff)
        print(f"{'DIFFERS ' if diff else 'match   '}  {name}"
              + (f": {', '.join(diff)}" if diff else ""))
    print(f"{len(names) - differing} of {len(names)} examples match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
