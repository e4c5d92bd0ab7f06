"""Run one example's --check over a range of seeds.

    python3 tools/check_seeds.py EXAMPLE FIRST LAST

Each seed s in FIRST..LAST (inclusive) runs as
``python -m modelkit.cli run EXAMPLE --seed s --check --out <tmpdir>`` in a
fresh process, with ``PYTHONPATH`` set to the ``src`` directory of the tree
this script lives in.  One line is printed per seed with its exit code, the
check lines it printed and its wall time; the last line gives the pass count
and the distinct exit codes.  The exit status is 0 when every seed passes,
1 when any seed fails and 2 on a usage error.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_seed(example: str, seed: int) -> tuple[int, list[str], float]:
    """Exit code, check lines and wall seconds of one seeded --check run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "modelkit.cli", "run", example,
             "--seed", str(seed), "--check", "--out", out],
            env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
    checks = [line for line in proc.stdout.splitlines() if line.startswith("check [")]
    if proc.returncode != 0 and proc.stderr.strip():
        checks.append(proc.stderr.strip().splitlines()[-1])
    return proc.returncode, checks, elapsed


def main(argv: list[str]) -> int:
    try:
        example, first, last = argv
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        print("usage: check_seeds.py EXAMPLE FIRST LAST (FIRST <= LAST)",
              file=sys.stderr)
        return 2
    codes = []
    for seed in seeds:
        code, checks, elapsed = run_seed(example, seed)
        codes.append(code)
        print(f"seed {seed}: exit {code} in {elapsed:.1f} s; {'; '.join(checks)}",
              flush=True)
    passed = codes.count(0)
    print(f"{example}: {passed} of {len(codes)} seeds passed ({seeds[0]}-{seeds[-1]}); "
          f"exit codes {', '.join(map(str, sorted(set(codes))))}")
    return 0 if passed == len(codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
