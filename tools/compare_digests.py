"""Compare the task output digests of two benchmark runs.

    python3 tools/compare_digests.py BEFORE/reps.json AFTER/reps.json

Each file is the ``reps.json`` that ``perfbench/run.py`` writes to
``perfbench/out/<workload>-<seed>/``: a list of repetitions, each with a list
of tasks carrying a ``digest`` of the task's headline outputs.  Run the same
workload and seed on two checkouts, then compare.  One line is printed per
task; a task matches when every repetition in both files has the same digest.
The exit status is 0 when every task matches, 1 on any mismatch and 2 when a
file cannot be read.  Standard library only.
"""

from __future__ import annotations

import json
import sys


def task_digests(path: str) -> dict[str, set[str]]:
    """Task name -> the set of digests its repetitions produced."""
    with open(path) as fh:
        reps = json.load(fh)
    out: dict[str, set[str]] = {}
    for rep in reps:
        for task in rep["tasks"]:
            out.setdefault(task["name"], set()).add(task["digest"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_digests.py BEFORE/reps.json AFTER/reps.json",
              file=sys.stderr)
        return 2
    try:
        before, after = (task_digests(p) for p in argv)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"cannot read digests: {e}", file=sys.stderr)
        return 2
    names = list(before) + [n for n in after if n not in before]
    mismatches = 0
    for name in names:
        a, b = before.get(name, set()), after.get(name, set())
        # a task that raised has an empty digest
        same = len(a) == 1 and a == b and "" not in a
        mismatches += not same
        shown = ", ".join(sorted(d[:12] or "(none)" for d in a | b)) or "(missing)"
        print(f"{'match   ' if same else 'MISMATCH'}  {name}: {shown}")
    print(f"{len(names) - mismatches} of {len(names)} tasks match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
