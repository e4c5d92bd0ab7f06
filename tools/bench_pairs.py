"""Run the benchmark on two source trees in alternating pairs and compare.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD N SEED0 [--json OUT]

Pair i runs ``perfbench/run.py --workload WORKLOAD --seed SEED0+i --seconds S
--trace 0`` once in each tree, from that tree's root with that tree's own
perfbench.  The parent runs first in even pairs and the change in odd ones.
S is ``run_seconds`` from the parent tree's BENCHMARK.json.

Printed: for each end-to-end metric of BENCHMARK.json, each side's median and
quartiles and the number of pairs the change wins (ties count for neither);
whether the change's ``wall_s`` gain meets the claim rule (it wins at least
nine tenths of the pairs, and the medians differ by more than the distance
between the parent's quartiles); for each task, each side's median over the
pairs of the task's median ``ref_s`` in a pair's ``reps.json``, so a change
in ``wall_s`` can be traced to the tasks it came from; and for each pair the
verdict of ``compare_digests.py`` on the two ``reps.json`` files.
``--json OUT`` also writes every run (with its per-task medians) and both
summaries.  The exit status is 0 when every run succeeded and every pair's
digests match, else 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMPARE_DIGESTS = Path(__file__).resolve().parent / "compare_digests.py"
RUN_TIMEOUT_S = 400.0


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """One benchmark run; its metric values, or None when it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {tree}: timed out after {RUN_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {tree}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "metrics": values}


def reps_path(tree: Path, workload: str, seed: int) -> Path:
    return tree / "perfbench" / "out" / f"{workload}-{seed}" / "reps.json"


def task_ref_s(path: Path) -> dict[str, float]:
    """Task name -> the median of its ``ref_s`` over the repetitions of one
    ``reps.json``."""
    times: dict[str, list[float]] = {}
    for rep in json.loads(path.read_text()):
        for task in rep["tasks"]:
            times.setdefault(task["name"], []).append(task["ref_s"])
    return {name: statistics.median(ts) for name, ts in times.items()}


def digest_verdict(parent: Path, change: Path, workload: str, seed: int):
    """compare_digests.py's last line and whether every task matched."""
    reps = [reps_path(t, workload, seed) for t in (parent, change)]
    proc = subprocess.run([sys.executable, str(COMPARE_DIGESTS), *map(str, reps)],
                          capture_output=True, text=True)
    lines = (proc.stdout.strip() or proc.stderr.strip()).splitlines()
    return (lines[-1] if lines else "no output"), proc.returncode == 0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarise(runs, end_to_end) -> dict:
    """Per metric: each side's quartiles and the pairs the change wins."""
    out = {}
    ok = [r for r in runs if r["parent"] and r["change"]]
    if not ok:
        return out
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [r["parent"]["metrics"][name] for r in ok]
        b = [r["change"]["metrics"][name] for r in ok]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "parent": dict(zip(("q1", "median", "q3"), quartiles(a))),
                     "change": dict(zip(("q1", "median", "q3"), quartiles(b))),
                     "change_wins": wins, "pairs": len(ok)}
    return out


def summarise_tasks(runs) -> dict:
    """Per task: each side's median over the pairs of its per-pair median
    ``ref_s``, and the pairs in which the change took less time."""
    ok = [r["task_ref_s"] for r in runs if "task_ref_s" in r]
    out = {}
    for name in (ok[0]["parent"] if ok else {}):
        a = [t["parent"][name] for t in ok]
        b = [t["change"][name] for t in ok]
        out[name] = {"parent": statistics.median(a), "change": statistics.median(b),
                     "change_wins": sum(y < x for x, y in zip(a, b)), "pairs": len(ok)}
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("n", type=int)
    ap.add_argument("seed0", type=int)
    ap.add_argument("--json", type=Path, help="write every run and the summary here")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("N must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])

    runs, all_ok = [], True
    for i in range(args.n):
        seed = args.seed0 + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        run = {"seed": seed, "first": order[0][0]}
        for side, tree in order:
            run[side] = run_once(tree, args.workload, seed, seconds)
        if run["parent"] and run["change"]:
            run["digests"], same = digest_verdict(parent, change, args.workload, seed)
            run["task_ref_s"] = {side: task_ref_s(reps_path(tree, args.workload, seed))
                                 for side, tree in order}
        else:
            run["digests"], same = "a run failed", False
        all_ok &= same and all(run[s]["correct"] for s in ("parent", "change"))
        wall = [f"{run[s]['metrics']['wall_s']:.3f}" if run[s] else "failed"
                for s in ("parent", "change")]
        print(f"pair {i + 1}/{args.n} seed {seed} ({run['first']} first): "
              f"wall_s {wall[0]} -> {wall[1]}; digests: {run['digests']}",
              flush=True)
        runs.append(run)

    summary = summarise(runs, spec["end_to_end"])
    print(f"\n{args.workload}, {len(runs)} pairs, seeds {args.seed0}-{args.seed0 + args.n - 1}"
          " (q1 / median / q3):")
    for name, s in summary.items():
        a, b = s["parent"], s["change"]
        print(f"  {name:12s} parent {a['q1']:.3f} / {a['median']:.3f} / {a['q3']:.3f}"
              f"   change {b['q1']:.3f} / {b['median']:.3f} / {b['q3']:.3f} {s['unit']}"
              f"   change wins {s['change_wins']} of {s['pairs']}")
    wall = summary.get("wall_s")
    if wall:
        gap = wall["parent"]["median"] - wall["change"]["median"]
        iqr = wall["parent"]["q3"] - wall["parent"]["q1"]
        met = 10 * wall["change_wins"] >= 9 * len(runs) and gap > iqr
        summary["wall_s"]["gain_claim_met"] = met
        print(f"  wall_s gain claim {'met' if met else 'not met'}: change wins "
              f"{wall['change_wins']} of {len(runs)} pairs, median gap "
              f"{gap:.3f} against parent quartile spread {iqr:.3f}")
    tasks = summarise_tasks(runs)
    if tasks:
        print("  per task, median ref_s over the pairs:")
    for name, t in tasks.items():
        print(f"    {name:20s} parent {t['parent']:.3f}   change {t['change']:.3f} s"
              f"   change wins {t['change_wins']} of {t['pairs']}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs,
             "summary": summary, "tasks": tasks}, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
