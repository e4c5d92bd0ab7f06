"""modelkit benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh worker process
(perfbench/worker.py) pinned to one BLAS/OpenMP thread, so set-up time and
peak memory are measured per process and no model or cache outlives a
repetition.  One set-up-only worker runs first and is discarded: it compiles
the bytecode and warms the file cache, which users do not pay on every run.

--trace 0 reports the end-to-end metrics with no wrappers installed:
  setup_s      median over workers of process start -> first task
  wall_s       time of the task list: per task the median over repetitions,
               summed over tasks (robust to a slow spell hitting one task)
  peak_rss_mb  median over repetitions of the worker's peak resident memory
Both times are in reference-speed seconds: worker.Pace samples the shared
host's speed while the worker runs and scales each span of work to a fixed
reference speed.  Raw seconds are kept in out/<workload>-<seed>/reps.json.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (raw seconds) of the traced repetition with the median
wall time, plus trace.overhead_s: that repetition's wall time minus the
untraced raw task-list time.

Every task has a correctness gate.  A task counts as failed when its gate
fails, when it raises, or when its output digest differs from the first
repetition of the same seed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_REPS = 3          # full repetitions per untraced run, whatever --seconds says
MIN_SETUPS = 5        # set-up samples per run
HARD_STOP_S = 140.0   # launch nothing new after this, to end well inside 180 s
WORKER_TIMEOUT_S = 170.0

# One thread per library: the installed OpenBLAS is built for 64 threads and
# the benchmark measures single-threaded work.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed = workload, seed
        self.t0 = time.monotonic()
        self.deadline = self.t0 + seconds
        self.out = HERE / "out" / f"{workload}-{seed}"
        self.env = dict(os.environ, **THREAD_ENV)
        self.reference: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def launch(self, trace=False, setup_only=False):
        """One worker process; returns (result dict or None, seconds taken)."""
        started = time.time()
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--started", repr(started),
               "--out", str(self.out)]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        t = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.notes.append(f"worker timed out after {WORKER_TIMEOUT_S:.0f} s")
            return None, time.monotonic() - t
        took = time.monotonic() - t
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.notes.append(f"worker exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-400:]}")
            return None, took
        return json.loads(lines[-1]), took

    def score(self, res, n_tasks: int):
        """Count attempted and failed tasks of one full repetition."""
        self.attempted += n_tasks
        if res is None:
            self.failed += n_tasks
            return
        for t in res["tasks"]:
            ref = self.reference.setdefault(t["name"], t["digest"])
            bad = not t["ok"] or not t["digest"] or t["digest"] != ref
            if bad:
                self.failed += 1
                why = (t["detail"] if not t["ok"]
                       else "digest differs from the first repetition")
                self.notes.append(f"task {t['name']} failed: {why}")

    def repeat(self, kinds, n_tasks: int):
        """Launch full repetitions cycling through kinds (False = untraced,
        True = traced) until each kind ran, an untraced-only run has MIN_REPS,
        and less than half of the next repetition would fit before the
        deadline."""
        done = {k: [] for k in kinds}
        took = {k: [] for k in kinds}
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            need = (any(not took[k] for k in kinds)
                    or (len(kinds) == 1 and len(took[False]) < MIN_REPS))
            est = statistics.median(took[kind]) if took[kind] else 0.0
            # start one more repetition when at least half of it fits
            if not need and time.monotonic() + est / 2 > self.deadline:
                break
            if self.elapsed() > HARD_STOP_S:
                break
            res, t = self.launch(trace=kind)
            took[kind].append(t)
            self.score(res, n_tasks)
            if res is not None:
                done[kind].append(res)
            i += 1
        return done


def task_wall(reps, key: str) -> float:
    """Per task the median time over repetitions, summed over tasks."""
    return sum(statistics.median(r["tasks"][k][key] for r in reps)
               for k in range(len(reps[0]["tasks"])))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "modelkit" / "__init__.py").is_file():
        print(f"no modelkit sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    warm, _ = run.launch(setup_only=True)
    if warm is None:
        print("\n".join(run.notes), file=sys.stderr)
        return 1
    n_tasks = len(warm["tasks"])

    kinds = [False, True] if args.trace else [False]
    done = run.repeat(kinds, n_tasks)
    if not done[False] or (args.trace and not done[True]):
        print("\n".join(run.notes), file=sys.stderr)
        return 1
    untraced = done[False]
    (run.out / "reps.json").write_text(json.dumps(done[False]))

    if args.trace:
        traced = sorted(done[True], key=lambda r: r["wall_s"])
        pick = traced[(len(traced) - 1) // 2]
        values = dict(pick["layers"])
        values["trace.overhead_s"] = pick["wall_s"] - task_wall(untraced, "seconds")
        listed = spec["per_layer"]
    else:
        setups = [r["setup_ref_s"] for r in untraced]
        while len(setups) < MIN_SETUPS:
            res, _ = run.launch(setup_only=True)
            if res is None:
                break
            setups.append(res["setup_ref_s"])
        values = {"setup_s": statistics.median(setups),
                  "wall_s": task_wall(untraced, "ref_s"),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"metrics listed in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    reps = sum(len(v) for v in done.values())
    for note in run.notes:
        print(note)
    print(f"{args.workload} seed {args.seed}: {reps} repetitions, "
          f"{run.failed}/{run.attempted} tasks failed, {run.elapsed():.1f} s")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
