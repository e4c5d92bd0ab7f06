"""One measured repetition of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --started T --out DIR
                                [--trace] [--setup-only]

``--started`` is the wall-clock time (time.time()) at which the parent
launched this process; set-up time runs from there to the end of model
construction, so it covers interpreter start, imports, the scipy.optimize
import that modelkit.solvers pulls in, expression parsing and model
building.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(headline) -> str:
    if isinstance(headline, (bytes, bytearray)):
        data = bytes(headline)
    else:
        import numpy as np

        arr = np.ascontiguousarray(headline, dtype=np.float64)
        data = repr(arr.shape).encode() + arr.tobytes()
    return hashlib.sha256(data).hexdigest()


class Pace:
    """Samples the machine's speed while the worker runs.

    The host is shared, and its speed drifts by 1.5x over seconds to minutes.
    Every PERIOD_S a SIGALRM handler times a fixed kernel of small numpy
    calls, the kind of work modelkit's per-call paths do, without touching
    modelkit; a span of work is then scaled by REF_S over the median kernel
    time around it, which gives its seconds at a fixed reference speed.  The
    handler's own time is kept in ``spent`` and subtracted from the spans it
    interrupts.
    """

    PERIOD_S = 0.1
    WINDOW_S = 0.25    # samples this close to a span also describe it
    REF_S = 0.00115    # kernel time at the reference speed

    def __init__(self, np):
        self.np = np
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def kernel(self) -> float:
        np = self.np
        x = np.arange(4.0)
        acc = 0.0
        for i in range(150):
            v = np.asarray([i * 0.5, 1.0])
            w = np.concatenate([v, x])[1:3].copy()
            acc += float(np.sum(w * w)) + len(str(i))
        return acc

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.kernel()
        d = time.perf_counter() - t
        self.samples.append((t, d))
        self.spent += time.perf_counter() - t

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scale(self, a: float, b: float) -> float:
        """REF_S over the median kernel time of the samples near [a, b]."""
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        near = [d for t, d in self.samples
                if a - self.WINDOW_S <= t <= b + self.WINDOW_S]
        if not near:
            t_mid = 0.5 * (a + b)
            near = [min(self.samples, key=lambda s: abs(s[0] - t_mid))[1]]
        return self.REF_S / statistics.median(near)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.trace:
        return measure(args, None)
    import numpy  # set-up work in any case: modelkit imports it first

    pace = Pace(numpy)
    pace.start()
    try:
        return measure(args, pace)
    finally:
        pace.stop()


def measure(args, pace: Pace | None) -> int:
    t_begin = time.perf_counter()

    src = ROOT / "src"
    if not (src / "modelkit" / "__init__.py").is_file():
        print(f"modelkit sources not found under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import modelkit
    import modelkit.cli
    import modelkit.solvers  # noqa: F401  (scipy.optimize belongs to set-up)

    if Path(modelkit.__file__).resolve().parent != (src / "modelkit").resolve():
        print(f"imported modelkit from {modelkit.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        import spans as tracing

        tracer = tracing.install()
        phase = tracer.enter("phase.setup")
        t_phase = time.perf_counter()
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(name, build((args.seed, k), out))
             for k, (name, build) in enumerate(workloads.WORKLOADS[args.workload])]
    if tracer is not None:
        tracer.leave(phase, time.perf_counter() - t_phase, 0)
        phase = tracer.enter("phase.tasks")
    setup_s = time.time() - args.started
    result = {"setup_s": setup_s, "tasks": [name for name, _ in tasks]}
    if pace is not None:
        result["setup_ref_s"] = ((setup_s - pace.spent)
                                 * pace.scale(t_begin, time.perf_counter()))
    if args.setup_only:
        print(json.dumps(result))
        return 0

    records = []
    t_start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for name, run in tasks:
            t0 = time.perf_counter()
            spent0 = pace.spent if pace else 0.0
            try:
                ok, detail, headline = run()
                dig = digest(headline)
            except Exception as e:  # a task that raises counts as failed
                ok, detail, dig = False, f"raised {type(e).__name__}: {e}", ""
            t1 = time.perf_counter()
            rec = {"name": name, "ok": bool(ok), "detail": detail, "digest": dig,
                   "seconds": t1 - t0}
            if pace is not None:
                rec["seconds"] -= pace.spent - spent0
                rec["ref_s"] = rec["seconds"] * pace.scale(t0, t1)
            records.append(rec)
    wall_s = time.perf_counter() - t_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(wall_s=wall_s, tasks=records, peak_rss_mb=peak_kb / 1024.0)
    if tracer is not None:
        tracer.leave(phase, wall_s, 0)
        span_s = phase.child
        layers = tracing.layer_metrics(tracer)
        layers.update({"trace.wall_s": wall_s, "trace.span_s": span_s,
                       "trace.unattributed_s": wall_s - span_s})
        result["layers"] = layers
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "wall_s": wall_s, "setup_s": setup_s, "metrics": layers})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
