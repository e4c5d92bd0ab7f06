"""The benchmark's three workloads, each a fixed list of seeded tasks.

A task is built in two steps.  ``build(seed_path, out_dir)`` runs during
set-up: it parses expressions and constructs the task's models.  It returns
``run()``, which does the timed work and returns ``(ok, detail, headline)``:
``ok`` is the task's correctness gate, ``headline`` the outputs whose digest
must repeat bit for bit in every same-seed run.

Task k of a workload run with seed s draws its inputs from the stream path
(s, k); tasks that call the command line get an integer seed derived from the
same path.  Every model is built inside the run, because memo caches live on
model objects and a reused model would make later runs faster.

Modules are reached through their attributes (``core.draw``, not ``draw``) so
that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from pathlib import Path

import numpy as np
from scipy import stats

from modelkit import cli, distributions, expr, inference, sims, transforms
from modelkit import model as core
from modelkit.data import DataSet, KdeSettings, Params, RandomStream
from spans import ess


def _cli_seed(path) -> int:
    return int(np.random.SeedSequence(path).generate_state(1)[0])


def _ks_crit(n: int, alpha: float = 1e-6) -> float:
    """One-sample KS critical value; alpha is small so no seed fails by chance."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0) / n)


def _parse(text: str):
    return expr.eval_model_expr(expr.parse_model_expr(text))


def _cli_task(name: str, draws: int | None = None, runs: int = 1,
              pass_share: float = 1.0):
    """An example pipeline run with --check; the gate is its exit code.

    With runs > 1 the pipeline runs once per sub-seed and the task passes when
    at least pass_share of the runs exit 0.
    """

    def build(path, out: Path):
        seeds = [_cli_seed(path + (j,) if runs > 1 else path) for j in range(runs)]
        out = out / name

        def run():
            codes, heads = [], []
            for seed in seeds:
                csv = out / f"{name}.csv"
                csv.unlink(missing_ok=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.run_example(name, seed=seed, draws=draws,
                                                 out=str(out), check=True))
                heads.append(csv.read_bytes() if csv.exists() else b"")
            passed = sum(rc == 0 for rc in codes)
            ok = passed >= pass_share * runs
            detail = f"{passed}/{runs} runs exit 0, codes {sorted(set(codes))}"
            return ok, detail, b"".join(heads)
        return run
    return build


# ---------------------------------------------------------------------------
# posterior-fit: many cheap calls

MH_SAMPLES = 30_000
MLE_ROWS = 2000
ROUNDTRIP_DRAWS = 60_000
BOOT_ROWS, BOOT_REPS = 200, 100

_MLE_TRUTH = {
    "normal": (Params.scalars(mu=1.0, sigma=2.0), 0.2),
    "exponential": (Params.scalars(mu=2.0), 0.2),
    "weibull": (Params.scalars(k=1.5, lam=2.0), 0.2),
}


def mh_posterior(path, out):
    """Acceptance 4: MH posterior of a Normal mean given the datum {2}.

    The posterior is N(1, 1/2).  Acceptance 4 draws 100,000 samples and
    allows 0.05 on mean and variance, about 6 standard errors of that chain;
    with n samples the gate keeps the standard errors, not the number, and
    allows 0.05 * sqrt(100,000 / n).  (posterior_draws returns a sorted PMF,
    so the chain's own effective sample size is not available here.)
    """
    post = _parse("dpcompose(normal(mu=0, sigma=1), fix(normal, sigma=1))")
    post.settings["posterior_strategy"] = "mh"
    datum = DataSet(np.array([[2.0]]))
    tol = 0.05 * math.sqrt(100_000 / MH_SAMPLES)

    def run():
        pd = transforms.posterior_draws(post, datum, MH_SAMPLES, RandomStream(path))
        x = pd.settings["pmf_support"].rows[:, 0]
        mean, var = float(x.mean()), float(x.var())
        ok = abs(mean - 1.0) <= tol and abs(var - 0.5) <= tol
        detail = f"mean {mean:.4f} var {var:.4f} (tolerance {tol:.3f})"
        return ok, detail, np.array([mean, var])
    return run


def numeric_mle(name):
    """Numeric MLE (est removed) on seeded draws; gated on the truth and,
    where a closed-form estimator exists, on agreeing with it (acceptance 5)."""

    def build(path, out):
        closed = distributions.builtin(name)
        numeric = dataclasses.replace(closed, est=None)
        truth, tol = _MLE_TRUTH[name]

        def run():
            data = DataSet(core.draw(closed, truth, RandomStream(path), MLE_ROWS))
            est = core.estimate(numeric, data).params.flatten()
            gap = float(np.max(np.abs(est - truth.flatten())))
            ok = gap <= tol
            detail = f"truth gap {gap:.3g} <= {tol}"
            if closed.est is not None:
                ref = core.estimate(closed, data).params.flatten()
                agree = float(np.max(np.abs(est - ref)))
                ok = ok and agree <= 1e-3
                detail += f", closed-form gap {agree:.2g} <= 1e-3"
            return ok, detail, est
        return run
    return build


def weibull_bootstrap(path, out):
    """Bootstrap covariance of a Weibull MLE, within a factor 2 of the
    observed-information covariance on every diagonal entry."""
    wb = distributions.weibull_model()
    truth = Params.scalars(k=1.5, lam=2.0)

    def run():
        data = DataSet(core.draw(wb, truth, RandomStream(path + (0,)), BOOT_ROWS))
        boot = inference.bootstrap_cov(wb, data, reps=BOOT_REPS,
                                       s=RandomStream(path + (1,)))
        fisher = inference.fisher_info_cov(core.estimate(wb, data), data)
        ratio = np.diag(boot.matrix) / np.diag(fisher.matrix)
        ok = bool(np.all((ratio >= 0.5) & (ratio <= 2.0)))
        return ok, f"bootstrap/fisher variance ratios {np.round(ratio, 3)}", boot.matrix
    return run


# ---------------------------------------------------------------------------
# fill-in: derived elements and transform array paths

INV_DRAWS = 1000
DELTA_ROWS = 1000
DELTA_2D_ROWS = 300
LONLY_DRAWS = 2000
CDF_POINTS = 2000
JAC_PROBES = 500

# (model, parameters, interior range for probe points)
_FILL_CASES = (("normal", Params.scalars(mu=1.0, sigma=1.0), (-2.0, 4.0)),
               ("exponential", Params.scalars(mu=2.0), (0.05, 8.0)))


def _cdf_only(m):
    return dataclasses.replace(m, logl=None, rng=None, est=None)


def cdf_inversion(path, out):
    """CDF-only models sample by inversion; KS gate against the closed CDF."""
    cases = [(_cdf_only(distributions.builtin(n)), p) for n, p, _ in _FILL_CASES]
    cdfs = [lambda x: stats.norm.cdf(x, 1.0, 1.0),
            lambda x: stats.expon.cdf(x, scale=2.0)]

    def run():
        ok, notes, heads = True, [], []
        for i, ((m, p), cdf) in enumerate(zip(cases, cdfs)):
            x = core.draw(m, p, RandomStream(path + (i,)), INV_DRAWS)[:, 0]
            ks = float(stats.kstest(x, cdf).statistic)
            ok = ok and ks < _ks_crit(INV_DRAWS)
            notes.append(f"{m.label} ks {ks:.4f}")
            heads.append(x)
        return ok, ", ".join(notes), np.concatenate(heads)
    return run


def cdf_delta(path, out):
    """CDF-only models score rows by CDF differences; compared with the closed
    form at seeded points inside the support."""
    cases = [(distributions.builtin(n), p, span) for n, p, span in _FILL_CASES]
    derived = [_cdf_only(m) for m, _, _ in cases]

    def run():
        worst, heads = 0.0, []
        for i, ((closed, p, (lo, hi)), m) in enumerate(zip(cases, derived)):
            pts = RandomStream(path + (i,)).uniform(lo, hi, size=(DELTA_ROWS, 1))
            lv = core.row_log_likelihood(m, pts, p)
            cv = core.row_log_likelihood(closed, pts, p)
            worst = max(worst, float(np.max(np.abs(lv - cv))))
            heads.append(lv)
        detail = f"max log-density gap {worst:.3g} <= 1e-4"
        return worst <= 1e-4, detail, np.concatenate(heads)
    return run


def cdf_delta_2d(path, out):
    """A CDF-only cross(normal, exponential) scores rows by 2-D CDF deltas.

    The mixed second difference loses about eps / h^2 = 1e-6 of CDF mass to
    rounding, so its relative error grows where the density is small; probe
    points stay where the density is above 1e-3 and the gate is 1e-3.
    """
    closed = transforms.cross([distributions.builtin("normal"),
                               distributions.builtin("exponential")])
    derived = _cdf_only(closed)
    p = closed.param_shape.replace([1.0, 1.0, 2.0])

    def run():
        s = RandomStream(path)
        pts = np.column_stack([s.uniform(-1.0, 3.0, DELTA_2D_ROWS),
                               s.uniform(0.05, 6.0, DELTA_2D_ROWS)])
        lv = core.row_log_likelihood(derived, pts, p)
        cv = core.row_log_likelihood(closed, pts, p)
        gap = float(np.max(np.abs(lv - cv)))
        return gap <= 1e-3, f"max log-density gap {gap:.3g} <= 1e-3", lv
    return run


def memoized_kde(path, out):
    """Acceptance 5: sampler-only models with kde get a memoized-PMF
    likelihood whose probe ratio matches the closed form within 10%.

    The memoized draws use the library's fixed internal seed, so this task's
    result does not depend on the workload seed.
    """
    probes = {"normal": [0.4, 1.6], "exponential": [0.5, 3.0]}
    cases = []
    for name, p, _ in _FILL_CASES:
        closed = distributions.builtin(name)
        pmf = dataclasses.replace(closed, logl=None, cdf=None, est=None,
                                  settings={"kde": KdeSettings()})
        cases.append((closed, pmf, p, np.array(probes[name]).reshape(-1, 1)))

    def run():
        ok, notes, heads = True, [], []
        for closed, pmf, p, probe in cases:
            lv = core.row_log_likelihood(pmf, probe, p)
            cv = core.row_log_likelihood(closed, probe, p)
            ratio = math.exp((lv[0] - lv[1]) - (cv[0] - cv[1]))
            ok = ok and abs(ratio - 1.0) <= 0.10
            notes.append(f"{closed.label} ratio {ratio:.4f}")
            heads.append(lv)
        return ok, ", ".join(notes), np.concatenate(heads)
    return run


def likelihood_only(path, out):
    """Likelihood-only models: metropolis draws and the empirical-draws CDF.

    The draws' mean must lie within 5 standard errors of the truth, the
    standard error taken from the chain's effective sample size.  The
    empirical CDF must lie within 0.05 of the closed CDF (check_ml_consistency's
    tolerance); its draws come from the library's fixed internal seed, and
    their largest gap over the whole line is 0.025 (normal) and 0.043
    (exponential), so no choice of probe points can fail.
    """
    cases = []
    for name, p, span in _FILL_CASES:
        closed = distributions.builtin(name)
        lonly = dataclasses.replace(closed, rng=None, cdf=None, est=None)
        cases.append((closed, lonly, p, span))
    moments = {"normal": (1.0, 1.0), "exponential": (2.0, 2.0)}

    def run():
        ok, notes, heads = True, [], []
        for i, (closed, m, p, (lo, hi)) in enumerate(cases):
            x = core.draw(m, p, RandomStream(path + (i, 0)), LONLY_DRAWS)[:, 0]
            mean, sd = moments[closed.label]
            z = abs(x.mean() - mean) / (sd / math.sqrt(ess(x)))
            pts = RandomStream(path + (i, 1)).uniform(lo, hi, size=(CDF_POINTS // 4, 1))
            emp = core.cdf(m, pts, p)
            cgap = float(np.max(np.abs(emp - core.cdf(closed, pts, p))))
            ok = ok and z <= 5.0 and cgap <= 0.05
            notes.append(f"{closed.label} mean z {z:.2f} cdf gap {cgap:.3f}")
            heads += [x, emp]
        return ok, ", ".join(notes), np.concatenate(heads)
    return run


def transform_cdfs(path, out):
    """cross, mix and truncate CDFs over thousands of points, against scipy."""
    normal, expo = distributions.builtin("normal"), distributions.builtin("exponential")
    cr = transforms.cross([normal, expo])
    p_cr = cr.param_shape.replace([1.0, 1.0, 2.0])
    mx = transforms.mix([normal, normal], weights=[0.3, 0.7])
    p_mx = mx.param_shape.replace([-1.0, 1.0, 2.0, 0.5, 0.3, 0.7])
    tr = transforms.truncate(normal, (0.0, None))
    p_tr = Params.scalars(mu=1.0, sigma=1.0)

    def run():
        s = RandomStream(path)
        x = s.uniform(-3.0, 5.0, CDF_POINTS)
        y = s.uniform(0.0, 8.0, CDF_POINTS)
        got = [core.cdf(cr, np.column_stack([x, y]), p_cr),
               core.cdf(mx, x.reshape(-1, 1), p_mx),
               core.cdf(tr, x.reshape(-1, 1), p_tr)]
        z = stats.norm.cdf(0.0, 1.0, 1.0)
        want = [stats.norm.cdf(x, 1.0, 1.0) * stats.expon.cdf(y, scale=2.0),
                0.3 * stats.norm.cdf(x, -1.0, 1.0) + 0.7 * stats.norm.cdf(x, 2.0, 0.5),
                np.where(x < 0.0, 0.0, (stats.norm.cdf(x, 1.0, 1.0) - z) / (1.0 - z))]
        gap = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
        return gap <= 1e-10, f"max CDF gap {gap:.3g} <= 1e-10", np.concatenate(got)
    return run


def jacobian_group(path, out):
    """Acceptance 7: two stacked changes of variables equal the composite."""
    m = distributions.builtin("exponential")
    p = m.param_shape
    recip = transforms.jacobian(m, lambda x: 1.0 / x, lambda y: 1.0 / y)
    nested = transforms.jacobian(recip, lambda x: x ** 3.0, lambda y: y ** (1.0 / 3.0))
    direct = transforms.jacobian(m, lambda x: x ** -3.0, lambda y: y ** (-1.0 / 3.0))

    def run():
        probes = RandomStream(path).uniform(0.2, 5.0, size=(JAC_PROBES, 1))
        a = core.row_log_likelihood(nested, probes, p)
        b = core.row_log_likelihood(direct, probes, p)
        gap = float(np.max(np.abs(a - b)))
        return gap <= 1e-10, f"max pointwise gap {gap:.3g} <= 1e-10", a
    return run


# ---------------------------------------------------------------------------
# pipelines: simulators, caches and dense kernels

POISSON_ROWS = 2000
# acceptance 2 asks 4 of 5 seeds in band: one sigma-fit --check fails on
# about 2% of seeds (9 of 400 scanned), so the task runs 20 seeds and asks 80%
SIGMA_RUNS = 20
SEARCH_RUNS = 8
FUZZ_REPS = 6
DEMAND_AGENTS, DEMAND_MEMO, DEMAND_ROWS = 500, 50, 30


def fixed_input(build):
    """Run a task on the inputs of workload seed 0, whatever the seed.

    search, weibull-fuzz and demand do a random amount of work: pairing
    times, fuzzed grid sizes and the fit path all follow the data.  One
    search run's work varies by 52% and one fuzz rep's by 94% between
    inputs, and demand's fit visits 132 to 295 parameter points; at these
    sizes that is more than any bound the benchmark can set on wall_s, so
    these tasks always take seed 0's inputs.
    """

    def fixed(path, out):
        return build((0,) + tuple(path[1:]), out)
    return fixed


def demand(path, out):
    """The demand pipeline through the public API, at a smaller size.

    Same model, start point and gate as ``modelkit run demand --check``
    (every parameter within 0.2 of the truth); the command line has no size
    flag, so agents and memoized-PMF draws are set through the API.
    """
    m = sims.demand_model(sims.DemandConfig(n_agents=DEMAND_AGENTS, price=0.5))
    m = m.with_settings(memoize_draws=DEMAND_MEMO)
    truth = m.param_shape
    start = dataclasses.replace(m, param_shape=truth.replace([2.0, 0.3]))

    def run():
        data = DataSet(core.draw(m, truth, RandomStream(path), DEMAND_ROWS))
        est = core.estimate(start, data).params.flatten()
        gap = np.abs(est - truth.flatten())
        return bool(np.all(gap <= 0.2)), f"estimate {np.round(est, 4)}", est
    return run


WORKLOADS = {
    "posterior-fit": [
        ("mh-posterior", mh_posterior),
        ("mle-normal", numeric_mle("normal")),
        ("mle-exponential", numeric_mle("exponential")),
        ("mle-weibull", numeric_mle("weibull")),
        ("roundtrip", _cli_task("roundtrip", ROUNDTRIP_DRAWS)),
        ("bootstrap-weibull", weibull_bootstrap),
    ],
    "fill-in": [
        ("cdf-inversion", cdf_inversion),
        ("cdf-delta", cdf_delta),
        ("cdf-delta-2d", cdf_delta_2d),
        ("memoized-kde", memoized_kde),
        ("likelihood-only", likelihood_only),
        ("transform-cdfs", transform_cdfs),
        ("jacobian", jacobian_group),
    ],
    "pipelines": [
        ("network-cdf", _cli_task("network-cdf")),
        ("sigma-fit", _cli_task("sigma-fit", runs=SIGMA_RUNS, pass_share=0.8)),
        ("poisson-update", _cli_task("poisson-update", POISSON_ROWS)),
        ("search", fixed_input(_cli_task("search", SEARCH_RUNS))),
        ("weibull-fuzz", fixed_input(_cli_task("weibull-fuzz", FUZZ_REPS))),
        ("demand", fixed_input(demand)),
    ],
}
