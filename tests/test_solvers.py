"""Solver layer: optimizers, samplers, inversion, memoization, derivatives."""

import math

import numpy as np
import pytest
from scipy import stats

from modelkit import (DataSet, McmcSettings, MleSettings, ModelError, Params,
                      RandomStream, builtin, normal_model)
from modelkit import model as core
from modelkit import solvers


def test_nelder_mead_quadratic():
    f = lambda x: -(x[0] - 2.0) ** 2 - (x[1] + 1.0) ** 2
    res = solvers.nelder_mead(f, np.array([0.0, 0.0]), MleSettings())
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-4)
    assert res.x[1] == pytest.approx(-1.0, abs=1e-4)


def test_nelder_mead_infeasible_start():
    f = lambda x: -math.inf
    with pytest.raises(ModelError, match="infeasible start"):
        solvers.nelder_mead(f, np.array([0.0]), MleSettings())


def test_annealing_escapes_local_maximum():
    # two bumps; the global one is at x = 4, a local one at x = 0
    f = lambda x: (math.exp(-(x[0]) ** 2)
                   + 2 * math.exp(-((x[0] - 4.0)) ** 2))
    res = solvers.simulated_annealing(f, np.array([0.0]),
                                      MleSettings(max_iter=2000),
                                      RandomStream(3))
    assert res.x[0] == pytest.approx(4.0, abs=1e-3)


def test_coordinate_cycle_matches_joint_optimum():
    m = normal_model()
    d = DataSet(RandomStream(17).normal(2.0, 3.0, size=400).reshape(-1, 1))
    res = solvers.coordinate_cycle(core._mle_objective(m, d),
                                   m.param_shape.free_values(), MleSettings())
    closed = core.estimate(m, d)
    assert res.x[0] == pytest.approx(closed.params.scalar("mu"), abs=1e-4)
    assert res.x[1] == pytest.approx(closed.params.scalar("sigma"), abs=1e-4)


def test_metropolis_normal_target():
    target = lambda x: stats.norm.logpdf(x[0], 3.0, 2.0)
    chain = solvers.metropolis(target, np.array([0.0]),
                               McmcSettings(burnin=500), RandomStream(7), 20000)
    xs = chain.samples[:, 0]
    assert xs.mean() == pytest.approx(3.0, abs=0.15)
    assert xs.std() == pytest.approx(2.0, abs=0.15)
    assert 0.1 < chain.acceptance_rate < 0.9


def test_metropolis_stuck_chain_detected():
    target = lambda x: 0.0 if abs(x[0]) < 1e-12 else -math.inf
    with pytest.raises(ModelError, match="stuck"):
        solvers.metropolis(target, np.array([0.0]),
                           McmcSettings(burnin=200, step_scale=1e6),
                           RandomStream(1), 100)


def test_invert_cdf_quantiles():
    cdf = lambda x, p=None: stats.norm.cdf(x)
    stream = RandomStream(5)
    draws = np.array([solvers.invert_cdf_draw(cdf, None, stream)
                      for _ in range(2000)])
    # quantile check at the frozen 97.5% point
    assert np.mean(draws <= 1.959963984540054) == pytest.approx(0.975, abs=0.01)
    assert stats.kstest(draws, stats.norm.cdf).statistic < 1.3581 / math.sqrt(2000)


def _scalar_inversion(cdf, r):
    """Reference: the one-draw bracket, bisect and secant loop invert_cdf batches."""
    lo, hi = -1.0, 1.0
    while cdf(lo) > r:
        lo *= 2.0
    while cdf(hi) < r:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = cdf(mid)
        if abs(v - r) < 1e-10:
            return mid
        if v < r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(hi)):
            break
    x0, x1 = lo, hi
    f0, f1 = cdf(x0) - r, cdf(x1) - r
    for _ in range(50):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi):
            break
        f2 = cdf(x2) - r
        if abs(f2) < 1e-10:
            return x2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return 0.5 * (lo + hi)


# a steep CDF and a step CDF reach the secant stage, which smooth CDFs skip
@pytest.mark.parametrize("cdf", [stats.norm(1.0, 1.0).cdf, stats.expon(scale=2.0).cdf,
                                 stats.t(3).cdf, stats.norm(0.3, 1e-6).cdf,
                                 lambda x: np.where(x < 0.2, 0.0, 1.0)])
def test_invert_cdf_matches_the_scalar_loop(cdf):
    u = RandomStream(11).uniform(size=200)
    # extreme uniforms exercise the bracket doubling
    u = np.concatenate([u, [1e-300, 1e-12, 0.5, 1 - 1e-12]])
    want = np.array([_scalar_inversion(lambda x: float(cdf(x)), r) for r in u])
    assert np.array_equal(solvers.invert_cdf(cdf, u), want)
    stream = RandomStream(11)
    one = [solvers.invert_cdf_draw(lambda x: float(cdf(x)), None, stream)
           for _ in range(200)]
    assert np.array_equal(one, want[:200])


def test_invert_cdf_unbracketable():
    with pytest.raises(ModelError, match="unbracketable: lower"):
        solvers.invert_cdf(lambda x: np.full(x.shape, np.nan), [0.3])
    with pytest.raises(ModelError, match="unbracketable: upper"):
        solvers.invert_cdf(lambda x: np.zeros(x.shape), [0.3])


def test_cdf_inversion_draws_call_the_cdf_per_step_not_per_draw():
    import dataclasses

    calls = []
    normal = normal_model()

    def cdf(points, p):
        calls.append(points.shape[0])
        return normal.cdf(points, p)

    m = dataclasses.replace(normal, logl=None, rng=None, est=None, cdf=cdf)
    p = Params.scalars(mu=1.0, sigma=2.0)
    draws = core.draw(m, p, RandomStream(21), 1000)[:, 0]
    assert len(calls) <= 200
    assert stats.kstest(draws, stats.norm(1.0, 2.0).cdf).statistic < 0.06


def test_memoize_rng_to_pmf_counts():
    m = builtin("poisson")
    p = Params.scalars(lam=2.0)
    pmf = solvers.memoize_rng_to_pmf(m, p, 5000, RandomStream(13))
    sup = pmf.settings["pmf_support"]
    w = pmf.param_shape.block("w")
    # unique support, frequencies near the true pmf
    assert len(np.unique(sup.rows[:, 0])) == len(sup)
    at2 = float(w[sup.rows[:, 0] == 2.0][0])
    assert at2 == pytest.approx(4 * math.exp(-2) / 2, abs=0.02)


def test_kde_smooth_is_a_density():
    m = normal_model()
    pmf = solvers.memoize_rng_to_pmf(m, m.param_shape, 400, RandomStream(2))
    sm = solvers.kde_smooth(pmf)
    xs = np.linspace(-6, 6, 1201).reshape(-1, 1)
    dens = np.exp(core.row_log_likelihood(sm, xs, sm.param_shape))
    mass = np.trapezoid(dens[:, 0] if dens.ndim > 1 else dens, xs[:, 0])
    assert mass == pytest.approx(1.0, abs=0.02)


def _kde_case(kernel_dim):
    from modelkit.distributions import mvn_model

    if kernel_dim == 1:
        m, p = normal_model(), Params.scalars(mu=0.5, sigma=1.5)
    else:
        m = mvn_model(2)
        p = Params([("mu", [0.5, -0.5]), ("cov", [1.0, 0.3, 0.3, 2.0])])
    pmf = solvers.memoize_rng_to_pmf(m, p, 300, RandomStream(2))
    sm = solvers.kde_smooth(pmf)
    kernel = normal_model() if kernel_dim == 1 else mvn_model(2)
    bw = solvers._silverman_bandwidth(kernel, pmf.settings["pmf_support"])
    support = pmf.settings["pmf_support"]
    w = pmf.param_shape.block("w")
    # reference: one kernel parameter set per support point
    kps = [kernel.param_shape.with_blocks(
        mu=row, **{n: bw.block(n) for n in bw.names}) for row in support.rows]
    return sm, kernel, kps, w / w.sum()


@pytest.mark.parametrize("kernel_dim", [1, 2])
def test_kde_logl_matches_a_per_support_point_loop(kernel_dim):
    sm, kernel, kps, w = _kde_case(kernel_dim)
    x = RandomStream(3).normal(size=(50, kernel_dim))
    comp = np.column_stack([kernel.logl(x, kp) for kp in kps]) + np.log(w)
    mx = np.max(comp, axis=1, keepdims=True)
    want = mx[:, 0] + np.log(np.sum(np.exp(comp - mx), axis=1))
    assert np.array_equal(core.row_log_likelihood(sm, x, sm.param_shape), want)


def test_kde_cdf_and_draws_match_a_per_support_point_loop():
    sm, kernel, kps, w = _kde_case(1)
    x = RandomStream(3).normal(size=(50, 1))
    want = np.column_stack([kernel.cdf(x, kp) for kp in kps]) @ w
    assert np.array_equal(sm.cdf(x, sm.param_shape), want)
    stream = RandomStream(4)
    idx = stream.choice(len(kps), p=w, size=40)
    want = np.array([core.draw(kernel, kps[j], stream, 1)[0] for j in idx])
    got = core.draw(sm, sm.param_shape, RandomStream(4), 40)
    assert np.array_equal(got, want)


def test_numeric_gradient_and_hessian():
    f = lambda x: -x[0] ** 2 - 2 * x[1] ** 2 + x[0] * x[1]
    x = np.array([0.5, -0.5])
    g = solvers.numeric_gradient(f, x)
    assert g == pytest.approx([-1.0 - 0.5, 2.0 + 0.5], abs=1e-6)
    H = solvers.numeric_hessian(f, x)
    assert H == pytest.approx(np.array([[-2.0, 1.0], [1.0, -4.0]]), abs=1e-4)


def test_numeric_gradient_nonfinite_stencil():
    f = lambda x: math.sqrt(x[0]) if x[0] >= 0 else math.nan
    with pytest.raises(ModelError, match="stencil"):
        solvers.numeric_gradient(f, np.array([0.0]))
