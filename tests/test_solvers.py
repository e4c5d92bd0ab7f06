"""Solver layer: optimizers, samplers, inversion, memoization, derivatives."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from modelkit import (DataSet, McmcSettings, MleSettings, Model, ModelError,
                      Params, RandomStream, builtin, normal_model)
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


def _scipy_nelder_mead(f, x0, st):
    """scipy's Nelder-Mead maximizing f as solvers.nelder_mead did before
    its port: non-finite values become 1e300 to the minimizer."""
    def neg(x):
        v = f(x)
        return -v if np.isfinite(v) else 1e300

    res = optimize.minimize(neg, x0, method="Nelder-Mead",
                            options={"xatol": st.tolerance, "fatol": st.tolerance,
                                     "maxiter": st.max_iter, "maxfev": st.max_iter})
    return res.x, -float(res.fun), int(res.nit), bool(res.success)


def _as_tuple(res):
    return res.x, res.value, res.iterations, res.converged


def _same(a, b) -> bool:
    """Equal x, value, iterations and success flag, bit for bit."""
    return (a[0].tobytes() == b[0].tobytes() and a[1].hex() == b[1].hex()
            and a[2:] == b[2:])


def _objective(kind, centre):
    if kind == "quadratic":
        return lambda x: -float(np.sum((x - centre) ** 2))
    if kind == "abs":  # non-smooth: a kink along every axis through the centre
        return lambda x: -float(np.sum(np.abs(x - centre)))
    if kind == "steps":  # flat terraces, on which contractions fail and shrink
        return lambda x: -float(np.sum(np.floor(4.0 * np.abs(x - centre))))
    # walled: a quadratic whose maximum lies beyond a wall of -inf (1e300
    # to the minimizer) at x[0] = centre[0] - 0.5
    return lambda x: (-float(np.sum((x - centre) ** 2)) if x[0] <= centre[0] - 0.5
                      else -math.inf)


_COORD = st.floats(-4, 4).map(lambda v: round(v, 2))
_TOLERANCES = st.sampled_from([1e-8, 1e-3, 1e-12])
_CAPS = st.one_of(st.integers(1, 60), st.just(5000))


def _search(data, dim):
    """A drawn objective of each kind and a feasible start for it."""
    kind = data.draw(st.sampled_from(["quadratic", "abs", "steps", "walled"]))
    centre = np.array(data.draw(st.lists(_COORD, min_size=dim, max_size=dim)))
    # zero coordinates take scipy's 0.00025 step instead of the 5% one
    x0 = np.array(data.draw(st.lists(st.one_of(st.just(0.0), _COORD),
                                     min_size=dim, max_size=dim)))
    if kind == "walled":
        x0[0] = min(x0[0], centre[0] - 0.5)
    return _objective(kind, centre), x0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), tol=_TOLERANCES, cap=_CAPS)
def test_nelder_mead_is_scipys_nelder_mead_property(data, tol, cap):
    f, x0 = _search(data, data.draw(st.integers(1, 4)))
    s = MleSettings(tolerance=tol, max_iter=cap)
    assert _same(_as_tuple(solvers.nelder_mead(f, x0, s)), _scipy_nelder_mead(f, x0, s))


def _lockstep(fs, starts, s):
    """nelder_mead_lockstep of the objectives fs from the rows of starts,
    each round's values as one float array."""
    def score(which, X):
        return np.array([fs[j](x) for j, x in zip(which.tolist(), X)])
    return solvers.nelder_mead_lockstep(score, starts, s)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tol=_TOLERANCES, cap=_CAPS)
def test_lockstep_searches_are_the_single_searches_property(data, tol, cap):
    # up to 12 dimensions, so the centroid sums over up to 12 vertices
    dim = data.draw(st.integers(1, 12))
    fs, starts = zip(*[_search(data, dim) for _ in range(data.draw(st.integers(1, 8)))])
    s = MleSettings(tolerance=tol, max_iter=cap)
    got = _lockstep(fs, np.array(starts), s)
    for f, x0, res in zip(fs, starts, got):
        assert _same(_as_tuple(res), _as_tuple(solvers.nelder_mead(f, x0, s)))


@pytest.mark.parametrize("x0", [[0.0, 1.0, -2.0], [-1.0, -4.0, -1.0]])
def test_every_evaluation_cap_stops_nelder_mead_where_scipy_stops(x0):
    """Caps from 1 up past the full run stop it inside the initial simplex,
    between the steps of an iteration and between the points of a shrink."""
    f = _objective("steps", np.array([1.0, -2.0, 0.5]))
    x0 = np.array(x0)
    calls = []
    full = solvers.nelder_mead(lambda x: calls.append(0) or f(x), x0,
                               MleSettings(tolerance=1e-6))
    evals = len(calls) - 1  # the first call checks the start
    # the initial simplex makes 4 evaluations, and an iteration without a
    # shrink at most two
    assert evals > 4 + 2 * (full.iterations - 1), "the run never shrinks"
    for cap in range(1, evals + 2):
        s = MleSettings(tolerance=1e-6, max_iter=cap)
        assert _same(_as_tuple(solvers.nelder_mead(f, x0, s)),
                     _scipy_nelder_mead(f, x0, s)), cap


def test_every_evaluation_cap_stops_lockstep_searches_where_single_searches_stop():
    """Caps from 1 up past the longest run stop the searches inside the
    initial simplex, between the steps of an iteration and between the
    points of a shrink."""
    f = _objective("steps", np.array([1.0, -2.0, 0.5]))
    starts = np.array([[0.0, 1.0, -2.0], [-1.0, -4.0, -1.0], [2.5, 0.0, 3.0]])
    longest = 0
    for x0 in starts:
        calls = []
        full = solvers.nelder_mead(lambda x: calls.append(0) or f(x), x0,
                                   MleSettings(tolerance=1e-6))
        evals = len(calls) - 1  # the first call checks the start
        assert evals > 4 + 2 * (full.iterations - 1), "the run never shrinks"
        longest = max(longest, evals)
    for cap in range(1, longest + 2):
        s = MleSettings(tolerance=1e-6, max_iter=cap)
        got = _lockstep([f] * 3, starts, s)
        for x0, res in zip(starts, got):
            assert _same(_as_tuple(res), _as_tuple(solvers.nelder_mead(f, x0, s))), cap


def test_nelder_mead_scores_copies_of_its_points():
    def f(x):
        v = -float(np.sum((x - 1.0) ** 2))
        x[:] = 1e6  # a caller that writes to its argument changes nothing
        return v

    s = MleSettings(max_iter=60)
    want = solvers.nelder_mead(lambda x: -float(np.sum((x - 1.0) ** 2)),
                               np.array([3.0, 2.0]), s)
    assert _same(_as_tuple(solvers.nelder_mead(f, np.array([3.0, 2.0]), s)),
                 _as_tuple(want))


def test_lockstep_searches_are_the_single_searches():
    fs = [_objective("quadratic", np.array([1.0, 2.0])),
          _objective("abs", np.array([-1.0, 0.5])),
          _objective("walled", np.array([3.0, 0.0])),
          lambda x: -math.inf,  # an infeasible start
          _objective("quadratic", np.array([0.0, 0.0])),
          None]  # an error at the start
    starts = np.array([[0.0, 0.0], [2.0, 2.0], [0.5, 1.0], [0.0, 0.0], [0.0, 0.0],
                       [1.0, 1.0]])
    s = MleSettings(tolerance=1e-10, max_iter=400)
    rounds, points = [], []

    def score(which, X):
        rounds.append(which.tolist())
        points.append(X.copy())
        assert X.shape == (len(which), 2)
        out = [fs[j](x) if fs[j] else ModelError("probe: no value here")
               for j, x in zip(which.tolist(), X)]
        if len(rounds) == 20:  # search 4 fails in its 19th round
            out[which.tolist().index(4)] = ModelError("probe: evaluation failed")
        return out

    got = solvers.nelder_mead_lockstep(score, starts, s)
    calls = []
    for j in (0, 1, 2):
        seen = []
        single = solvers.nelder_mead(lambda x: seen.append(x) or fs[j](x), starts[j], s)
        assert _same(_as_tuple(got[j]), _as_tuple(single))
        calls.append(len(seen))
    assert isinstance(got[3], ModelError) and "infeasible start" in str(got[3])
    assert isinstance(got[4], ModelError) and "evaluation failed" in str(got[4])
    assert isinstance(got[5], ModelError) and "no value here" in str(got[5])
    # a round of the starts, whose values are the first vertices', then one
    # round per further evaluation of the longest search, each scoring one
    # point of every search still running: the second round scores the
    # second vertices, the starts with their first coordinate moved.  A
    # single search scores its start twice, a lockstep one once
    assert rounds[0] == [0, 1, 2, 3, 4, 5] and rounds[1] == [0, 1, 2, 4]
    assert points[0].tobytes() == starts.tobytes()
    second = starts[[0, 1, 2, 4]]
    second[:, 0] = np.where(second[:, 0] != 0, 1.05 * second[:, 0], 0.00025)
    assert points[1].tobytes() == second.tobytes()
    assert len(rounds) == max(calls) - 1
    assert all(4 not in r for r in rounds[20:])


def test_annealing_skips_points_where_the_objective_is_not_finite():
    outside = []

    def f(x):
        if abs(x[0]) >= 1.0:
            outside.append(x[0])
            return -math.inf
        return -(x[0] - 0.5) ** 2

    res = solvers.simulated_annealing(f, np.array([0.0]), MleSettings(max_iter=200),
                                      RandomStream(5))
    assert outside  # proposals beyond the wall were drawn and skipped
    assert res.x[0] == pytest.approx(0.5, abs=1e-4) and math.isfinite(res.value)


def test_annealing_keeps_its_point_when_the_polish_scores_lower():
    calls = []

    def f(x):
        calls.append(1)
        # after the start and the 200 annealing steps every value drops by
        # 1, as a noisy objective's can
        return -(x[0] - 2.0) ** 2 - (1.0 if len(calls) > 201 else 0.0)

    res = solvers.simulated_annealing(f, np.array([0.0]), MleSettings(max_iter=200),
                                      RandomStream(5))
    assert res.iterations == 200 and res.converged
    assert res.value == -(res.x[0] - 2.0) ** 2 > -1.0


def test_importing_modelkit_loads_no_scipy():
    code = ("import sys, modelkit, modelkit.cli, modelkit.solvers; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(solvers.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
    target = lambda xs: stats.norm.logpdf(xs[:, 0], 3.0, 2.0)
    chain = solvers.metropolis(target, np.array([[0.0]]),
                               McmcSettings(burnin=500), RandomStream(7), 20000)
    xs = chain.samples[:, 0]
    assert xs.mean() == pytest.approx(3.0, abs=0.15)
    assert xs.std() == pytest.approx(2.0, abs=0.15)
    assert 0.1 < chain.acceptance_rate < 0.9


def test_metropolis_stuck_chain_detected():
    target = lambda xs: np.where(np.abs(xs[:, 0]) < 1e-12, 0.0, -np.inf)
    with pytest.raises(ModelError, match="stuck"):
        solvers.metropolis(target, np.array([[0.0]]),
                           McmcSettings(burnin=200, step_scale=1e6),
                           RandomStream(1), 100)


def test_metropolis_start_needs_a_row_per_chain():
    with pytest.raises(ModelError, match=r"x0 has shape \(1,\); .* \(K, dim\)"):
        solvers.metropolis(lambda xs: [0.0], np.array([0.0]))


def test_a_chain_whose_start_row_is_not_finite_starts_from_a_finite_row():
    # rows 1, 3 and 4 lie off the half-line x >= 0 and take the finite rows
    # 0 and 2 in turn: 0, 2, 0
    target = lambda xs: np.where(xs[:, 0] >= 0.0, -0.5 * xs[:, 0] ** 2, -np.inf)
    st = McmcSettings(burnin=100)
    starts = np.array([[0.5], [-1.0], [2.0], [-3.0], [-4.0]])
    got = solvers.metropolis(target, starts, st, RandomStream(2), 50)
    want = solvers.metropolis(target, starts[[0, 0, 2, 2, 0]], st, RandomStream(2), 50)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert starts[:, 0].tolist() == [0.5, -1.0, 2.0, -3.0, -4.0]  # the caller's rows
    with pytest.raises(ModelError, match="metropolis: target not finite at "
                                         "any of the 2 start rows"):
        solvers.metropolis(target, np.array([[-1.0], [-2.0]]))


def _scalar_metropolis(target, x0, st, stream, n_samples):
    """The one-chain loop that preceded lockstep chains, kept as the reference
    for the one-row path: target maps a vector to a float."""
    x = np.array(x0, dtype=float)
    dim = x.size
    lv = target(x)
    total = st.burnin + n_samples * st.thin
    samples = np.empty((n_samples, dim))
    accepted = 0
    kept = 0
    for i in range(total):
        cand = x + stream.normal(size=dim) * st.step_scale
        cv = target(cand)
        if math.isfinite(cv) and (cv >= lv or stream.uniform() < math.exp(cv - lv)):
            x, lv = cand, cv
            accepted += 1
        if i >= st.burnin and (i - st.burnin) % st.thin == 0 and kept < n_samples:
            samples[kept] = x
            kept += 1
    return samples, accepted / total


def _chainwise_metropolis(target, x0, st, stream, n_samples):
    """The lockstep loop as it was before a step's uniforms came from one
    stream call: chain by chain, one scalar uniform each, kept as the
    reference the loop must equal bit for bit.  Returns (samples, rate)."""
    x = np.array(x0, dtype=float)
    k, dim = x.shape
    lv = list(target(x))
    ok = [j for j in range(k) if math.isfinite(lv[j])]
    if not ok:
        raise ModelError(f"metropolis: target not finite at any of the {k} start rows")
    for i, j in enumerate(sorted(set(range(k)) - set(ok))):
        x[j], lv[j] = x[ok[i % len(ok)]], lv[ok[i % len(ok)]]
    per_chain = -(-n_samples // k)
    total = st.burnin + per_chain * st.thin
    samples = np.empty((per_chain, k, dim))
    accepted = [0] * k
    kept = 0
    for i in range(total):
        cand = x + stream.gen.normal(size=(k, dim)) * st.step_scale
        cv = target(cand)
        for j in range(k):
            c = cv[j]
            if math.isfinite(c) and (c >= lv[j] or
                                     stream.gen.uniform() < math.exp(c - lv[j])):
                x[j], lv[j] = cand[j], c
                accepted[j] += 1
        if i == st.burnin - 1 and 0 in accepted:
            j = accepted.index(0)
            raise ModelError(
                f"stuck chain {j} of {k}: 0 acceptances in {st.burnin} burnin steps "
                f"(log density {lv[j]:.3g}, step_scale {st.step_scale})")
        if i >= st.burnin and (i - st.burnin) % st.thin == 0:
            samples[kept] = x
            kept += 1
    rows = samples.transpose(1, 0, 2).reshape(k * per_chain, dim)
    return rows[:n_samples], sum(accepted) / (total * k)


def _rugged_target(walls, as_list):
    """A Normal log density over (K, dim) points, -inf beyond a wall on the
    sum of the coordinates, nan or +inf on some of its slopes, as a list or
    an array."""
    def target(xs):
        out = -0.5 * np.sum(xs * xs, axis=1)
        if "-inf" in walls:
            out[xs.sum(1) < -0.5] = -np.inf
        if "nan" in walls:
            out[xs[:, 0] > 1.25] = np.nan
        if "+inf" in walls:
            out[xs[:, -1] < -1.75] = np.inf
        return out.tolist() if as_list else out
    return target


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 8), dim=st.integers(1, 3), data=st.data(),
       burnin=st.integers(1, 40), thin=st.integers(1, 3),
       n=st.integers(1, 60), scale=st.sampled_from([0.3, 1.0, 2.5, 40.0]),
       walls=st.sets(st.sampled_from(["-inf", "nan", "+inf"])),
       as_list=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_lockstep_metropolis_is_the_chainwise_loop_property(
        k, dim, data, burnin, thin, n, scale, walls, as_list, seed):
    x0 = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.5]), min_size=dim, max_size=dim),
        min_size=k, max_size=k)))
    target = _rugged_target(walls, as_list)
    s = McmcSettings(burnin=burnin, step_scale=scale, thin=thin)
    try:
        want = _chainwise_metropolis(target, x0, s, RandomStream(seed), n)
    except ModelError as e:  # no finite start, or a stuck chain
        with pytest.raises(ModelError) as got:
            solvers.metropolis(target, x0, s, RandomStream(seed), n)
        assert str(got.value) == str(e)
        return
    chain = solvers.metropolis(target, x0, s, RandomStream(seed), n)
    assert chain.samples.tobytes() == want[0].tobytes()
    assert chain.acceptance_rate == want[1]


@pytest.mark.parametrize("logd", [
    lambda x: -0.5 * float(x @ x),
    # a -inf region: the half-space x[0] + x[1] < 0 is impossible
    lambda x: -float(x @ x) if x[0] + x[1] >= 0.0 else -math.inf,
], ids=["normal", "half-space"])
def test_one_row_metropolis_is_the_scalar_loop(logd):
    st = McmcSettings(burnin=300, step_scale=0.8, thin=3)
    x0 = np.array([0.5, 0.25])
    want, rate = _scalar_metropolis(logd, x0, st, RandomStream(11), 700)
    chain = solvers.metropolis(lambda xs: [logd(xs[0])], x0[None], st,
                               RandomStream(11), 700)
    assert chain.samples.tobytes() == want.tobytes()
    assert chain.acceptance_rate == rate


def test_lockstep_chains_share_one_target_call_per_step():
    k, n, st = 3, 10, McmcSettings(burnin=50, thin=2)
    calls = []

    def target(xs):
        calls.append(xs.shape)
        return -0.5 * (xs[:, 0] - 10.0 * np.arange(k)) ** 2

    starts = 10.0 * np.arange(k)[:, None]
    chain = solvers.metropolis(target, starts, st, RandomStream(3), n)
    # ceil(10 / 3) = 4 samples per chain, chain after chain, cut to 10 rows
    assert calls == [(k, 1)] * (1 + st.burnin + 4 * st.thin)
    assert chain.samples.shape == (n, 1)
    for j, rows in enumerate((chain.samples[:4], chain.samples[4:8], chain.samples[8:])):
        assert np.all(np.abs(rows[:, 0] - 10.0 * j) < 5.0)


def test_a_stuck_chain_is_detected_while_the_others_move():
    # chain 1 starts on a point mass; chains 0 and 2 walk a Normal, drawing
    # uniforms in the same steps; the error is the chainwise loop's
    def target(xs):
        out = -0.5 * xs[:, 0] ** 2
        out[1] = 0.0 if xs[1, 0] == 100.0 else -np.inf
        return out

    x0, s = np.array([[0.0], [100.0], [0.0]]), McmcSettings(burnin=200)
    with pytest.raises(ModelError) as want:
        _chainwise_metropolis(target, x0, s, RandomStream(1), 30)
    with pytest.raises(ModelError) as got:
        solvers.metropolis(target, x0, s, RandomStream(1), 30)
    assert str(got.value) == str(want.value) == (
        "stuck chain 1 of 3: 0 acceptances in 200 burnin steps "
        "(log density 0, step_scale 1.0)")


def test_one_likelihood_only_draw_is_the_scalar_chain():
    m = dataclasses.replace(builtin("normal"), rng=None, cdf=None, est=None)
    p = Params.scalars(mu=1.0, sigma=2.0)
    got = core.draw(m, p, RandomStream(3), 1)
    want, _ = _scalar_metropolis(
        lambda x: float(core.row_log_likelihood(m, x.reshape(1, -1), p)[0]),
        np.zeros(1), McmcSettings(), RandomStream(3), 1)
    assert got.tobytes() == want.tobytes()


def _ar1(r, n, seed):
    """n steps of the AR(1) series x[t] = r x[t - 1] + a standard Normal."""
    e = RandomStream(seed).normal(size=n)
    x = np.empty(n)
    x[0] = e[0]
    for t in range(1, n):
        x[t] = r * x[t - 1] + e[t]
    return x


def test_effective_sample_size_of_an_ar1_series():
    # AR(1) with coefficient r: the effective size is n (1 - r) / (1 + r)
    n = 40000
    x = _ar1(0.8, n, 2)
    assert solvers.effective_sample_size(x) == pytest.approx(n * 0.2 / 1.8, rel=0.15)
    iid = RandomStream(3).normal(size=5000)
    assert solvers.effective_sample_size(iid) == pytest.approx(5000, rel=0.15)
    assert solvers.effective_sample_size(np.full(10, 2.5)) == 1.0


@pytest.mark.parametrize("x", [np.array([0.0, 1.0] * 5), np.array([3.0, 1.0, 2.0]),
                               _ar1(-0.9, 1000, 4)], ids=["alternating", "three", "ar1-0.9"])
def test_effective_sample_size_of_an_antithetic_series_is_capped_at_n_log10_n(x):
    # Geyer's sum alone leaves an autocorrelation time near 0 here, and a
    # negative or infinite size; it is floored at 1 / log10(n)
    n = len(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers.effective_sample_size(x)
    assert got == pytest.approx(n * math.log10(n), rel=1e-12)
    assert math.ceil(n / got) >= 1  # check_ml_consistency's thinning step


def test_invert_cdf_quantiles():
    # one batch; test_invert_cdf_matches_the_scalar_loop holds invert_cdf_draw
    # equal to invert_cdf draw by draw
    draws = solvers.invert_cdf(stats.norm.cdf, RandomStream(5).uniform(size=2000))
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


def test_memoized_draws_keep_signed_zeros_apart_as_compressed_does():
    def rng(p, stream, n):
        return np.where(stream.uniform(size=(n, 1)) < 0.5, -0.0, 0.0)

    m = Model("signed_zero", 1, Params.scalars(a=0.0), rng=rng)
    n = 400
    pmf = solvers.memoize_rng_to_pmf(m, m.param_shape, n, RandomStream(3))
    sup = pmf.settings["pmf_support"]
    c = DataSet(core.draw(m, m.param_shape, RandomStream(3), n)).compressed()
    assert np.signbit(sup.rows[:, 0]).tolist() == [True, False]
    assert sup.rows.tobytes() == c.rows.tobytes()
    assert sup.weights.tobytes() == (c.weights / n).tobytes()


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
    support = pmf.settings["pmf_support"].rows
    # Silverman's bandwidth of each coordinate
    h = 1.06 * np.std(support, axis=0, ddof=1) * len(support) ** (-1 / 5)
    w = pmf.param_shape.block("w")
    # reference: per support point, one Normal parameter set per coordinate
    kps = [[Params.scalars(mu=c, sigma=hj) for c, hj in zip(row, h)]
           for row in support]
    return sm, normal_model(), kps, w / w.sum()


def _per_coordinate(element, x, kp):
    """element of each coordinate's Normal on that column of x, a list."""
    return [element(x[:, j:j + 1], q) for j, q in enumerate(kp)]


@pytest.mark.parametrize("kernel_dim", [1, 2])
def test_kde_logl_matches_a_per_support_point_loop(kernel_dim):
    sm, kernel, kps, w = _kde_case(kernel_dim)
    x = RandomStream(3).normal(size=(50, kernel_dim))
    comp = np.column_stack([sum(_per_coordinate(kernel.logl, x, kp))
                            for kp in kps]) + np.log(w)
    mx = np.max(comp, axis=1, keepdims=True)
    want = mx[:, 0] + np.log(np.sum(np.exp(comp - mx), axis=1))
    assert np.array_equal(core.row_log_likelihood(sm, x, sm.param_shape), want)


def test_kde_cdf_and_draws_match_a_per_support_point_loop():
    for kernel_dim in (1, 2):
        sm, kernel, kps, w = _kde_case(kernel_dim)
        x = RandomStream(3).normal(size=(50, kernel_dim))
        comp = np.column_stack([math.prod(_per_coordinate(kernel.cdf, x, kp))
                                for kp in kps])
        assert np.array_equal(sm.cdf(x, sm.param_shape), np.sum(comp * w, axis=1))
        assert sm.strategy["CDF"] == "closed-form"
        stream = RandomStream(4)
        idx = stream.choice(len(kps), p=w, size=40)
        want = np.array([[core.draw(kernel, q, stream, 1)[0, 0] for q in kps[j]]
                         for j in idx])
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


@pytest.mark.parametrize("call, message", [
    (lambda: solvers.simulated_annealing(lambda x: -math.inf, np.zeros(1)),
     "infeasible start: objective not finite at x0"),
    (lambda: solvers.memoize_rng_to_pmf(normal_model(), normal_model().param_shape, 0,
                                        RandomStream(0)),
     "memoize_rng_to_pmf: n must be positive"),
    (lambda: solvers.kde_smooth(normal_model()), "kde_smooth expects a PMF model"),
    (lambda: solvers.numeric_hessian(lambda x: math.nan, np.zeros(1)),
     r"non-finite objective at stencil point \[0\.\]"),
    (lambda: solvers.numeric_hessian(lambda x: -math.sqrt(x[0]) if x[0] >= 0 else math.nan,
                                     np.zeros(1)),
     r"non-finite objective at stencil point \[-"),
], ids=["annealing-start", "memoize-n", "kde-pmf", "hessian-centre", "hessian-stencil"])
def test_solver_errors_name_their_cause(call, message):
    with pytest.raises(ModelError, match=message):
        call()
