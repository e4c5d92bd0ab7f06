"""Transforms: each morphism checked against hand-derived values."""

import dataclasses
import functools
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, stats

from modelkit import (DataSet, MleSettings, Model, ModelError, Params,
                      RandomStream, UnresolvableElementError, builtin, cross,
                      d_compose, dp_compose, estimate, fix, jacobian, ks_stat, mix,
                      mix_cdf, mvn_model, normal_model, pd_compose, pmf_model,
                      posterior_draws, row_log_likelihood, swap, truncate)
from modelkit import expr, transforms
from modelkit import model as core


def logl1(m, x, p=None):
    p = p or m.param_shape
    return float(row_log_likelihood(m, np.atleast_2d(np.asarray(x, float)), p)[0])


@pytest.mark.parametrize("method", ["nelder_mead", "annealing",
                                    "coordinate_cycle"])
def test_fix_pins_and_estimates_the_rest(method):
    m = normal_model()
    fx = fix(m, m.param_shape.pin(sigma=2.0))
    d = DataSet(np.array([[0.0], [4.0]]))
    fit = estimate(fx, d, MleSettings(method=method))
    assert fit.params.scalar("sigma") == 2.0
    assert fit.params.scalar("mu") == pytest.approx(2.0, abs=1e-6)


_PINNED_CATALOG = {
    # name: (true values in layout order, the entry pinned)
    "normal": ([1.0, 2.0], 0),
    "exponential": ([1.5], 0),
    "poisson": ([3.0], 0),
    "beta": ([2.0, 3.0], 1),
    "uniform": ([-1.0, 2.0], 0),
    "weibull": ([1.5, 2.0], 0),
    "multivariate_normal": ([0.5, -1.0, 2.0, 0.3, 0.3, 1.0], 3),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CATALOG))
def test_fix_then_estimate_returns_the_pinned_entry_unchanged(name):
    m = builtin(name)
    values, at = _PINNED_CATALOG[name]
    truth = m.param_shape.replace(values)
    mask = np.arange(len(values)) == at
    pinned = Params([(n, truth.block(n)) for n in truth.names], mask)
    draws = core.draw(m, truth, RandomStream(31), 300)
    fit = estimate(fix(m, pinned), DataSet(draws))
    assert fit.converged and fit.params.fixed_mask.tolist() == mask.tolist()
    assert fit.params.vector[at].tobytes() == truth.vector[at].tobytes()


def test_fix_delegates_likelihood():
    m = normal_model()
    fx = fix(m, m.param_shape.pin(sigma=1.0))
    assert logl1(fx, 0.5, fx.param_shape) == pytest.approx(
        logl1(m, 0.5), abs=1e-12)


def test_cross_sums_component_likelihoods():
    a, b = builtin("normal"), builtin("exponential")
    c = cross([a, b])
    assert c.data_dim == 2
    assert c.param_shape.labels() == ["0.mu", "0.sigma", "1.mu"]
    v = logl1(c, [0.3, 1.5], c.param_shape)
    assert v == pytest.approx(logl1(a, 0.3) + logl1(b, 1.5), abs=1e-12)


def test_cross_componentwise_estimation():
    c = cross([normal_model(), builtin("exponential")])
    rows = np.column_stack([np.array([0.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0])])
    fit = estimate(c, DataSet(rows))
    assert fit.params.scalar("0.mu") == pytest.approx(2.0, abs=1e-12)
    assert fit.params.scalar("1.mu") == pytest.approx(2.0, abs=1e-12)


_CROSS_PARTS = ("normal", "exponential", "poisson", "beta", "uniform", "weibull")


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(_CROSS_PARTS), min_size=3, max_size=3),
       st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6),
       st.integers(0, 2 ** 16))
def test_cross_is_associative_property(names, scale, seed):
    a, b, c = (builtin(n) for n in names)
    left = cross([a, cross([b, c])])
    right = cross([cross([a, b]), c])
    # positive multiples of the catalog defaults stay feasible
    vec = left.param_shape.flatten() * np.resize(scale, len(left.param_shape))
    pl, pr = left.param_shape.replace(vec), right.param_shape.replace(vec)
    rows = core.draw(left, pl, RandomStream(seed), 4)
    assert row_log_likelihood(left, rows, pl) == pytest.approx(
        row_log_likelihood(right, rows, pr), rel=1e-12)
    assert core.cdf(left, rows, pl) == pytest.approx(
        core.cdf(right, rows, pr), rel=1e-12)


def test_mix_likelihood_is_convex_combination():
    m = mix([builtin("normal"), builtin("normal")], weights=[0.25, 0.75])
    p = m.param_shape.replace([0.0, 1.0, 3.0, 1.0, 0.25, 0.75])
    want = 0.25 * stats.norm.pdf(1.0, 0, 1) + 0.75 * stats.norm.pdf(1.0, 3, 1)
    assert math.exp(logl1(m, 1.0, p)) == pytest.approx(want, abs=1e-12)


def test_mix_em_separates_two_normals():
    stream = RandomStream(11)
    a = stream.normal(-3.0, 0.5, size=300)
    b = stream.normal(3.0, 0.5, size=700)
    d = DataSet(np.concatenate([a, b]).reshape(-1, 1))
    m = mix([normal_model(), normal_model()])
    fit = estimate(m, d)
    mus = sorted([fit.params.scalar("0.mu"), fit.params.scalar("1.mu")])
    assert mus[0] == pytest.approx(-3.0, abs=0.15)
    assert mus[1] == pytest.approx(3.0, abs=0.15)
    w = np.sort(fit.params.block("w"))
    assert w[0] == pytest.approx(0.3, abs=0.05)


def test_mix_em_skips_a_component_that_scores_no_row():
    # an exponential gives negative data zero density, so EM leaves it at
    # its start, with weight 0, and the Normal fits every row
    x = -0.1 - np.abs(RandomStream(5).normal(-3.0, 1.0, size=40))
    m = mix([normal_model(), builtin("exponential")])
    start = builtin("exponential").est(DataSet(np.sort(x)[20:].reshape(-1, 1)))
    fit = estimate(m, DataSet(x.reshape(-1, 1)))
    assert fit.params.block("w").tolist() == [1.0, 0.0]
    assert fit.params.scalar("0.mu") == pytest.approx(x.mean(), rel=1e-12)
    assert fit.params.scalar("0.sigma") == pytest.approx(x.std(), rel=1e-12)
    assert fit.params.scalar("1.mu") == start.scalar("mu")


def test_mix_em_raises_on_a_row_no_component_can_score():
    # both exponentials give -1.5 zero density, so the row has no
    # responsibilities; EM names the mix, the element and the row
    x = np.r_[RandomStream(6).uniform(0.1, 3.0, size=30), -1.5].reshape(-1, 1)
    m = mix([builtin("exponential"), builtin("exponential")])
    with pytest.raises(ModelError, match=re.escape(
            "mix(exponential, exponential): element Est: every component "
            "gives row [-1.5] zero likelihood")):
        estimate(m, DataSet(x))


def test_mix_em_leaves_out_rows_of_weight_zero():
    # the lower half weighs 0, so the first chunk EM starts from has no row
    # of positive weight
    x = np.sort(RandomStream(12).normal(0.0, 2.0, size=100)).reshape(-1, 1)
    m = mix([normal_model(), normal_model()])
    got = estimate(m, DataSet(x, np.r_[np.zeros(50), np.ones(50)]))
    want = estimate(m, DataSet(x[50:]))
    assert got.params.flatten().tobytes() == want.params.flatten().tobytes()


def test_truncate_renormalizes():
    t = truncate(normal_model(), (0.0, None))
    p = Params.scalars(mu=1.0, sigma=1.0)
    # ln[ phi(0) / (1 - Phi(-1)) ], frozen
    assert logl1(t, 1.0, p) == pytest.approx(-0.7461847541812228, abs=1e-9)
    assert logl1(t, -0.5, p) == -np.inf
    draws = core.draw(t, p, RandomStream(5), 2000)
    assert draws.min() >= 0.0


def test_truncate_from_above_renormalizes():
    t = truncate(normal_model(), (None, 0.5))
    p = Params.scalars(mu=0.0, sigma=1.0)
    want = stats.norm.logpdf(0.0) - stats.norm.logcdf(0.5)
    assert logl1(t, 0.0, p) == pytest.approx(want, abs=1e-9)
    assert logl1(t, 0.7, p) == -np.inf
    got = core.cdf(t, np.array([[0.0], [2.0]]), p)
    assert got == pytest.approx([0.5 / stats.norm.cdf(0.5), 1.0], abs=1e-9)


_SUPPORT4 = DataSet(np.arange(4.0))


@pytest.mark.parametrize("m, p, region, support", [
    (builtin("poisson"), Params.scalars(lam=1.0), (1.5, None), np.arange(60.0)),
    (builtin("poisson"), Params.scalars(lam=3.0), (2.0, None), np.arange(60.0)),
    (builtin("poisson"), Params.scalars(lam=3.0), (1.5, 4.0), np.arange(60.0)),
    (pmf_model(_SUPPORT4), None, (1.5, None), np.arange(4.0)),
    (pmf_model(_SUPPORT4), None, (1.0, 2.5), np.arange(4.0)),
    (pmf_model(DataSet([0.0, 0.5, 1.0])), None, (0.7, None), np.array([0.0, 0.5, 1.0])),
], ids=["poisson-1.5", "poisson-2", "poisson-1.5-4", "pmf-1.5", "pmf-1-2.5", "pmf-0.7"])
def test_truncating_a_discrete_model_renormalizes_at_any_bound(m, p, region, support):
    p = p or m.param_shape
    t = truncate(m, region)
    x = support.reshape(-1, 1)
    base = np.exp(row_log_likelihood(m, x, p))
    kept = (support >= region[0]) & (support <= (region[1] or np.inf))
    got = np.exp(row_log_likelihood(t, x, p))
    assert got.tolist() == pytest.approx((np.where(kept, base, 0.0) / base[kept].sum()).tolist(),
                                         rel=1e-12, abs=1e-300)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    # the CDF climbs from 0 below the bound to 1 at the last support point
    below = core.cdf(t, x, p)
    assert np.all(below[support < region[0]] == 0.0)
    assert below[-1] == pytest.approx(1.0, abs=1e-12)
    assert below[kept].tolist() == pytest.approx(np.cumsum(got[kept]).tolist(), abs=1e-12)


_BOUND = st.one_of(st.none(), st.integers(-12, 32).map(lambda v: v / 4))


def _bounds(data, lo_min):
    """An interval (lo, hi), None for an open end, with lo <= hi."""
    lo, hi = data.draw(_BOUND), data.draw(_BOUND)
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
    return (max(lo, lo_min) if lo is not None else None), hi


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mu=st.integers(-4, 4).map(lambda v: v / 4),
       sigma=st.sampled_from([0.4, 1.0, 2.5]))
def test_truncated_normal_density_integrates_to_one_property(data, mu, sigma):
    lo, hi = _bounds(data, -3.0)
    cdf = stats.norm(mu, sigma).cdf
    assume((1.0 if hi is None else cdf(hi)) - (0.0 if lo is None else cdf(lo)) > 1e-4)
    t, p = truncate(normal_model(), (lo, hi)), Params.scalars(mu=mu, sigma=sigma)
    total, _ = integrate.quad(lambda x: math.exp(logl1(t, x, p)),
                              -np.inf if lo is None else lo, np.inf if hi is None else hi,
                              epsabs=1e-11, epsrel=1e-11)
    assert total == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lam=st.sampled_from([0.3, 1.0, 2.8, 7.5]))
def test_truncated_poisson_mass_sums_to_one_property(data, lam):
    lo, hi = _bounds(data, -1.0)
    k = np.arange(120.0)
    inside = (k >= (-np.inf if lo is None else lo)) & (k <= (np.inf if hi is None else hi))
    assume(stats.poisson.pmf(k[inside], lam).sum() > 1e-4)
    t, p = truncate(builtin("poisson"), (lo, hi)), Params.scalars(lam=lam)
    got = np.exp(row_log_likelihood(t, k.reshape(-1, 1), p))
    assert np.all(got[~inside] == 0.0)
    assert got.sum() == pytest.approx(1.0, abs=1e-10)


def test_a_truncated_pmf_is_not_compared_as_its_base():
    m = pmf_model(_SUPPORT4)
    t = truncate(m, (1.5, None))
    assert "pmf_support" not in t.settings
    with pytest.raises(ModelError, match="comparison metrics need PMF models"):
        ks_stat(t, m)


def test_a_transform_shares_its_bases_read_only_parameters():
    base = normal_model()
    pinned = base.param_shape.pin(sigma=1.0)
    models = [truncate(base, (0.0, None)), jacobian(base, np.exp, np.log),
              mix_cdf(base, pmf_model(DataSet([[0.0]]))),
              pd_compose(base, fix(base, pinned))]
    for m in models:
        assert m.param_shape is base.param_shape
    assert fix(base, pinned).param_shape is pinned
    for m in models:
        with pytest.raises(ValueError, match="read-only"):
            m.param_shape.block("mu")[0] = 5.0
    assert base.param_shape.scalar("mu") == 0.0


def test_truncations_of_one_base_keep_their_own_mass():
    m = normal_model()
    p = Params.scalars(mu=0.0, sigma=1.0)
    at0, at1 = truncate(m, (0.0, None)), truncate(m, (1.0, None))
    logl1(at0, 1.5, p)
    # ln[ phi(1.5) / (1 - Phi(1)) ], not the mass of the region x >= 0
    want = stats.norm.logpdf(1.5) - stats.norm.logsf(1.0)
    assert logl1(at1, 1.5, p) == pytest.approx(want, abs=1e-9)


def test_truncate_to_a_predicate_region_uses_monte_carlo_mass():
    m = normal_model()
    p = Params.scalars(mu=0.0, sigma=1.0)
    t = truncate(m, lambda rows: np.abs(rows[:, 0]) <= 1.0)
    assert t.strategy["CDF"] == "empirical draws"
    x = np.array([[-2.0], [-0.5], [0.0], [0.9], [1.5]])
    got = row_log_likelihood(t, x, p)
    assert np.all(np.isneginf(got[[0, 4]]))
    # the seeded Monte Carlo mass of |x| <= 1 is within 0.02 of the exact one
    mass = np.exp(row_log_likelihood(m, x[1:4], p) - got[1:4])
    exact = stats.norm.cdf(1.0) - stats.norm.cdf(-1.0)
    assert np.ptp(mass) < 1e-12
    assert mass[0] == pytest.approx(exact, abs=0.02)
    assert np.array_equal(row_log_likelihood(t, x, p), got)
    draws = core.draw(t, p, RandomStream(3), 500)
    assert np.all(np.abs(draws) <= 1.0)


def test_truncate_tiny_region_errors():
    t = truncate(normal_model(), (50.0, None))
    with pytest.raises(ModelError, match="mass"):
        core.draw(t, Params.scalars(mu=0.0, sigma=1.0), RandomStream(1), 10)


def test_truncated_logl_raises_where_the_region_mass_is_too_small():
    # 1 - Phi(50) is 0 in floating point, so the renormalizing mass is <= 1e-12
    t = truncate(normal_model(), (50.0, None))
    with pytest.raises(ModelError, match="region mass too small"):
        row_log_likelihood(t, np.array([[49.0], [60.0]]), Params.scalars(mu=0.0, sigma=1.0))


def test_truncated_sampler_gives_up_after_a_thousand_misses():
    batches = []
    base = normal_model()

    def rng(p, stream, n):
        batches.append(n)
        return base.rng(p, stream, n)

    # a predicate region no Normal draw falls in; the sampler never asks
    # for the region mass
    t = truncate(dataclasses.replace(base, rng=rng), lambda rows: rows[:, 0] > 50.0)
    with pytest.raises(ModelError, match="region mass too small"):
        core.draw(t, Params.scalars(mu=0.0, sigma=1.0), RandomStream(1), 10)
    # batches of max(n, 16) draws until 1,000 draws in a row missed
    assert batches == [16] * 63


def test_truncated_logl_of_rows_outside_the_region_skips_the_mass():
    # the mass of x >= 50 would raise, but no row needs it
    t = truncate(normal_model(), (50.0, None))
    got = row_log_likelihood(t, np.array([[-1.0], [0.0], [49.0]]),
                             Params.scalars(mu=0.0, sigma=1.0))
    assert got.shape == (3,) and np.all(np.isneginf(got))


def _counting_cdf(m, calls):
    """m with its CDF wrapped to record the number of rows of every call."""
    import dataclasses

    def cdf(points, p):
        calls.append(points.shape[0])
        return m.cdf(points, p)
    return dataclasses.replace(m, cdf=cdf)


def test_transform_cdfs_call_each_base_once_per_batch():
    n = 2000
    s = RandomStream(12)
    x, y = s.uniform(-3.0, 5.0, n), s.uniform(0.0, 8.0, n)
    a_calls, b_calls, c_calls, t_calls, k_calls = [], [], [], [], []
    a = _counting_cdf(normal_model(), a_calls)
    b = _counting_cdf(builtin("exponential"), b_calls)
    cr = cross([a, b])
    got = core.cdf(cr, np.column_stack([x, y]), cr.param_shape.replace([1.0, 1.0, 2.0]))
    want = stats.norm.cdf(x, 1.0, 1.0) * stats.expon.cdf(y, scale=2.0)
    assert np.max(np.abs(got - want)) <= 1e-12
    c = _counting_cdf(normal_model(), c_calls)
    mx = mix([a, c], weights=[0.3, 0.7])
    got = core.cdf(mx, x.reshape(-1, 1), mx.param_shape.replace([-1.0, 1.0, 2.0, 0.5, 0.3, 0.7]))
    want = 0.3 * stats.norm.cdf(x, -1.0, 1.0) + 0.7 * stats.norm.cdf(x, 2.0, 0.5)
    assert np.max(np.abs(got - want)) <= 1e-12
    tr = truncate(_counting_cdf(normal_model(), t_calls), (0.0, 3.0))
    got = core.cdf(tr, x.reshape(-1, 1), Params.scalars(mu=1.0, sigma=1.0))
    lo, hi = stats.norm.cdf([0.0, 3.0], 1.0, 1.0)
    want = np.clip((stats.norm.cdf(np.minimum(x, 3.0), 1.0, 1.0) - lo) / (hi - lo), 0, 1)
    assert np.max(np.abs(np.where(x < 0.0, 0.0, want) - got)) <= 1e-12
    body = truncate(_counting_cdf(normal_model(), k_calls), (0.0, None))
    mc = mix_cdf(body, pmf_model(DataSet(np.zeros((1, 1)))))
    core.cdf(mc, x.reshape(-1, 1), Params.scalars(mu=1.0, sigma=1.0))
    # one call over all n points per use of the base, plus the region mass
    assert max(a_calls) == max(b_calls) == max(c_calls) == n
    assert len(b_calls) <= 2 and len(c_calls) <= 2 and len(a_calls) <= 4
    assert len(t_calls) <= 5 and len(k_calls) <= 5


def test_mix_cdf_atom_and_body():
    t = truncate(normal_model(), (0.0, None))
    m = mix_cdf(t, pmf_model(DataSet(np.zeros((1, 1)))))
    p = Params.scalars(mu=1.0, sigma=1.0)
    w = stats.norm.cdf(-1.0)
    assert math.exp(logl1(m, 0.0, p)) == pytest.approx(w, abs=1e-12)
    # atom weight times renormalized body collapses back to the base density
    assert math.exp(logl1(m, 1.0, p)) == pytest.approx(
        stats.norm.pdf(0.0), abs=1e-9)
    draws = core.draw(m, p, RandomStream(9), 4000)
    assert np.mean(draws == 0.0) == pytest.approx(w, abs=0.02)


def test_jacobian_reciprocal_density():
    j = jacobian(builtin("exponential"), lambda x: 1.0 / x, lambda y: 1.0 / y)
    p = Params.scalars(mu=1.0)
    # y = 1/x at y = 0.5: f(2) * |d/dy (1/y)| = e^-2 * 4
    assert math.exp(logl1(j, 0.5, p)) == pytest.approx(
        math.exp(-2.0) * 4.0, abs=1e-8)


def test_jacobian_group_law():
    base = builtin("exponential")
    cube = jacobian(base, lambda x: x ** 3, lambda y: y ** (1.0 / 3.0))
    both = jacobian(cube, lambda x: 1.0 / x, lambda y: 1.0 / y)
    direct = jacobian(base, lambda x: x ** -3, lambda y: y ** (-1.0 / 3.0))
    p = Params.scalars(mu=1.0)
    probes = np.linspace(0.2, 5.0, 100).reshape(-1, 1)
    a = row_log_likelihood(both, probes, p)
    b = row_log_likelihood(direct, probes, p)
    assert np.max(np.abs(a - b)) < 1e-10


def test_jacobian_draws_and_estimates_through_the_map():
    base = normal_model()
    lognormal = jacobian(base, np.exp, np.log)
    p = Params.scalars(mu=0.5, sigma=0.8)
    draws = core.draw(lognormal, p, RandomStream(4), 300)
    np.testing.assert_allclose(
        draws, np.exp(core.draw(base, p, RandomStream(4), 300)), rtol=1e-15)
    fit = estimate(lognormal, DataSet(draws))
    want = estimate(base, DataSet(np.log(draws)))
    assert np.allclose(fit.params.flatten(), want.params.flatten(),
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("base", [builtin("exponential"),
                                  builtin("multivariate_normal")])
def test_jacobian_central_difference_fallback(base):
    # np.cbrt has no complex loop, so its Jacobian takes central differences
    with pytest.raises(TypeError):
        np.cbrt(np.array([1j]))
    fallback = jacobian(base, lambda x: x ** 3, np.cbrt)
    complex_step = jacobian(base, lambda x: x ** 3, lambda y: y ** (1.0 / 3.0))
    p = base.param_shape
    ys = RandomStream(12).uniform(0.2, 5.0, size=(40, base.data_dim))
    a = row_log_likelihood(fallback, ys, p)
    assert np.max(np.abs(a - row_log_likelihood(complex_step, ys, p))) < 1e-6
    # closed form: x = y^(1/3) under the base, |dx_j/dy_j| = y_j^(-2/3) / 3
    want = (row_log_likelihood(base, np.cbrt(ys), p)
            - np.sum(math.log(3.0) + (2.0 / 3.0) * np.log(ys), axis=1))
    assert np.max(np.abs(a - want)) < 1e-6


def test_jacobian_inconsistent_inverse_detected():
    j = jacobian(builtin("exponential"), lambda x: x ** 2, lambda y: y)
    with pytest.raises(ModelError, match="inverse"):
        logl1(j, 2.0, Params.scalars(mu=1.0))


def test_swap_evaluates_parameters_as_data():
    m = normal_model()
    s = swap(m)
    assert s.data_dim == 2
    v = float(row_log_likelihood(s, np.array([[1.0, 2.0]]),
                                 Params([("d", [0.5])]))[0])
    assert v == pytest.approx(stats.norm.logpdf(0.5, 1.0, 2.0), abs=1e-12)
    # constraint-violating rows (sigma <= 0) are impossible, not errors
    v = float(row_log_likelihood(s, np.array([[1.0, -2.0]]),
                                 Params([("d", [0.5])]))[0])
    assert v == -np.inf


def test_d_compose_pinned_is_deterministic():
    dc = d_compose(normal_model(), builtin("exponential"), n_draws=50)
    p = dc.param_shape.replace([2.0, 3.0, 0.5])
    v1 = core.log_likelihood(dc, DataSet(np.empty((0, 0))), p)
    v2 = core.log_likelihood(dc, DataSet(np.empty((0, 0))), p)
    assert v1 == v2
    assert np.isfinite(v1) or v1 == -np.inf


def test_d_compose_parameter_space_is_product():
    dc = d_compose(normal_model(), builtin("exponential"))
    assert dc.param_shape.labels() == ["to.mu", "from.mu", "from.sigma"]
    assert dc.data_dim == 0


def _posterior_mean_var(prior, n):
    """Posterior mean and variance of mu in N(mu, 1) given the datum 2.

    The prior runs at mu=0, sigma=1; for a N(0, 1) prior the closed form is
    N(1, 1/2).
    """
    like = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    post = dp_compose(prior, like, Params.scalars(mu=0.0, sigma=1.0))
    pd = posterior_draws(post, DataSet(np.array([[2.0]])), n, RandomStream(21))
    sup = pd.settings["pmf_support"]
    w = pd.param_shape.block("w")
    w = w / w.sum()
    mean = float(w @ sup.rows[:, 0])
    return mean, float(w @ (sup.rows[:, 0] - mean) ** 2)


def test_dp_compose_conjugate_posterior():
    mean, var = _posterior_mean_var(normal_model(), 4000)
    assert mean == pytest.approx(1.0, abs=0.05)
    assert var == pytest.approx(0.5, abs=0.05)


def test_sampler_only_prior_takes_weighted_prior_draws():
    # relabelled so the conjugate shortcut is skipped; with only a sampler
    # the prior's likelihood is a memoized PMF, useless as an MH target
    prior = dataclasses.replace(normal_model(), label="normal_rng",
                                logl=None, est=None, cdf=None)
    assert prior.strategy["L"] == "memoized PMF"
    mean, var = _posterior_mean_var(prior, 2000)
    assert mean == pytest.approx(1.0, abs=0.1)
    assert var == pytest.approx(0.5, abs=0.1)


@pytest.mark.parametrize("like, rho, rows", [
    # a Normal prior over sigma, with the mean pinned
    (fix(normal_model(), normal_model().param_shape.pin(mu=0.0)),
     Params.scalars(mu=1.0, sigma=0.3), [[0.5], [-1.2], [0.8]]),
    # a Normal prior over an exponential's mean
    (builtin("exponential"), Params.scalars(mu=2.0, sigma=0.5), [[1.0], [2.5], [0.7]]),
    # a likelihood labelled "normal" whose parameters have no "mu"
    (Model("normal", 1, Params.scalars(loc=0.0),
           logl=lambda rows, p: -0.5 * (rows[:, 0] - p.scalar("loc")) ** 2),
     Params.scalars(mu=0.0, sigma=1.0), [[1.0], [2.0]]),
], ids=["normal-sigma", "exponential-mean", "normal-label-without-mu"])
def test_posterior_without_a_conjugate_form_is_the_mh_posterior(like, rho, rows):
    d = DataSet(np.array(rows))
    post = dp_compose(normal_model(), like, rho)
    forced = post.with_settings(posterior_strategy="mh")
    got = posterior_draws(post, d, 200, RandomStream(6))
    want = posterior_draws(forced, d, 200, RandomStream(6))
    assert np.array_equal(got.settings["pmf_support"].rows,
                          want.settings["pmf_support"].rows)
    assert np.array_equal(got.param_shape.block("w"), want.param_shape.block("w"))


def test_dp_compose_scores_no_data_where_the_prior_is_impossible():
    scored = []

    def logl(rows, p):
        scored.append(p.scalar("lam"))
        return np.zeros(rows.shape[0])

    like = Model("flat", 1, Params.scalars(lam=1.0), logl=logl)
    prior = truncate(normal_model(), (0.0, None))
    post = dp_compose(prior, like, Params.scalars(mu=2.0, sigma=1.0))
    d = DataSet(np.array([[1.0], [3.0]]))
    assert core.log_likelihood(post, d, Params([("p", [-0.5])])) == -np.inf
    assert scored == []
    assert np.isfinite(core.log_likelihood(post, d, Params([("p", [0.5])])))
    assert scored == [0.5]
    # a likelihood model without a constraint constrains nothing
    assert post.constraint(Params([("p", [-0.5])])) == 0.0


def test_dp_compose_constraint_is_the_likelihood_models():
    # the poisson-update pipeline's model: a prior truncated at 0, so a
    # negative rate scores -inf and breaks the Poisson constraint
    post = expr.eval_model_expr(expr.parse_model_expr(
        "dpcompose(truncate(normal(mu=2, sigma=1), min=0), poisson)"))
    d = DataSet(np.array([[1.0], [3.0]]))
    neg, pos = Params([("p", [-0.5])]), Params([("p", [2.0])])
    assert core.log_likelihood(post, d, neg) == -np.inf
    assert post.constraint(neg) == pytest.approx(0.5 + 1e-8, abs=1e-15)
    assert post.constraint(pos) == 0.0
    assert core.log_likelihood(post, d, pos) == pytest.approx(
        stats.norm.logpdf(2.0, 2.0) - math.log(stats.norm.sf(-2.0))
        + stats.poisson.logpmf([1, 3], 2.0).sum(), abs=1e-12)


def test_dp_compose_dimension_mismatch():
    with pytest.raises(ModelError, match="prior data dim"):
        dp_compose(mvn := builtin("multivariate_normal"), builtin("poisson"),
                   mvn.param_shape)


def test_pd_compose_child_estimates_become_parent_rows():
    parent = normal_model()
    child = builtin("exponential")
    h = pd_compose(parent, child)
    stream = RandomStream(31)
    rows = np.concatenate([stream.normal(0, 1, 40).reshape(-1, 1) ** 2 + 0.5
                           for _ in range(6)])
    groups = np.repeat(np.arange(6), 40)
    d = DataSet(rows, groups=groups)
    fit = estimate(h, d)
    # parent sees the six per-group exponential means
    means = [rows[groups == g].mean() for g in range(6)]
    assert fit.params.scalar("mu") == pytest.approx(np.mean(means), abs=1e-6)


def test_pd_compose_draws_a_child_row_from_each_parent_draw():
    # a Normal parent sets the mean of a Normal child whose sigma is pinned,
    # so the draws are Normal(mu0, s0^2 + sigma^2)
    child = fix(normal_model(), normal_model().param_shape.pin(sigma=0.5))
    h = pd_compose(normal_model(), child)
    assert h.strategy["RNG"] == "closed-form"
    mu0, s0, n = 1.5, 2.0, 4000
    x = core.draw(h, Params.scalars(mu=mu0, sigma=s0), RandomStream(8), n)
    assert x.shape == (n, 1)
    var = s0 ** 2 + 0.5 ** 2
    assert abs(x.mean() - mu0) < 4.0 * math.sqrt(var / n)
    assert abs(x.var() - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))


def _joint_only_models():
    like = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    return [dp_compose(normal_model(), like, Params.scalars(mu=0.0, sigma=1.0)),
            d_compose(normal_model(), builtin("exponential")),
            pd_compose(normal_model(), builtin("exponential"))]


@pytest.mark.parametrize("m", _joint_only_models(), ids=lambda m: m.label)
def test_joint_only_likelihood_has_no_per_row_value(m):
    rows = np.ones((2, m.data_dim))
    with pytest.raises(ModelError, match=re.escape(f"{m.label}: element L")):
        row_log_likelihood(m, rows, m.param_shape)


def test_joint_only_model_without_a_sampler_has_no_sampler_or_cdf():
    post = _joint_only_models()[0]
    assert (post.strategy["RNG"], post.strategy["CDF"]) == ("unresolvable",) * 2
    p = Params([("p", [0.5])])
    with pytest.raises(UnresolvableElementError, match="element RNG"):
        core.draw(post, p, RandomStream(1), 1)
    with pytest.raises(UnresolvableElementError, match="element CDF"):
        core.cdf(post, [1.0], p)
    # the joint likelihood still scores whole data sets
    d = DataSet(np.array([[1.0], [2.0]]))
    assert core.log_likelihood(post, d, p) == pytest.approx(
        stats.norm.logpdf(0.5) + stats.norm.logpdf([1.0, 2.0], 0.5).sum(), abs=1e-12)


def test_a_scored_truncated_model_is_freed_without_the_cycle_collector():
    # the region masses live with truncate's closures, not on the model the
    # closures belong to, so no reference cycle keeps the model alive
    m = truncate(normal_model(), (0.0, None))
    row_log_likelihood(m, np.array([[1.0], [-1.0]]), m.param_shape)
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_unknown_posterior_strategy_names_the_model():
    like = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    post = dp_compose(normal_model(), like, Params.scalars(mu=0.0, sigma=1.0))
    post.settings["posterior_strategy"] = "conjugate"
    with pytest.raises(ModelError, match=re.escape(
            "dp_compose(normal, fix(normal)): settings['posterior_strategy']")):
        posterior_draws(post, DataSet(np.array([[2.0]])), 10, RandomStream(1))


@pytest.mark.parametrize("text, repeats", [
    ("dcompose(normal, exponential, nseq=live)", False),
    ("dcompose(normal, exponential, nseq=7)", True),
])
def test_dcompose_live_draws_afresh_and_a_seed_replays(text, repeats):
    dc = expr.eval_model_expr(expr.parse_model_expr(text))
    p = dc.param_shape.replace([2.0, 3.0, 0.5])
    empty = DataSet(np.empty((0, 0)))
    v1, v2 = (core.log_likelihood(dc, empty, p) for _ in range(2))
    assert np.isfinite(v1) and np.isfinite(v2)
    assert (v1 == v2) is repeats


@pytest.mark.parametrize("live", [False, True])
def test_d_compose_record_holds_no_mutable_stream(live):
    dc = d_compose(normal_model(), builtin("exponential"),
                   nseq=RandomStream((3, 4)), live=live)
    assert dc.transform.data == {"seed": (3, 4), "n_draws": 500, "live": live}


# ---------------------------------------------------------------------------
# Stacked parameter vectors: dp_compose's joint density, posterior chains,
# weighted prior draws and swap


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _bench_posteriors():
    """The two posteriors the benchmark samples: acceptance 4's Normal mean
    given the datum 2, and the poisson-update pipeline's Poisson rate given
    2,000 rows of its three-component mixture."""
    mh = expr.eval_model_expr(expr.parse_model_expr(
        "dpcompose(normal(mu=0, sigma=1), fix(normal, sigma=1))"))
    src = expr.eval_model_expr(expr.parse_model_expr(
        "mix(fix(poisson, lam=2.8), fix(poisson, lam=2.0), fix(poisson, lam=1.3))"))
    counts = DataSet(core.draw(src, src.param_shape, RandomStream((0, 0)), 2000))
    pu = expr.eval_model_expr(expr.parse_model_expr(
        "dpcompose(truncate(normal(mu=2, sigma=1), min=0), poisson)"))
    return [(mh, DataSet(np.array([[2.0]]))), (pu, counts)]


@pytest.mark.parametrize("case", [0, 1], ids=["mh-posterior", "poisson-update"])
def test_stacked_joint_density_is_logl_joint_row_by_row(case):
    post, d = _bench_posteriors()[case]
    prior, like = post.transform.bases
    rho = post.transform.data["rho"]
    free = np.concatenate([RandomStream(case).normal(1.5, 1.0, size=(9, 1)),
                           [[0.0], [-0.5], [2.0]]])  # impossible rows too
    def one_vector(data, row):
        # the joint density scored by the one-vector dispatch calls
        lp = row_log_likelihood(prior, row[None], rho)[0]
        if not math.isfinite(lp):
            return -np.inf
        return lp + core.log_likelihood(like, data, like.param_shape.with_free(row))

    for data in (d, d.compressed()):
        got = transforms._dp_joint(prior, like, rho, data, free)
        want = [post.logl_joint(data, post.param_shape.replace(row)) for row in free]
        assert _bits(got) == _bits(want) == _bits([one_vector(data, row) for row in free])
        assert _bits(transforms._dp_joint(prior, like, rho, data, free[:1])) == _bits(want[:1])
    if case == 1:
        assert got[10] == -np.inf and np.isfinite(got[11])


@pytest.mark.parametrize("n, k", [(203, 8), (5, 5)])
def test_mh_posterior_makes_one_likelihood_call_of_k_vectors_per_step(n, k):
    base = normal_model()
    shapes = []

    @functools.wraps(base.logl)
    def counted(rows, p):
        shapes.append(p.vector.shape)
        return base.logl(rows, p)

    like = fix(dataclasses.replace(base, logl=counted), base.param_shape.pin(sigma=1.0))
    post = dp_compose(normal_model(), like, Params.scalars(mu=0.0, sigma=1.0))
    pd = posterior_draws(post.with_settings(posterior_strategy="mh"),
                         DataSet(np.array([[2.0]])), n, RandomStream(4))
    assert len(pd.settings["pmf_support"]) == n
    # the start, burnin, then ceil(n / k) kept steps
    assert shapes == [(k, 2)] * (1 + 2000 + -(-n // k))


def test_mh_chains_whose_prior_draw_is_off_the_likelihood_start_from_a_finite_draw():
    # an untruncated Normal(1, 1) prior over a Poisson rate: each start draw
    # is <= 0, where no count of 1 or more is possible, with probability 0.16
    like, rho = builtin("poisson"), Params.scalars(mu=1.0, sigma=1.0)
    post = dp_compose(normal_model(), like, rho)
    counts = DataSet(core.draw(like, Params.scalars(lam=2.0), RandomStream(5), 50))
    assert counts.rows.max() >= 1  # so a rate <= 0 is impossible
    off = 0
    for seed in range(12):
        starts = core.draw(normal_model(), rho, RandomStream(seed).split(0), 8)
        off += int(np.any(starts <= 0))
        draws = posterior_draws(post, counts, 80, RandomStream(seed)).settings["pmf_support"].rows
        assert draws.shape == (80, 1) and draws.min() > 0
        assert abs(draws.mean() - counts.rows.mean()) < 0.5
    assert off >= 6  # most seeds had a start off the likelihood's support
    low = dp_compose(normal_model(), like, Params.scalars(mu=-10.0, sigma=1.0))
    with pytest.raises(ModelError, match=r"dp_compose\(normal, poisson\): posterior_draws: "
                       r"metropolis: target not finite at any of the 8 start rows"):
        posterior_draws(low, counts, 80, RandomStream(0))


@pytest.mark.parametrize("like, prior, rho, rows, n", [
    # acceptance 4's likelihood on a weighted data set
    (fix(normal_model(), normal_model().param_shape.pin(sigma=1.0)), normal_model(),
     Params.scalars(mu=0.0, sigma=1.0), [[2.0], [1.5], [2.0], [-0.5]], 500),
    # 600 draws of a Poisson rate over 2,000 counts, which posterior_draws
    # compresses to their distinct values
    (builtin("poisson"), normal_model(), Params.scalars(mu=2.0, sigma=1.0),
     None, 600),
    # a likelihood that does not stack, scored one draw at a time
    (fix(builtin("weibull"), Params.scalars(k=1.5, lam=1.0).pin(k=1.5)), normal_model(),
     Params.scalars(mu=1.0, sigma=0.5), [[0.4], [1.1], [2.3]], 300),
], ids=["normal-mean", "poisson-rate", "weibull-scale"])
def test_weighted_prior_draws_are_weighted_by_each_draws_likelihood(like, prior, rho, rows, n):
    prior = dataclasses.replace(prior, label="rng_only", logl=None, est=None, cdf=None)
    if rows is None:
        counts = core.draw(like, Params.scalars(lam=2.0), RandomStream(8), 2000)
        d = DataSet(counts, weights=np.where(np.arange(2000) % 5 == 0, 0.0, 1.0))
    else:
        d = DataSet(np.array(rows), weights=np.arange(len(rows)) % 3 * 0.5)
    pd = posterior_draws(dp_compose(prior, like, rho), d, n, RandomStream(21))
    draws = core.draw(prior, rho, RandomStream(21), n)
    c = d.compressed()
    assert (len(c) < len(d)) == (rows is None)
    logw = np.array([core.log_likelihood(like, c, like.param_shape.with_free(x))
                     for x in draws])
    w = np.exp(logw - np.max(logw))
    want = pmf_model(DataSet(draws, weights=w / w.sum()))
    assert _bits(pd.param_shape.block("w")) == _bits(want.param_shape.block("w"))
    assert _bits(pd.settings["pmf_support"].rows) == _bits(want.settings["pmf_support"].rows)


def _rng_only(m):
    return dataclasses.replace(m, label="rng_only", logl=None, est=None, cdf=None)


@pytest.mark.parametrize("call, message", [
    (lambda: fix(normal_model(), Params.scalars(mu=0.0)),
     "fix: pinned length 1 != parameter length 2"),
    (lambda: fix(normal_model(), normal_model().param_shape),
     "fix: at least one entry must be pinned"),
    (lambda: cross([normal_model()]), "cross needs at least two models"),
    (lambda: mix([normal_model()]), "mix needs at least two models"),
    (lambda: mix([normal_model(), normal_model()], weights=[1.0]),
     "mix: 2 components but 1 weights"),
    (lambda: mix_cdf(normal_model(), mvn_model(2)), "mix_cdf: component data spaces differ"),
    (lambda: mix_cdf(builtin("poisson"), pmf_model(DataSet([[0.0]]))),
     "mix_cdf: truncated component must expose mu and sigma"),
    (lambda: truncate(mvn_model(2), (0.0, None)), "interval truncation needs a 1-D data space"),
    (lambda: d_compose(normal_model(), mvn_model(2)),
     r"d_compose: data dims differ \(1 vs 2\) and the to-model is not 1-D"),
    (lambda: dp_compose(normal_model(), builtin("poisson"), Params.scalars(mu=0.0)),
     "dp_compose: rho does not match the prior's parameters"),
    (lambda: posterior_draws(normal_model(), DataSet([[1.0]]), 10),
     "posterior_draws needs a dp_compose model"),
    (lambda: posterior_draws(
        dp_compose(_rng_only(normal_model()), builtin("poisson"),
                   Params.scalars(mu=-10.0, sigma=1.0)), DataSet([[1.0], [2.0]]), 20),
     "posterior_draws: data impossible under every prior draw"),
    (lambda: pd_compose(normal_model(), normal_model()),
     "pd_compose: parent data dim 1 != child free parameter count 2"),
], ids=["fix-length", "fix-pinned", "cross-count", "mix-count", "mix-weights",
        "mix_cdf-dims", "mix_cdf-mu-sigma", "truncate-dim", "d_compose-dims",
        "dp_compose-rho", "posterior-kind", "posterior-impossible", "pd_compose-dims"])
def test_transform_errors_name_their_cause(call, message):
    with pytest.raises(ModelError, match=message):
        call()
