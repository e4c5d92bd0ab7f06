"""Transforms: each morphism checked against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from modelkit import (DataSet, ModelError, Params, RandomStream, builtin,
                      cross, d_compose, dp_compose, estimate, fix, jacobian,
                      mix, mix_cdf, normal_model, pd_compose, pmf_model,
                      posterior_draws, row_log_likelihood, swap, truncate)
from modelkit import model as core


def logl1(m, x, p=None):
    p = p or m.param_shape
    return float(row_log_likelihood(m, np.atleast_2d(np.asarray(x, float)), p)[0])


def test_fix_pins_and_estimates_the_rest():
    m = normal_model()
    fx = fix(m, m.param_shape.pin(sigma=2.0))
    d = DataSet(np.array([[0.0], [4.0]]))
    fit = estimate(fx, d)
    assert fit.params.scalar("sigma") == 2.0
    assert fit.params.scalar("mu") == pytest.approx(2.0, abs=1e-6)


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


def test_truncate_renormalizes():
    t = truncate(normal_model(), (0.0, None))
    p = Params.scalars(mu=1.0, sigma=1.0)
    # ln[ phi(0) / (1 - Phi(-1)) ], frozen
    assert logl1(t, 1.0, p) == pytest.approx(-0.7461847541812228, abs=1e-9)
    assert logl1(t, -0.5, p) == -np.inf
    draws = core.draw(t, p, RandomStream(5), 2000)
    assert draws.min() >= 0.0


def test_truncations_of_one_base_keep_their_own_mass():
    m = normal_model()
    p = Params.scalars(mu=0.0, sigma=1.0)
    at0, at1 = truncate(m, (0.0, None)), truncate(m, (1.0, None))
    logl1(at0, 1.5, p)
    # ln[ phi(1.5) / (1 - Phi(1)) ], not the mass of the region x >= 0
    want = stats.norm.logpdf(1.5) - stats.norm.logsf(1.0)
    assert logl1(at1, 1.5, p) == pytest.approx(want, abs=1e-9)


def test_truncate_tiny_region_errors():
    t = truncate(normal_model(), (50.0, None))
    with pytest.raises(ModelError, match="mass"):
        core.draw(t, Params.scalars(mu=0.0, sigma=1.0), RandomStream(1), 10)


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


def test_dp_compose_conjugate_posterior():
    prior = normal_model()  # N(0,1) over the likelihood mean
    like = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    post = dp_compose(prior, like, Params.scalars(mu=0.0, sigma=1.0))
    pd = posterior_draws(post, DataSet(np.array([[2.0]])), 4000,
                         RandomStream(21))
    sup = pd.settings["pmf_support"]
    w = pd.param_shape.block("w")
    w = w / w.sum()
    mean = float(w @ sup.rows[:, 0])
    var = float(w @ (sup.rows[:, 0] - mean) ** 2)
    # closed form: N(1, 1/2)
    assert mean == pytest.approx(1.0, abs=0.05)
    assert var == pytest.approx(0.5, abs=0.05)


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
