"""Dispatch layer: element fill-in, determinism, consistency checking."""

import math

import numpy as np
import pytest
from scipy import stats

from modelkit import (DataSet, Model, ModelError, Params, RandomStream,
                      UnresolvableElementError, builtin, check_ml_consistency,
                      estimate, normal_model)
from modelkit import model as core


def rng_only_normal():
    """A model exposing nothing but a sampler."""
    def rng(p, stream, n):
        return stream.normal(p.scalar("mu"), 1.0, size=(n, 1))

    return Model("rng_only", 1, Params.scalars(mu=0.0), rng=rng)


def cdf_only_exponential():
    def cdf(points, p):
        return 1.0 - np.exp(-np.clip(points[:, 0], 0.0, None) / p.scalar("mu"))

    return Model("cdf_only", 1, Params.scalars(mu=1.0), cdf=cdf)


def test_resolution_names_are_stable():
    r = core.resolve(builtin("normal"))
    assert all(v == "closed-form" for v in r.values())
    r = core.resolve(rng_only_normal())
    assert r["L"] == "memoized PMF"
    assert r["Est"] == "MLE"
    assert r["CDF"] == "empirical draws"
    r = core.resolve(cdf_only_exponential())
    assert r["L"] == "cdf-delta"
    assert r["RNG"] == "cdf-inversion"


def test_model_needs_some_element():
    with pytest.raises(ModelError, match="at least one"):
        Model("empty", 1, Params.scalars(mu=0.0))


def test_likelihood_from_cdf_matches_density():
    m = cdf_only_exponential()
    p = Params.scalars(mu=2.0)
    v = core.row_log_likelihood(m, np.array([[1.5]]), p)[0]
    assert v == pytest.approx(-1.5 / 2 - math.log(2), abs=1e-4)


def test_rng_from_cdf_inversion():
    m = cdf_only_exponential()
    p = Params.scalars(mu=2.0)
    draws = core.draw(m, p, RandomStream(3), 4000)[:, 0]
    assert stats.kstest(draws, lambda x: 1 - np.exp(-x / 2)).statistic < 0.03


def test_rng_from_likelihood_metropolis():
    m = Model("logl_only", 1, Params.scalars(mu=1.0),
              logl=lambda rows, p: stats.norm.logpdf(rows[:, 0], p.scalar("mu")))
    draws = core.draw(m, m.param_shape, RandomStream(4), 5000)[:, 0]
    assert draws.mean() == pytest.approx(1.0, abs=0.1)
    assert draws.std() == pytest.approx(1.0, abs=0.1)


def test_likelihood_from_rng_memoized_pmf():
    m = rng_only_normal()
    p = Params.scalars(mu=0.0)
    v = core.row_log_likelihood(m, np.array([[0.0], [1.0]]), p)
    # discrete=False default but no kde configured: raw PMF puts zero mass
    # on unseen points; configure kde for a usable density
    import dataclasses

    from modelkit import KdeSettings

    sm = dataclasses.replace(m, settings={"kde": KdeSettings()})
    v = core.row_log_likelihood(sm, np.array([[0.0], [1.0]]), p)
    ratio = math.exp(v[0] - v[1])
    assert ratio == pytest.approx(stats.norm.pdf(0) / stats.norm.pdf(1), rel=0.1)


def test_replace_copies_keep_their_own_cache():
    import dataclasses

    m = normal_model()
    p = m.param_shape
    l_only = dataclasses.replace(m, rng=None, cdf=None, est=None)
    rng_backed = dataclasses.replace(m, cdf=None)
    assert rng_backed.settings is not m.settings
    core.cdf(l_only, [0.5], p)  # fills l_only's cache with Metropolis draws
    fresh = dataclasses.replace(normal_model(), cdf=None)
    assert core.cdf(rng_backed, [0.5], p) == core.cdf(fresh, [0.5], p)


def test_empirical_cdf_from_draws():
    m = rng_only_normal()
    p = Params.scalars(mu=0.0)
    assert float(core.cdf(m, [[0.0]], p)[0]) == pytest.approx(0.5, abs=0.02)
    assert float(core.cdf(m, [[1.96]], p)[0]) == pytest.approx(0.975, abs=0.01)


def test_mle_matches_closed_form():
    d = DataSet(RandomStream(8).normal(1.5, 0.7, size=500).reshape(-1, 1))
    closed = estimate(normal_model(), d)
    import dataclasses

    m = dataclasses.replace(normal_model(), est=None)
    numeric = estimate(m, d)
    assert numeric.params.scalar("mu") == pytest.approx(
        closed.params.scalar("mu"), abs=1e-3)
    assert numeric.params.scalar("sigma") == pytest.approx(
        closed.params.scalar("sigma"), abs=1e-3)


def test_estimate_empty_data_rejected():
    with pytest.raises(ModelError, match="empty"):
        estimate(normal_model(), DataSet(np.empty((0, 1))))


def test_draw_determinism():
    m = builtin("beta")
    a = core.draw(m, m.param_shape, RandomStream((1, 2)), 50)
    b = core.draw(m, m.param_shape, RandomStream((1, 2)), 50)
    assert np.array_equal(a, b)
    c = core.draw(m, m.param_shape, RandomStream((1, 3)), 50)
    assert not np.array_equal(a, c)


def test_consistency_checker_passes_coherent_model():
    m = builtin("poisson")
    rep = check_ml_consistency(m, Params.scalars(lam=2.0), RandomStream(6), 4000)
    assert rep.chi_square.passed
    assert rep.cdf_gap.passed
    assert rep.estimate_gap.passed


def test_consistency_checker_flags_wrong_sampler():
    bad = builtin("poisson")
    import dataclasses

    bad = dataclasses.replace(
        bad, rng=lambda p, stream, n: stream.normal(
            5.0, 0.1, size=(n, 1)).round())
    rep = check_ml_consistency(bad, Params.scalars(lam=2.0), RandomStream(6),
                               4000)
    assert not (rep.chi_square.passed and rep.cdf_gap.passed
                and rep.estimate_gap.passed)


def test_consistency_checker_needs_draws():
    with pytest.raises(ModelError, match="insufficient draws"):
        check_ml_consistency(builtin("poisson"), Params.scalars(lam=2.0),
                             RandomStream(1), 50)
