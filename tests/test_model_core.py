"""Dispatch layer: element fill-in, determinism, consistency checking."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from modelkit import (DataSet, Model, ModelError, Params, RandomStream,
                      UnresolvableElementError, builtin, check_ml_consistency,
                      cross, estimate, fix, mvn_model, normal_model, pmf_model)
from modelkit import model as core
from modelkit import solvers
from modelkit import transforms
from modelkit.data import distinct_rows
from modelkit.solvers import effective_sample_size as ess


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


def test_model_repr_names_label_data_dim_and_parameter_count():
    assert repr(normal_model()) == "Model('normal', data_dim=1, params=2)"


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


def _logl_from_cdf_loop(m, rows, p):
    """Reference: the cdf-delta density one row and one corner at a time."""
    out = []
    for x in rows:
        h = np.maximum(1e-5, 1e-5 * np.abs(x))
        total = 0.0
        for corner in range(1 << len(x)):
            signs = np.array([1.0 if corner >> j & 1 else -1.0 for j in range(len(x))])
            total += np.prod(signs) * float(m.cdf((x + signs * h).reshape(1, -1), p)[0])
        dens = total / np.prod(2.0 * h)
        out.append(math.log(dens) if dens > 0 else -math.inf)
    return np.array(out)


def test_likelihood_from_cdf_matches_the_per_row_loop():
    import dataclasses

    from modelkit import cross

    one = cdf_only_exponential()
    p1 = Params.scalars(mu=2.0)
    rows1 = np.concatenate([RandomStream(5).uniform(-1.0, 9.0, size=(300, 1)),
                            [[0.0], [1e-7]]])
    two = dataclasses.replace(cross([normal_model(), builtin("exponential")]),
                              logl=None, rng=None, est=None)
    p2 = two.param_shape.replace([1.0, 1.0, 2.0])
    s = RandomStream(6)
    rows2 = np.column_stack([s.uniform(-1.0, 3.0, 100), s.uniform(-0.5, 6.0, 100)])
    for m, rows, p in ((one, rows1, p1), (two, rows2, p2)):
        assert np.array_equal(core.row_log_likelihood(m, rows, p),
                              _logl_from_cdf_loop(m, rows, p))


def test_empirical_cdf_matches_the_per_point_loop():
    import dataclasses

    from modelkit import cross

    for m, p in ((rng_only_normal(), Params.scalars(mu=0.0)),
                 (dataclasses.replace(cross([normal_model(), builtin("exponential")]),
                                      cdf=None),
                  Params.scalars(**{"0.mu": 0.0, "0.sigma": 1.0, "1.mu": 1.0}))):
        pts = RandomStream(7).normal(size=(300, m.data_dim))
        draws = core._cdf_draws(m, p)
        want = [np.mean(np.all(draws <= pt, axis=1)) for pt in pts]
        assert np.array_equal(core.cdf(m, pts, p), np.clip(want, 0.0, 1.0))


def test_metropolis_starts_inside_a_support_that_excludes_the_origin():
    import dataclasses

    beta = builtin("beta")
    m = dataclasses.replace(beta, rng=None, cdf=None, est=None)
    x = core.draw(m, Params.scalars(alpha=2.0, beta=3.0), RandomStream(9), 2000)[:, 0]
    assert np.all((x > 0.0) & (x < 1.0))
    # Beta(2, 3): mean 0.4, standard deviation 0.2
    assert abs(x.mean() - 0.4) <= 5 * 0.2 / math.sqrt(ess(x))


def test_metropolis_without_a_finite_start_names_the_model():
    m = Model("nowhere", 1, Params.scalars(mu=0.0),
              logl=lambda rows, p: np.full(rows.shape[0], -np.inf))
    with pytest.raises(ModelError, match="nowhere: element RNG"):
        core.draw(m, m.param_shape, RandomStream(1), 10)


def test_metropolis_start_of_the_wrong_width_names_the_model():
    m = Model("logl_only", 1, Params.scalars(mu=1.0),
              logl=lambda rows, p: stats.norm.logpdf(rows[:, 0], p.scalar("mu")),
              settings={"mcmc_start": [0.5, 7.0]})
    with pytest.raises(ModelError, match="logl_only: element RNG: .*mcmc_start"):
        core.draw(m, m.param_shape, RandomStream(1), 5)


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


def test_strategy_table_est_is_mle_when_a_parameter_is_pinned():
    fx = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    assert core.resolve(fx)["Est"] == fx.strategy["Est"] == "MLE"
    assert estimate(fx, DataSet(np.array([[0.4], [1.7]]))).iterations > 0


def test_reassigned_element_rebuilds_strategy_and_cache():
    import dataclasses

    m = normal_model()
    p = m.param_shape
    m.cdf = None
    assert m.strategy == core.resolve(m)
    fresh = dataclasses.replace(normal_model(), cdf=None)
    assert core.cdf(m, 0.5, p) == core.cdf(fresh, 0.5, p) == pytest.approx(0.6877, abs=5e-5)
    assert m.cache  # the empirical-CDF draws of the closed-form sampler
    m.rng = None
    assert m.cache == {} and m.strategy["RNG"] == "metropolis"


def rounded_normal():
    """A sampler-only integer model: its likelihood is a memoized PMF."""
    def rng(p, stream, n):
        return np.round(stream.normal(p.scalar("mu"), p.scalar("sigma"),
                                      size=(n, 1)))

    return Model("rounded_normal", 1, Params.scalars(mu=0.5, sigma=2.0),
                 rng=rng, discrete=True, settings={"memoize_draws": 500})


@pytest.mark.parametrize("cap", [core.CACHE_ENTRIES, 2])
def test_model_cache_is_bounded_and_changes_no_estimate(monkeypatch, cap):
    data = DataSet(np.round(RandomStream(5).normal(1.0, 2.0, size=(30, 1))))
    default_cap = core.CACHE_ENTRIES
    monkeypatch.setattr(core, "CACHE_ENTRIES", 10 ** 9)
    unbounded = rounded_normal()
    want = estimate(unbounded, data)
    # the fit visits more parameter points than the default cap holds
    assert len(unbounded.cache) > default_cap
    monkeypatch.setattr(core, "CACHE_ENTRIES", cap)
    bounded = rounded_normal()
    got = estimate(bounded, data)
    assert len(bounded.cache) == cap
    assert np.array_equal(got.params.flatten(), want.params.flatten())
    assert got.log_likelihood_at_optimum == want.log_likelihood_at_optimum


def test_model_cache_drops_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(core, "CACHE_ENTRIES", 2)
    m = rounded_normal()
    for key in ("a", "b", "a", "c"):
        core._cached(m.cache, key, lambda: key.upper())
    assert list(m.cache) == ["a", "c"]
    assert core._cached(m.cache, "a", lambda: "fresh") == "A"


def test_setting_kde_after_scoring_smooths_the_memoized_pmf():
    from modelkit import KdeSettings

    m = rng_only_normal()
    p = m.param_shape
    row = np.array([[0.3]])
    assert core.row_log_likelihood(m, row, p)[0] == -math.inf  # raw PMF
    m.settings["kde"] = KdeSettings()
    fresh = dataclasses.replace(rng_only_normal(), settings={"kde": KdeSettings()})
    want = core.row_log_likelihood(fresh, row, p)[0]
    assert math.isfinite(want)
    assert core.row_log_likelihood(m, row, p)[0] == want
    del m.settings["kde"]
    assert core.row_log_likelihood(m, row, p)[0] == -math.inf


def test_sampler_only_continuous_estimate_asks_for_kde():
    d = DataSet(RandomStream(3).normal(size=(50, 1)))
    with pytest.raises(ModelError, match=r"rng_only: element L .*settings\['kde'\]"):
        estimate(rng_only_normal(), d)


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


def test_draw_and_cdf_return_row_arrays_under_every_strategy():
    l_only = dataclasses.replace(normal_model(), rng=None, cdf=None, est=None)
    for m in (normal_model(), cdf_only_exponential(), l_only, rng_only_normal(),
              mvn_model(2)):
        p = m.param_shape
        for n in (1, 3):
            assert core.draw(m, p, RandomStream(1), n).shape == (n, m.data_dim)
        point = np.full(m.data_dim, 0.5)
        assert core.cdf(m, point, p).shape == (1,)
        assert core.cdf(m, np.tile(point, (4, 1)), p).shape == (4,)


@pytest.mark.parametrize("shape", [(5,), (5, 2), (1, 1)])
def test_closed_form_sampler_of_the_wrong_shape_names_the_model(shape):
    m = Model("flat", 1, Params.scalars(mu=0.0),
              rng=lambda p, stream, n: np.zeros(shape))
    with pytest.raises(ModelError, match=re.escape(
            f"flat: element RNG returned shape {shape}")):
        core.draw(m, m.param_shape, RandomStream(1), 5)


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


def test_likelihood_only_normal_passes_the_consistency_check():
    # sampler and CDF both run on lockstep Metropolis chains; the chi-square
    # bins every k-th draw, k from the draws' effective sample size
    m = dataclasses.replace(builtin("normal"), rng=None, cdf=None, est=None)
    assert (m.strategy["RNG"], m.strategy["CDF"]) == ("metropolis", "empirical draws")
    rep = check_ml_consistency(m, Params.scalars(mu=1.0, sigma=1.0),
                               RandomStream(0), 40000)
    assert rep.passed


@pytest.mark.parametrize("name, dim, dof", [
    ("normal", 1, 19),  # 20 quantile bins
    ("multivariate_normal", 2, 24),  # a 5 x 5 grid of quantile bins
])
def test_chi_square_bins_continuous_draws(name, dim, dof):
    m = builtin(name)
    rep = check_ml_consistency(m, m.param_shape, RandomStream(1), 2000)
    assert rep.chi_square.passed
    assert rep.chi_square.note.endswith(f"with {dof} dof")
    # every coordinate drawn a third of a standard deviation off
    shifted = dataclasses.replace(
        m, rng=lambda p, stream, n: stream.normal(0.3, 1.0, size=(n, dim)))
    rep = check_ml_consistency(shifted, m.param_shape, RandomStream(1), 2000)
    assert not rep.chi_square.passed


def test_log_sum_exp_rows():
    a = np.array([[0.0, math.log(3.0)], [-1000.0, -1000.0],
                  [-np.inf, -np.inf], [-np.inf, 2.0]])
    out = core.log_sum_exp(a)
    assert out[0] == pytest.approx(math.log(4.0), abs=1e-15)
    assert out[1] == pytest.approx(-1000.0 + math.log(2.0), abs=1e-12)
    assert out[2] == -np.inf
    assert out[3] == 2.0


def test_consistency_checker_needs_draws():
    with pytest.raises(ModelError, match="insufficient draws"):
        check_ml_consistency(builtin("poisson"), Params.scalars(lam=2.0),
                             RandomStream(1), 50)


def test_estimate_with_every_parameter_pinned_scores_the_pinned_values():
    pinned = normal_model().param_shape.pin(mu=1.0, sigma=2.0)
    m = fix(normal_model(), pinned)
    d = DataSet(np.array([[0.5], [1.5], [4.0]]))
    fit = estimate(m, d)
    assert fit.params.flatten().tolist() == [1.0, 2.0]
    assert fit.params.fixed_mask.all()
    assert (fit.iterations, fit.converged, fit.constraint_violation) == (0, True, 0.0)
    assert fit.log_likelihood_at_optimum == core.log_likelihood(
        normal_model(), d, Params.scalars(mu=1.0, sigma=2.0))


# ---------------------------------------------------------------------------
# The row contract: n rows in one call score as n one-row calls, bit for bit


def _censored_normal():
    """A Normal truncated at 0 plus an atom at 0 (mix_cdf)."""
    return transforms.mix_cdf(transforms.truncate(normal_model(), (0.0, None)),
                              pmf_model(DataSet(np.zeros((1, 1)))))


def _row_contract_cases():
    """name -> (model, params, (low, high) of the rows' values)."""
    normal, expo, pois = normal_model(), builtin("exponential"), builtin("poisson")
    mvn = builtin("multivariate_normal")
    mvn_p = mvn.param_shape.replace([0.5, -0.5, 1.0, 0.3, 0.3, 2.0])
    mixed = transforms.mix([normal, expo])
    crossed = cross([normal, pois])
    pmf = pmf_model(DataSet(core.draw(pois, Params.scalars(lam=3.0),
                                      RandomStream(2), 200)))
    kde = solvers.kde_smooth(solvers.memoize_rng_to_pmf(
        normal, Params.scalars(mu=0.5, sigma=1.5), 200, RandomStream(5)))
    kde2 = solvers.kde_smooth(solvers.memoize_rng_to_pmf(
        mvn, mvn_p, 200, RandomStream(6)))
    return {
        "normal": (normal, Params.scalars(mu=0.5, sigma=1.5), (-4.0, 5.0)),
        "exponential": (expo, Params.scalars(mu=2.0), (-1.0, 8.0)),
        "poisson": (pois, Params.scalars(lam=3.0), (-1.0, 9.0)),
        "beta": (builtin("beta"), Params.scalars(alpha=2.0, beta=3.0), (-0.2, 1.2)),
        "uniform": (builtin("uniform"), Params.scalars(a=-1.0, b=2.0), (-2.0, 3.0)),
        "weibull": (builtin("weibull"), Params.scalars(k=1.5, lam=2.0), (-1.0, 6.0)),
        "mvn": (mvn, mvn_p, (-3.0, 3.0)),
        "jacobian": (transforms.jacobian(expo, lambda x: 1.0 / x, lambda y: 1.0 / y),
                     Params.scalars(mu=2.0), (0.6, 5.0)),
        "jacobian-2d": (transforms.jacobian(mvn, np.exp, np.log), mvn_p, (0.6, 4.0)),
        "truncate": (transforms.truncate(normal, (0.0, None)),
                     Params.scalars(mu=0.5, sigma=1.0), (-1.0, 4.0)),
        "trunc-beta": (transforms.truncate(builtin("beta"), (0.2, None)),
                       Params.scalars(alpha=2.0, beta=3.0), (-0.2, 1.2)),
        # integral rows put some on the atom at 0
        "mix_cdf": (_censored_normal(), Params.scalars(mu=0.5, sigma=1.0), (-1.0, 4.0)),
        "mix": (mixed, mixed.param_shape.replace([-1.0, 1.0, 2.0, 0.3, 0.7]),
                (-3.0, 6.0)),
        "cross": (crossed, crossed.param_shape.replace([0.0, 1.0, 3.0]), (-1.0, 7.0)),
        "pmf": (pmf, pmf.param_shape, (-1.0, 9.0)),
        "kde": (kde, kde.param_shape, (-4.0, 5.0)),
        "kde-2d": (kde2, kde2.param_shape, (-3.0, 3.0)),
    }


# built once, so each empirical CDF draws once for all examples
_ROW_CONTRACT = _row_contract_cases()


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_ROW_CONTRACT)),
       u=st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
                  min_size=1, max_size=8),
       integral=st.booleans())
def test_row_contract_property(name, u, integral):
    m, p, (low, high) = _ROW_CONTRACT[name]
    rows = low + (high - low) * np.array(u)[:, :m.data_dim]
    if integral:
        rows = np.round(rows)
    for element in (core.row_log_likelihood, core.cdf):
        whole = element(m, rows, p)
        one_by_one = np.concatenate([element(m, rows[i:i + 1], p)
                                     for i in range(rows.shape[0])])
        assert whole.tobytes() == one_by_one.tobytes(), element.__name__


def _masked_cases():
    """name -> (score, an all-valid batch, one row outside the support);
    score(rows) calls one likelihood that masks rows through core.masked."""
    normal, beta, wb = normal_model(), builtin("beta"), builtin("weibull")
    x = RandomStream(11).uniform(0.25, 0.95, size=(40, 1))

    def scorer(m, p):
        return lambda rows: core.row_log_likelihood(m, rows, p)

    ab = Params.scalars(alpha=2.0, beta=3.0)
    kl = Params.scalars(k=1.5, lam=2.0)
    stack = wb.param_shape.stack(np.array([[1.5, 2.0], [0.7, 1.1], [3.0, 0.5]]))
    mu_sigma = Params.scalars(mu=0.5, sigma=1.0)
    post = transforms.dp_compose(transforms.truncate(normal, (0.0, None)),
                                 builtin("poisson"), Params.scalars(mu=2.0, sigma=1.0))
    prior, like = post.transform.bases
    counts = DataSet(np.array([[0.0], [2.0], [3.0], [2.0], [5.0]]))

    def joint(free):
        return transforms._dp_joint(prior, like, post.transform.data["rho"], counts, free)

    return {
        "beta": (scorer(beta, ab), x, [[1.5]]),
        "weibull": (scorer(wb, kl), 4 * x, [[-1.0]]),
        "weibull-stack": (lambda rows: wb.logl(rows, stack), 4 * x, [[0.0]]),
        "truncate": (scorer(transforms.truncate(normal, (0.0, None)), mu_sigma),
                     4 * x, [[-1.0]]),
        "trunc-beta": (scorer(transforms.truncate(beta, (0.2, None)), ab), x, [[0.1]]),
        "mix_cdf": (scorer(_censored_normal(), mu_sigma), 4 * x, [[0.0]]),  # the atom
        "dp_compose": (joint, 4 * x[:9], [[-0.5]]),  # prior density 0
    }


_MASKED = _masked_cases()


@pytest.mark.parametrize("name", sorted(_MASKED))
def test_all_valid_rows_score_as_in_a_masked_batch(name):
    score, x, outside = _MASKED[name]
    whole = np.asarray(score(x))
    masked = np.asarray(score(np.concatenate([x, outside])))
    assert np.all(np.isfinite(whole))
    n = x.shape[0]
    # the all-valid branch and the masked one give the same values, bit for bit
    assert whole.tobytes() == masked[..., :n].copy().tobytes()
    if name != "mix_cdf":
        assert np.all(np.isneginf(masked[..., n:]))


def test_blocked_row_lookups_match_a_per_point_loop():
    # 800 points against 3000 rows of 2 columns take several blocks
    rows = RandomStream(3).normal(size=(3000, 2)).round(1)
    pts = RandomStream(4).normal(size=(800, 2)).round(1)
    w = RandomStream(5).uniform(size=3000)
    share, count = core.dominated_share(rows, pts, w), core.dominated_share(rows, pts)
    idx = core.support_index(rows)(pts)
    assert 0 < np.sum(idx >= 0) < len(pts)
    assert core.support_index(rows[:0])(pts).tolist() == [-1] * len(pts)
    for i, pt in enumerate(pts):
        below = np.all(rows <= pt, axis=1)
        assert count[i] == below.sum() / len(rows)
        assert share[i] == pytest.approx(w[below].sum(), rel=1e-12, abs=0)
        hit = np.flatnonzero(np.all(rows.view(np.int64) == pt.view(np.int64), axis=1))
        assert idx[i] == (hit[0] if hit.size else -1)


_POINT_VALUES = st.sampled_from([0.0, -0.0, 1e-13, 1.0, -2.5, np.nan])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rows_are_the_same_point_exactly_when_their_bits_are(data):
    dim = data.draw(st.integers(1, 3))
    row = st.lists(_POINT_VALUES, min_size=dim, max_size=dim)
    pool = data.draw(st.lists(row, min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    support = np.array([pool[i] for i in picks])
    queries = np.array(pool + data.draw(st.lists(row, max_size=3)))
    w = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=len(support),
                                    max_size=len(support))))

    def same(a, b):
        return a.tobytes() == b.tobytes()

    uniq, inv = distinct_rows(support)
    assert len({r.tobytes() for r in uniq}) == len(uniq)
    assert all(same(uniq[j], r) for j, r in zip(inv, support))
    want = [next((j for j, r in enumerate(support) if same(r, q)), -1) for q in queries]
    assert core.support_index(support)(queries).tolist() == want
    m = pmf_model(DataSet(support, weights=w))
    mass = np.exp(core.row_log_likelihood(m, queries, m.param_shape))
    total = [w[[same(r, q) for r in support]].sum() / w.sum() for q in queries]
    assert mass == pytest.approx(total, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Compressed data sets: each distinct row once, with its total weight


def _with_only(m, element):
    """m keeping one of its elements "cdf" or "rng": a cdf-delta or a
    memoized-PMF likelihood."""
    gone = {"logl": None, "est": None, "cdf": None, "rng": None}
    del gone[element]
    return dataclasses.replace(m, label=f"{m.label}_{element}", **gone)


def _by_strategy(m, p):
    return [(m, p), (_with_only(m, "cdf"), p), (_with_only(m, "rng"), p)]


# built once, so each memoized PMF is drawn once for all examples
_POISSON2 = cross([builtin("poisson"), builtin("poisson")])
_SCORED = (_by_strategy(builtin("poisson"), Params.scalars(lam=2.0))
           + _by_strategy(_POISSON2, _POISSON2.param_shape.replace([2.0, 1.0])))
# at most 5 distinct rows of 1 column and 9 of 2, so 40 rows always repeat
# enough; -1 and 2.5 score -inf in closed form, -1 and 30 under the PMF
_VALUES = {1: [-1.0, 0.0, 1.0, 2.5, 30.0], 2: [-1.0, 0.0, 2.0]}


def test_scored_models_cover_the_three_likelihood_strategies():
    assert [m.strategy["L"] for m, _ in _SCORED] == 2 * [
        "closed-form", "cdf-delta", "memoized PMF"]
    assert all(m.discrete for m, _ in _SCORED)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(_SCORED) - 1), data=st.data())
def test_distinct_row_scoring_is_bit_identical_property(case, data):
    m, p = _SCORED[case]
    dim = m.data_dim
    n = data.draw(st.integers(40, 80))
    rows = data.draw(st.lists(st.lists(st.sampled_from(_VALUES[dim]),
                                       min_size=dim, max_size=dim),
                              min_size=n, max_size=n))
    w = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                           min_size=n, max_size=n))
    w[0] = w[0] or 1.0
    d = DataSet(np.array(rows), w)
    # every row scored, the rows of weight 0 in place
    expected = _reference_log_likelihood(core.row_log_likelihood(m, d.rows, p), d.weights)
    assert core.log_likelihood(m, d, p).hex() == expected.hex()
    # each distinct row scored once, with the weights of its copies added
    # in row order
    total = {}
    for row, wi in zip(d.rows, d.weights):
        total[row.tobytes()] = total.get(row.tobytes(), 0.0) + wi
    c = d.compressed()
    assert sorted(r.tobytes() for r in c.rows) == sorted(total)
    counts = np.array([total[r.tobytes()] for r in c.rows])
    assert c.weights.tobytes() == counts.tobytes()
    merged = _reference_log_likelihood(core.row_log_likelihood(m, c.rows, p), counts)
    assert core.log_likelihood(m, c, p).hex() == merged.hex()
    assert merged == pytest.approx(expected, rel=1e-12)


def test_only_compressed_sorts_the_rows(monkeypatch):
    calls = []
    for name in ("sort", "unique"):
        def counted(*a, _name=name, _real=getattr(np, name), **kw):
            calls.append(_name)
            return _real(*a, **kw)
        monkeypatch.setattr(np, name, counted)
    m, p = builtin("poisson"), Params.scalars(lam=2.0)
    d = DataSet(np.arange(400.0) % 5)
    for _ in range(3):
        core.log_likelihood(m, d, p)
        core.stacked_log_likelihood(m, d, m.param_shape.stack([[1.0], [2.0]]))
    assert calls == []  # scoring never looks at the rows
    c = d.compressed()
    assert calls == ["sort", "unique"]
    assert c.rows.ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert c.weights.tolist() == [80.0] * 5
    # continuous rows: the sort of the first column alone rules them out
    calls.clear()
    cont = DataSet(RandomStream(1).normal(size=400))
    assert cont.compressed() is cont and calls == ["sort"]


def test_distinct_rows_tell_apart_rows_that_differ_only_in_bits():
    # -0.0 == 0.0, yet a row-wise element may tell them apart
    c = DataSet(np.array([0.0, -0.0] * 20)).compressed()
    assert np.signbit(c.rows[:, 0]).tolist() == [True, False]  # -0.0's bits sort first
    assert c.weights.tolist() == [20.0, 20.0]


def test_a_joint_likelihood_is_fitted_on_its_rows_as_they_are():
    # a joint likelihood need not be a sum over rows, so the MLE does not
    # compress the rows it is given; a row-wise one does
    seen = []

    def logl_joint(d, p):
        seen.append(len(d))
        return -float(np.sum((d.rows[:, 0] - p.scalar("mu")) ** 2))

    joint = Model("joint", 1, Params.scalars(mu=0.0), logl_joint=logl_joint)
    d = DataSet(np.arange(400.0) % 5)
    core.estimate(joint, d)
    assert set(seen) == {400}
    base = normal_model()
    scored = []

    def logl(rows, p):
        scored.append(len(rows))
        return base.logl(rows, p)

    core.estimate(dataclasses.replace(base, logl=logl, est=None), d)
    assert set(scored) == {5}


def test_cdf_only_discrete_likelihood_is_the_point_mass_in_two_dimensions():
    m = _with_only(_POISSON2, "cdf")
    p = _POISSON2.param_shape.replace([2.0, 1.0])
    rows = np.array([[1.0, 1.0], [0.0, 3.0], [4.0, 0.0]])
    got = core.row_log_likelihood(m, rows, p)
    assert got[:2] == pytest.approx([-2.3069, -4.7918], abs=5e-5)
    # the closed form: log(2 e^-2) + log(e^-1), and log(e^-2) + log(e^-1 / 3!)
    assert got[:2] == pytest.approx([math.log(2.0) - 3.0, -3.0 - math.log(6.0)],
                                    abs=1e-12)
    assert got == pytest.approx(core.row_log_likelihood(_POISSON2, rows, p), abs=1e-12)


# ---------------------------------------------------------------------------
# The weighted sum of log_likelihood

# each row's log-likelihood is its own value, so a row can score anything
_IDENTITY = Model("identity", 1, Params.scalars(a=0.0),
                  logl=lambda rows, p: rows[:, 0])
_ROW_VALUES = st.one_of(
    st.sampled_from([-math.inf, math.inf, math.nan, 0.0, -0.0, 1e300, -1e300]),
    st.floats(-1e3, 1e3))


def _reference_log_likelihood(v, w):
    """The sum of every term v * w, the rows of weight 0 in place, when it
    is finite; else -inf if a row of positive weight scores -inf, else the
    sum of the terms of positive weight."""
    with np.errstate(invalid="ignore"):
        total = float(np.sum(v * w))
    if math.isfinite(total):
        return total
    live = w > 0
    if np.any(np.isneginf(v[live])):
        return -math.inf
    return float(np.sum(v[live] * w[live]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_log_likelihood_sum_matches_the_reference_rule_property(data):
    pool = data.draw(st.lists(_ROW_VALUES, min_size=1, max_size=6))
    n = data.draw(st.integers(1, 60))
    v = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    weighted = data.draw(st.booleans())
    if weighted:
        # 1e300 overflows a finite row value to +-inf
        w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e300]),
                                        min_size=n, max_size=n)))
        w[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([1.0, 1e300]))
    else:
        w = np.ones(n)
    d = DataSet(v, w if weighted else None)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _reference_log_likelihood(v, w).hex()
        assert core.log_likelihood(_IDENTITY, d, _IDENTITY.param_shape).hex() == expected


def test_consistency_check_skips_chi_square_above_two_dimensions():
    m = mvn_model(3)
    rep = check_ml_consistency(m, m.param_shape, RandomStream(5), 1000)
    assert rep.chi_square == core.ConsistencyCheck(
        0.0, 0.01, True, "chi-square skipped for dim > 2")
    assert rep.cdf_gap.threshold == rep.estimate_gap.threshold == 0.05


# ---------------------------------------------------------------------------
# Stacked likelihoods: K parameter vectors scored at once


@core.stackable
def _stacked_identity_logl(rows, p):
    """Each row's own value, at every vector; a Fortran-ordered (K, n) array
    when stacked, whose rows numpy sums in another order than a row alone."""
    a = p.scalar("a")
    if isinstance(a, float):
        return rows[:, 0]
    return np.asfortranarray(np.broadcast_to(rows[:, 0], (a.shape[0], rows.shape[0])))


_STACKED_IDENTITY = Model("identity", 1, Params.scalars(a=0.0),
                          logl=_stacked_identity_logl)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_sum_matches_the_reference_rule_at_every_vector_property(data):
    pool = data.draw(st.lists(_ROW_VALUES, min_size=1, max_size=6))
    n = data.draw(st.integers(1, 60))
    v = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e300]),
                                    min_size=n, max_size=n)))
    w[data.draw(st.integers(0, n - 1))] = 1.0
    d = DataSet(v, w)
    P = _STACKED_IDENTITY.param_shape.stack(np.zeros((data.draw(st.integers(1, 5)), 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _reference_log_likelihood(v, w).hex()
        got = core.stacked_log_likelihood(_STACKED_IDENTITY, d, P)
        assert [x.hex() for x in got.tolist()] == [expected] * len(P)


# positive values whose np.log differs from math.log in the last bit with
# some numpy builds, which a stacked logl must not use
_LOG_ROUNDING = [0.9908371028420025, 1.235332518347858, 8.70834843767571]
def test_stacked_sums_do_not_depend_on_the_layout_the_logl_returns():
    rows = RandomStream(9).normal(size=(2000, 1)) * 1e3
    P = _STACKED_IDENTITY.param_shape.stack(np.zeros((4, 1)))
    for d in (DataSet(rows), DataSet(rows, weights=np.arange(2000) % 4 * 0.5)):
        want = core.log_likelihood(_STACKED_IDENTITY, d, P[0])
        got = core.stacked_log_likelihood(_STACKED_IDENTITY, d, P)
        assert [x.hex() for x in got.tolist()] == [want.hex()] * 4


_STACKABLE = {
    # model, parameter values (degenerate ones included), row values
    "normal": (normal_model, {"mu": [-1.0, 0.0, 0.5, 2.0],
                              "sigma": [-1.0, 0.0, 0.3, 1.0, 2.5] + _LOG_ROUNDING},
               [-1.0, 0.0, 0.5, 2.0, 3.7, -2.2]),
    "exponential": (lambda: builtin("exponential"),
                    {"mu": [-1.0, 0.0, 0.4, 1.0, 3.0] + _LOG_ROUNDING},
                    [-1.0, 0.0, 0.5, 2.0, 7.5]),
    "poisson": (lambda: builtin("poisson"), {"lam": [-1.0, 0.0, 0.4, 1.0, 3.0] + _LOG_ROUNDING},
                [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 9.0]),
    "weibull": (lambda: builtin("weibull"),
                # 1e-9: positive, so no violation, yet below the 1e-8 offset
                {"k": [-1.0, 0.0, 1e-9, 0.5, 1.0, 1.5, 2.0, 3.7] + _LOG_ROUNDING,
                 "lam": [-2.0, 0.0, 1e-9, 0.3, 1.0, 2.0] + _LOG_ROUNDING},
                [-1.0, 0.0, 1e-3, 0.5, 1.0, 2.0, 7.5]),
}


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(_STACKABLE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_likelihood_is_the_per_vector_likelihood_property(name, data):
    make, values, row_values = _STACKABLE[name]
    m = make()
    k = data.draw(st.integers(1, 6))
    free = np.array([[data.draw(st.sampled_from(values[b])) for b in m.param_shape.names]
                     for _ in range(k)])
    P = m.param_shape.stack(free)
    n = data.draw(st.integers(1, 16))
    rows = np.array(data.draw(st.lists(st.sampled_from(row_values), min_size=n,
                                       max_size=n))).reshape(-1, 1)
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                    min_size=n, max_size=n)))
    w[data.draw(st.integers(0, n - 1))] = 1.0
    d = DataSet(rows, w)
    per_row = np.asarray(m.logl(rows, P))  # the stacked logl contract itself
    assert per_row.shape == (k, n)
    for data in (d, d.compressed()):
        got = core.stacked_log_likelihood(m, data, P)
        assert got.shape == (k,)
        for i in range(k):
            assert _bits(got[i]) == _bits(core.log_likelihood(m, data, P[i]))
            assert _bits(per_row[i]) == _bits(core.row_log_likelihood(m, rows, P[i]))
    # a stackable constraint gives each vector's violation too
    assert _bits(core._violations(m, P)) == _bits(
        [core._violation(m, P[i]) for i in range(k)])


# parameter columns a stacked logl masks, or must not: 0, negatives, nan
# (which counts as not <= 0), +inf and -inf, and a column of nan only
_EDGE_COLUMNS = {
    "zero": [1.5, 0.0, 2.0],
    "negative": [-1.0, 0.7, -0.0],
    "nan": [np.nan, 1.5, 0.4],
    "nan-and-zero": [np.nan, 0.0, 1.0],
    "inf": [np.inf, 1.0, -np.inf],
    "all-nan": [np.nan, np.nan, np.nan],
}


@pytest.mark.parametrize("column", sorted(_EDGE_COLUMNS))
@pytest.mark.parametrize("name", sorted(_STACKABLE))
def test_stacked_logl_is_the_one_vector_logl_at_degenerate_columns(name, column):
    make, values, row_values = _STACKABLE[name]
    m = make()
    rows = np.array(row_values).reshape(-1, 1)
    edge = _EDGE_COLUMNS[column]
    # the edge column in each parameter in turn, the others at a usual value
    for b in m.param_shape.names:
        free = np.array([[edge[i] if c == b else values[c][-1] for c in m.param_shape.names]
                         for i in range(len(edge))])
        P = m.param_shape.stack(free)
        with np.errstate(all="ignore"):  # inf - inf on the +inf vectors
            # weibull's k / lam is 0 at lam = inf, and its log is log k - log lam
            got = np.asarray(m.logl(rows, P))
            for i in range(len(P)):
                assert _bits(got[i]) == _bits(m.logl(rows, P[i])), (b, i)


def test_stacked_poisson_scores_the_distinct_rows_of_a_large_data_set():
    base = builtin("poisson")
    scored = []

    @functools.wraps(base.logl)
    def counted(rows, p):
        scored.append((len(rows), p.vector.shape))
        return base.logl(rows, p)

    m = dataclasses.replace(base, logl=counted)
    rows = core.draw(m, Params.scalars(lam=2.5), RandomStream(3), 2000)
    w = np.where(np.arange(2000) % 7 == 0, 0.0, 1.0 + (np.arange(2000) % 3))
    d = DataSet(rows, w)
    c = d.compressed()
    n_distinct = len(np.unique(rows))
    assert n_distinct < 20 and len(c) == n_distinct
    P = m.param_shape.stack([[2.5], [0.7], [0.0], [-1.0], [4.0], [1e-3], [2.5], [30.0]])
    del scored[:]
    merged = core.stacked_log_likelihood(m, c, P)
    assert scored == [(n_distinct, (8, 1))]
    want = [core.log_likelihood(m, c, P[i]) for i in range(len(P))]
    assert _bits(merged) == _bits(want)
    assert want[2] == want[3] == -math.inf and all(np.isfinite(want[4:]))
    # every row, in blocks of 16 vectors: 2,000 rows x 16 fill one block
    many = m.param_shape.stack(np.linspace(0.5, 5.0, 40)[:, None])
    del scored[:]
    full = core.stacked_log_likelihood(m, d, many)
    assert scored == [(2000, (16, 1)), (2000, (16, 1)), (2000, (8, 1))]
    assert _bits(full) == _bits([core.log_likelihood(m, d, many[i]) for i in range(40)])
    assert full == pytest.approx(core.stacked_log_likelihood(m, c, many), rel=1e-12)


def test_the_stackable_mark_travels_with_the_function():
    m = normal_model()
    assert m.logl.stackable and fix(m, m.param_shape.pin(sigma=1.0)).logl.stackable
    calls = []

    def counted(rows, p):
        calls.append(len(p))
        return m.logl(rows, p)

    plain = dataclasses.replace(m, logl=counted)
    wrapped = dataclasses.replace(
        m, logl=functools.wraps(m.logl)(lambda rows, p: counted(rows, p)))
    d = DataSet(np.array([[0.5], [1.5]]))
    P = m.param_shape.stack([[0.0, 1.0], [1.0, 2.0], [0.5, 0.5]])
    want = [core.log_likelihood(m, d, P[i]) for i in range(3)]
    assert _bits(core.stacked_log_likelihood(wrapped, d, P)) == _bits(want)
    assert calls == [3]  # one call of three vectors
    del calls[:]
    assert _bits(core.stacked_log_likelihood(plain, d, P)) == _bits(want)
    assert calls == [2, 2, 2]  # one call per vector, each a Params of length 2


def test_weibull_likelihood_is_its_one_vector_formula():
    """The stackable Weibull logl at one vector is the formula it had
    before it stacked, kept here as the reference, bit for bit."""
    def reference(rows, k, lam):
        if k <= 0 or lam <= 0:
            return np.full(rows.shape[0], -np.inf)
        d = rows[:, 0]
        out = np.full(rows.shape[0], -np.inf)
        pos = d > 0
        r = d[pos] / lam
        out[pos] = math.log(k / lam) + (k - 1) * np.log(r) - r ** k
        return out

    m = builtin("weibull")
    _, values, row_values = _STACKABLE["weibull"]
    rows = np.array(row_values).reshape(-1, 1)
    for k in values["k"]:
        for lam in values["lam"]:
            got = m.logl(rows, Params.scalars(k=k, lam=lam))
            assert _bits(got) == _bits(reference(rows, k, lam)), (k, lam)


def test_models_that_do_not_stack_are_scored_one_vector_at_a_time():
    beta = builtin("beta")
    assert not hasattr(beta.logl, "stackable")
    d = DataSet(np.array([[0.5], [0.25], [0.75]]))
    P = beta.param_shape.stack([[1.5, 2.0], [0.0, 1.0], [0.7, 0.3]])
    assert _bits(core.stacked_log_likelihood(beta, d, P)) == _bits(
        [core.log_likelihood(beta, d, P[i]) for i in range(3)])
    assert _bits(core._violations(beta, P)) == _bits(
        [core._violation(beta, P[i]) for i in range(3)])
    # a model without a constraint breaks none at any vector
    Q = _STACKED_IDENTITY.param_shape.stack(np.zeros((2, 1)))
    assert _bits(core._violations(_STACKED_IDENTITY, Q)) == _bits([0.0, 0.0])
    joint = transforms.d_compose(normal_model(), normal_model(), n_draws=20)
    Q = joint.param_shape.stack([[0.0, 1.0, 0.0, 1.0], [1.0, 2.0, 0.5, 1.5]])
    empty = DataSet(np.empty((1, 0)))
    assert _bits(core.stacked_log_likelihood(joint, empty, Q)) == _bits(
        [core.log_likelihood(joint, empty, Q[i]) for i in range(2)])
    with pytest.raises(ModelError, match="parameter length 2 != expected 1"):
        core.stacked_log_likelihood(builtin("exponential"), d, P)
