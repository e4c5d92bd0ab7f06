"""Catalog distributions against independently frozen oracle values."""

import math
import warnings

import numpy as np
import pytest

from modelkit import (DataSet, ModelError, Params, RandomStream, builtin,
                      estimate, mvn_model, normal_model, ols_model, pmf_model,
                      row_log_likelihood)
from modelkit import model as core


def logl1(m, x, p=None):
    p = p or m.param_shape
    return float(row_log_likelihood(m, np.array([[float(x)]]), p)[0])


def cdf1(m, x, p=None):
    p = p or m.param_shape
    return float(core.cdf(m, np.array([[float(x)]]), p)[0])


def test_normal_oracle_values():
    m = builtin("normal")
    p = Params.scalars(mu=1.0, sigma=2.0)
    # ln pdf and cdf of Normal(1,2) at 1.3, frozen from quadrature
    assert logl1(m, 1.3, p) == pytest.approx(-1.623335713764618, abs=1e-12)
    assert cdf1(m, 1.3, p) == pytest.approx(0.5596176923702425, abs=1e-12)


def test_normal_closed_estimator_is_weighted_mle():
    m = normal_model()
    d = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]),
                weights=[1.0, 1.0, 1.0, 3.0])
    fit = estimate(m, d)
    w = np.array([1, 1, 1, 3.0]) / 6.0
    x = np.array([0, 1, 2, 3.0])
    mu = w @ x
    assert fit.params.scalar("mu") == pytest.approx(mu, abs=1e-12)
    assert fit.params.scalar("sigma") == pytest.approx(
        math.sqrt(w @ (x - mu) ** 2), abs=1e-12)


def test_exponential_is_mean_parameterized():
    m = builtin("exponential")
    p = Params.scalars(mu=2.0)
    assert logl1(m, 1.5, p) == pytest.approx(-1.5 / 2 - math.log(2), abs=1e-12)
    assert cdf1(m, 1.5, p) == pytest.approx(1 - math.exp(-0.75), abs=1e-12)
    d = DataSet(np.array([[1.0], [3.0], [5.0]]))
    assert estimate(m, d).params.scalar("mu") == pytest.approx(3.0, abs=1e-12)


def test_poisson_pmf_value():
    m = builtin("poisson")
    p = Params.scalars(lam=2.0)
    # L(2; 2) = 2^2 e^-2 / 2!
    assert math.exp(logl1(m, 2.0, p)) == pytest.approx(
        4 * math.exp(-2) / 2, abs=1e-12)
    assert m.discrete


def test_poisson_likelihood_of_rows_of_inf_raises_no_warning():
    m, p = builtin("poisson"), Params.scalars(lam=1.5)
    rows = np.array([[1.0], [2.0], [np.inf], [-np.inf], [np.nan], [2.5], [3.0 + 1e-10]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = core.log_likelihood(m, DataSet(rows[:3], weights=[1.0, 1.0, 0.0]), p)
        vals = row_log_likelihood(m, rows, p)
    assert got == core.log_likelihood(m, DataSet(rows[:2]), p)
    assert np.isneginf(vals[2:6]).all()
    # the finite rows score as the whole-number test 1e-9 wide gives
    kk = np.round(rows[[0, 1, 6], 0])
    want = kk * math.log(1.5) - 1.5 - np.array([math.lgamma(k + 1) for k in kk])
    assert vals[[0, 1, 6]] == pytest.approx(want, abs=1e-12)


def test_beta_oracle_and_mle():
    m = builtin("beta")
    p = Params.scalars(alpha=0.7, beta=1.7)
    assert logl1(m, 0.3, p) == pytest.approx(0.16331915386490856, abs=1e-12)
    assert cdf1(m, 0.3, p) == pytest.approx(0.5899436823447812, abs=1e-10)
    rows = core.draw(m, p, RandomStream(7), 4000)
    fit = estimate(m, DataSet(rows))
    assert fit.params.scalar("alpha") == pytest.approx(0.7, abs=0.08)
    assert fit.params.scalar("beta") == pytest.approx(1.7, abs=0.15)


def test_weibull_oracle_values():
    m = builtin("weibull")
    p = Params([("k", [2.0]), ("lam", [1.3])])
    assert logl1(m, 1.5, p) == pytest.approx(-0.7574771870124344, abs=1e-12)
    assert cdf1(m, 1.5, p) == pytest.approx(0.7358824333500674, abs=1e-12)


def test_weibull_logl_where_k_over_lam_underflows():
    # k / lam is 0 in floating point; its log is log k - log lam
    m = builtin("weibull")
    rows = np.array([[0.5], [2.0]])
    tiny = core.row_log_likelihood(m, rows, Params.scalars(k=1e-200, lam=1e200))
    x = rows[:, 0]
    want = (math.log(1e-200) - math.log(1e200) + (1e-200 - 1) * np.log(x / 1e200)
            - (x / 1e200) ** 1e-200)
    assert tiny.tobytes() == want.tobytes()
    with np.errstate(divide="ignore"):
        at_inf = core.row_log_likelihood(m, rows, Params.scalars(k=2.0, lam=math.inf))
    assert np.all(np.isneginf(at_inf))


def test_uniform_estimator_is_range():
    m = builtin("uniform")
    d = DataSet(np.array([[0.2], [0.9], [0.4]]))
    fit = estimate(m, d)
    assert fit.params.scalar("a") == 0.2
    assert fit.params.scalar("b") == 0.9


def test_mvn_logl_oracle():
    m = mvn_model(2)
    p = Params([("mu", [0.5, -1.0]), ("cov", [2.0, 0.3, 0.3, 1.0])])
    v = float(row_log_likelihood(m, np.array([[1.0, 0.0]]), p)[0])
    assert v == pytest.approx(-2.6718998916270964, abs=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.7])
def test_mvn_cdf_at_the_mean(rho):
    # P(X <= 0, Y <= 0) = 1/4 + arcsin(rho) / (2 pi) for unit variances
    m = mvn_model(2)
    p = Params([("mu", [0.0, 0.0]), ("cov", [1.0, rho, rho, 1.0])])
    assert m.strategy["CDF"] == "closed-form"
    exact = 0.25 + math.asin(rho) / (2 * math.pi)
    assert core.cdf(m, [0.0, 0.0], p) == pytest.approx(exact, abs=1e-5)
    # seeded per row: repeatable, and no row moves another
    vals = core.cdf(m, np.array([[0.0, 0.0], [1.0, -0.5], [0.0, 0.0]]), p)
    assert vals[0] == vals[2] == core.cdf(m, [0.0, 0.0], p)


def test_mvn_cdf_needs_a_positive_definite_covariance():
    m = mvn_model(2)
    p = Params([("mu", [0.0, 0.0]), ("cov", [1.0, 2.0, 2.0, 1.0])])
    with pytest.raises(ModelError, match="mvn: element CDF"):
        core.cdf(m, [0.0, 0.0], p)


def test_pmf_weights_and_matching():
    sup = DataSet(np.array([[0.0], [1.0], [2.0]]), weights=[1.0, 2.0, 1.0])
    m = pmf_model(sup)
    p = m.param_shape
    assert math.exp(logl1(m, 1.0, p)) == pytest.approx(0.5, abs=1e-12)
    assert math.exp(logl1(m, 5.0, p)) == 0.0
    assert cdf1(m, 1.0, p) == pytest.approx(0.75, abs=1e-12)


def test_a_repeated_pmf_support_row_scores_its_total_weight():
    rows = np.array([[2.0, 0.0], [1.0, 5.0], [1.0, 5.0], [0.0, 1.0], [1.0, 5.0]])
    m = pmf_model(DataSet(rows, weights=[1.0, 1.0, 2.0, 4.0, 0.0]))
    p = m.param_shape
    # the support and its weights stay row for row as given, sorted
    assert m.settings["pmf_support"].rows.tolist() == sorted(rows.tolist())
    assert p.block("w").tolist() == [0.5, 0.125, 0.25, 0.0, 0.125]
    got = np.exp(core.row_log_likelihood(m, np.array([[1.0, 5.0], [0.0, 1.0]]), p))
    assert got.tolist() == pytest.approx([0.375, 0.5], abs=1e-15)
    # the mass of (1, 5) is the CDF's step there
    below = core.cdf(m, np.array([[1.0, 4.0], [1.0, 5.0]]), p)
    assert below[1] - below[0] == pytest.approx(got[0], abs=1e-15)
    # three draws, two of them equal: each of those scores 2/3, as the
    # estimate on them says, which puts the weight on the first copy
    d = DataSet(rows[:3])
    sample = pmf_model(d)
    want = 2 * math.log(2 / 3) + math.log(1 / 3)
    assert core.log_likelihood(sample, d, sample.param_shape) == pytest.approx(want)
    fit = estimate(sample, d)
    assert fit.params.block("w").tolist() == pytest.approx([2 / 3, 0.0, 1 / 3])
    assert fit.log_likelihood_at_optimum == pytest.approx(want)


def test_a_pmf_support_row_near_another_is_its_own_point():
    # 1e-13 is a point of its own beside 0: each scores its own 1/3, and the
    # CDF steps by that mass at each
    m = pmf_model(DataSet(np.array([[0.0], [1e-13], [1.0]])))
    p = m.param_shape
    for x in (0.0, 1e-13):
        assert math.exp(logl1(m, x, p)) == pytest.approx(1 / 3, abs=1e-15)
        step = cdf1(m, x, p) - cdf1(m, np.nextafter(x, -1.0), p)
        assert step == pytest.approx(1 / 3, abs=1e-15)


def test_pmf_estimator_reweights_the_support_by_the_data():
    m = pmf_model(DataSet(np.array([[0.0], [1.0], [2.0]])))
    # 7.0, 1 + 1e-13 and 0.5 lie off the support and are ignored: a row is
    # a support point only when its bits equal a support row's
    d = DataSet(np.array([[1.0], [2.0], [7.0], [1.0 + 1e-13], [0.5]]),
                weights=[1.0, 3.0, 5.0, 2.0, 4.0])
    fit = estimate(m, d)
    assert fit.params.block("w").tolist() == [0.0, 0.25, 0.75]
    # the off-support rows score -inf under the fitted weights
    assert fit.log_likelihood_at_optimum == -math.inf
    sup2 = pmf_model(DataSet(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])))
    w = sup2.est(DataSet(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))).block("w")
    # the support is sorted: (0, 0), (0, 1), (1, 0)
    assert w.tolist() == pytest.approx([0.0, 2.0 / 3.0, 1.0 / 3.0], abs=1e-15)
    with pytest.raises(ModelError, match="no data row lies on the support"):
        m.est(DataSet(np.array([[0.5], [9.0]])))


def test_pmf_constraint_is_the_distance_from_the_simplex():
    c = pmf_model(DataSet(np.array([[0.0], [1.0]]))).constraint
    assert c(Params([("w", [0.25, 0.75])])) == 0.0
    assert c(Params([("w", [0.25, 0.75 + 1e-13])])) == 0.0
    assert c(Params([("w", [-0.5, 1.5])])) == pytest.approx(0.5, abs=1e-15)
    assert c(Params([("w", [0.5, 0.7])])) == pytest.approx(0.2, abs=1e-15)


def test_ols_recovers_plane():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2))
    y = 1.5 + 2.0 * x[:, 0] - 0.5 * x[:, 1] + 0.1 * rng.normal(size=200)
    d = DataSet(np.column_stack([y, x]))
    m = ols_model(d)
    fit = estimate(m, d)
    assert fit.model is m
    beta = fit.params.block("beta")
    assert beta == pytest.approx([1.5, 2.0, -0.5], abs=0.05)
    assert fit.params.scalar("sigma") == pytest.approx(0.1, abs=0.03)
    # the model over its design has a likelihood ...
    rows = np.column_stack([y, x])[:5]
    assert np.all(np.isfinite(row_log_likelihood(fit.model, rows, fit.params)))
    # ... and a sampler drawing X from the design alone
    assert fit.model.strategy["RNG"] == core.resolve(fit.model)["RNG"] == "closed-form"
    draws = core.draw(fit.model, fit.params, RandomStream(4), 300)
    assert np.all((draws[:, 1:, None] == x.T[None]).all(axis=1).any(axis=1))


def test_collinear_design_rejected():
    x = np.ones((20, 1))
    y = np.arange(20.0)
    d = DataSet(np.column_stack([y, x]))
    with pytest.raises(ModelError, match="collinear"):
        estimate(ols_model(d), d)


def test_ols_errors_name_the_model_and_the_element():
    x = np.arange(20.0)
    d = DataSet(np.column_stack([x, x, x + 1.0]))  # the regressors differ by 1
    with pytest.raises(ModelError, match=r"^ols: element Est: collinear design$"):
        estimate(ols_model(d), d)
    with pytest.raises(ModelError, match=r"^ols: element L: a design row needs "
                                         r"y and at least one regressor column; "
                                         r"got 1 column\(s\)$"):
        ols_model(DataSet(x.reshape(-1, 1)))


def test_builtin_unknown_name():
    with pytest.raises(ModelError):
        builtin("cauchy")


@pytest.mark.parametrize("name, params, rows", [
    ("normal", dict(mu=0.0, sigma=0.0), [1.0, 2.0]),
    ("normal", dict(mu=0.0, sigma=-1.0), [-1.0, 2.0]),
    ("exponential", dict(mu=0.0), [1.0]),
    ("exponential", dict(mu=-2.0), [1.0]),
    ("poisson", dict(lam=0.0), [0.0, 1.0]),
    ("beta", dict(alpha=0.0, beta=1.0), [0.5]),
    ("beta", dict(alpha=1.0, beta=-1.0), [0.5]),
    ("uniform", dict(a=1.0, b=1.0), [1.0]),
    ("uniform", dict(a=2.0, b=1.0), [1.5]),
    ("weibull", dict(k=0.0, lam=1.0), [1.0]),
    ("weibull", dict(k=1.0, lam=-1.0), [1.0]),
])
def test_catalog_likelihood_is_minus_inf_at_invalid_parameters(name, params, rows):
    m = builtin(name)
    d = DataSet(np.array(rows), weights=np.linspace(1.0, 2.0, len(rows)))
    p = m.param_shape.with_blocks(**params)
    assert core.log_likelihood(m, d, p) == -math.inf
    assert np.all(row_log_likelihood(m, d.rows, p) == -math.inf)


def test_normal_with_zero_sigma_puts_all_its_mass_on_mu():
    m = normal_model()
    p = Params.scalars(mu=1.5, sigma=0.0)
    assert core.log_likelihood(m, DataSet(np.array([1.5, 1.5])), p) == 0.0
    assert core.log_likelihood(m, DataSet(np.array([1.5, 2.0])), p) == -math.inf
    # a zero-weight row off mu does not count
    assert core.log_likelihood(m, DataSet(np.array([1.5, 2.0]), [1.0, 0.0]), p) == 0.0
    assert core.cdf(m, [[1.0], [1.5], [2.0]], p).tolist() == [0.0, 1.0, 1.0]


def test_mvn_likelihood_is_minus_inf_at_a_singular_covariance():
    m = mvn_model(2)
    p = m.param_shape.with_blocks(cov=[1.0, 1.0, 1.0, 1.0])
    assert core.log_likelihood(m, DataSet(np.zeros((3, 2))), p) == -math.inf


def test_a_fit_at_zero_sigma_flags_its_constraint():
    # an exact-fit design and constant data both estimate sigma = 0, which
    # breaks sigma > 0 by the catalog's 1e-8
    rows = np.array([[1.0, 0.0], [3.0, 1.0], [5.0, 2.0]])  # y = 1 + 2x
    ols = estimate(ols_model(DataSet(rows)), DataSet(rows))
    flat = estimate(normal_model(), DataSet(np.full(5, 2.0)))
    for fit in (ols, flat):
        assert fit.params.scalar("sigma") == 0.0
        assert fit.constraint_violation == 1e-8


def test_ols_with_zero_sigma_scores_only_exact_fits():
    rows = np.array([[1.0, 0.0], [3.0, 1.0], [5.0, 2.0]])  # y = 1 + 2x
    fit = estimate(ols_model(DataSet(rows)), DataSet(rows))
    p = fit.params.with_blocks(sigma=0.0)
    assert core.log_likelihood(fit.model, DataSet(rows), p) == 0.0
    off = rows + [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert core.log_likelihood(fit.model, DataSet(off), p) == -math.inf


@pytest.mark.parametrize("call, message", [
    (lambda: mvn_model(0), r"mvn_model needs dim >= 1"),
    (lambda: pmf_model(DataSet(np.empty((0, 1)))), "pmf_model needs a nonempty support"),
], ids=["mvn-dim", "pmf-empty"])
def test_distribution_errors_name_their_cause(call, message):
    with pytest.raises(ModelError, match=message):
        call()
