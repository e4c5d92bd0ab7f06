"""Prediction, covariance estimators, and distribution comparison."""

import dataclasses
import functools
import math
import weakref

import numpy as np
import pytest

from modelkit import (CovarianceEstimate, DataSet, ModelError, Params,
                      RandomStream, bin_to_pmf, bootstrap_cov, builtin,
                      entropy, estimate, fisher_info_cov, fix, jackknife_cov,
                      kl_divergence, ks_stat,
                      mvn_model, normal_model, pmf_model, predict,
                      replication_cov, rmse)
from modelkit import model as core


def two_point(w0: float) -> "pmf_model":
    return pmf_model(DataSet(np.array([[0.0], [1.0]]), weights=[w0, 1 - w0]))


def test_predict_fills_conditional_mode():
    m = mvn_model(2)
    p = Params([("mu", [0.5, -1.0]), ("cov", [2.0, 0.3, 0.3, 1.0])])
    fit = core.FittedModel(m, p, 0.0, 0, True, 0.0)
    row, ok = predict(fit, [math.nan, 0.0])
    # conditional mode: mu1 + c12/c22 * (x2 - mu2) = 0.8
    assert ok
    assert row[0] == pytest.approx(0.8, abs=1e-4)
    assert row[1] == 0.0


def test_predict_complete_row_is_identity():
    m = normal_model()
    fit = estimate(m, DataSet(np.array([[0.0], [2.0]])))
    row, ok = predict(fit, [1.5])
    assert ok and row[0] == 1.5


def test_bootstrap_cov_of_the_mean():
    stream = RandomStream(12)
    d = DataSet(stream.normal(0.0, 2.0, size=200).reshape(-1, 1))
    cov = bootstrap_cov(normal_model(), d, reps=300, s=RandomStream(1))
    assert cov.method == "bootstrap"
    assert cov.matrix[0, 0] == pytest.approx(4.0 / 200, rel=0.35)


def test_bootstrap_preconditions():
    d = DataSet(np.arange(5.0).reshape(-1, 1))
    with pytest.raises(ModelError, match="10 rows"):
        bootstrap_cov(normal_model(), d)
    d = DataSet(np.arange(20.0).reshape(-1, 1))
    with pytest.raises(ModelError, match="reps"):
        bootstrap_cov(normal_model(), d, reps=10)


def test_jackknife_cov_of_the_mean():
    stream = RandomStream(13)
    d = DataSet(stream.normal(0.0, 2.0, size=200).reshape(-1, 1))
    cov = jackknife_cov(normal_model(), d)
    assert cov.matrix[0, 0] == pytest.approx(4.0 / 200, rel=0.35)


def test_replication_cov_tracks_sampler_spread():
    cov = replication_cov(builtin("exponential"),
                          params=Params.scalars(mu=2.0), reps=120,
                          s=RandomStream(4), n_per_rep=100)
    # var(mean of 100 exponentials with mean 2) = 4/100
    assert cov.matrix[0, 0] == pytest.approx(0.04, rel=0.35)


def _fails_without(values):
    """A Normal mean model whose estimator raises when any of ``values`` is
    missing from the data: absent, or of weight 0."""
    def logl(rows, p):
        return -0.5 * (rows[:, 0] - p.scalar("mu")) ** 2

    def est(d):
        if any(v not in d.rows[d.weights > 0, 0] for v in values):
            raise ModelError("probe: a marker row is missing")
        return Params.scalars(mu=float(np.average(d.rows[:, 0], weights=d.weights)))

    return core.Model("probe", 1, Params.scalars(mu=0.0), logl=logl, est=est)


@pytest.mark.parametrize("missing", [1, 2])
def test_replicate_failures_up_to_a_fifth_are_skipped_with_a_warning(missing):
    d = DataSet(np.arange(10.0).reshape(-1, 1))
    with pytest.warns(UserWarning, match=f"skipped {missing} failed"):
        cov = jackknife_cov(_fails_without(range(missing)), d)
    assert cov.replicates == 10 - missing


def test_replicate_failures_above_a_fifth_raise():
    d = DataSet(np.arange(10.0).reshape(-1, 1))
    with pytest.raises(ModelError, match="3 of 10 replicate estimates failed"):
        jackknife_cov(_fails_without(range(3)), d)


def test_replication_draw_errors_propagate():
    def rng(p, stream, n):
        raise ModelError("probe: sampler broke")

    m = core.Model("probe", 1, Params.scalars(mu=0.0), rng=rng)
    with pytest.raises(ModelError, match="sampler broke"):
        replication_cov(m, fit_model=normal_model(), reps=5)


# ---------------------------------------------------------------------------
# Replicate fits in lockstep against one estimate per replicate


def _sequential_cov(m, datasets, method, jackknife=False):
    """The replicate covariance as one core.estimate per data set, in turn:
    the loop that preceded lockstep fits, kept as the reference.  Returns
    the covariance estimate and the number of failed fits."""
    estimates, failures = [], 0
    for d in datasets:
        try:
            estimates.append(core.estimate(m, d).params.flatten())
        except ModelError:
            failures += 1
    if failures > 0.2 * len(datasets):
        raise ModelError(f"{method}: {failures} of {len(datasets)} "
                         f"replicate estimates failed")
    est = np.array(estimates)
    g = est.shape[0]
    dev = est - est.mean(axis=0)
    mat = (g - 1) / g * (dev.T @ dev) if jackknife else dev.T @ dev / max(g - 1, 1)
    return CovarianceEstimate(mat, method, g), failures


def _picks(d, reps, s):
    """The rows each bootstrap resample draws, by weight, in draw order."""
    n = len(d)
    prob = d.weights / d.weights.sum()
    return [s.split(r).choice(n, p=prob, size=n) for r in range(reps)]


def _resamples(d, reps, s):
    """Each resample as d's rows weighed by the times each was drawn."""
    return [DataSet(d.rows, np.bincount(picks, minlength=len(d)))
            for picks in _picks(d, reps, s)]


def _leave_one_out(d):
    """Each leave-one-out replicate as d's rows with one weight set to 0."""
    row = np.arange(len(d))
    return [DataSet(d.rows, np.where(row == i, 0.0, d.weights)) for i in range(len(d))]


def _replicates(m, reps, s, params, n):
    return [DataSet(core.draw(m, params, s.split(r), n)) for r in range(reps)]


def _counting(m):
    """m with a logl that records the shape of each parameter vector it
    gets: (2,) for one vector, (K, 2) for a stack."""
    shapes = []

    @functools.wraps(m.logl)
    def logl(rows, p):
        shapes.append(p.vector.shape)
        return m.logl(rows, p)
    return dataclasses.replace(m, logl=logl), shapes


_WEIBULL = Params.scalars(k=1.5, lam=2.0)
_BETA = Params.scalars(alpha=2.0, beta=3.0)
_PINNED = builtin("weibull").param_shape.pin(k=1.5)


@pytest.mark.parametrize("name,truth", [("weibull", _WEIBULL), ("beta", _BETA),
                                        ("pinned-weibull", _PINNED)])
@pytest.mark.parametrize("method", ["bootstrap", "jackknife", "replication"])
def test_lockstep_replicate_fits_are_the_sequential_fits(name, truth, method):
    # a pinned k leaves one free entry: each fit's simplex has two vertices
    m, shapes = _counting(fix(builtin("weibull"), _PINNED) if name == "pinned-weibull"
                          else builtin(name))
    d = DataSet(core.draw(m, truth, RandomStream(21), 30))
    if method == "bootstrap":
        got = bootstrap_cov(m, d, reps=100, s=RandomStream(22))
        want, _ = _sequential_cov(m, _resamples(d, 100, RandomStream(22)), method)
    elif method == "jackknife":
        got = jackknife_cov(m, d)
        want, _ = _sequential_cov(m, _leave_one_out(d), method, jackknife=True)
    else:
        got = replication_cov(m, reps=25, s=RandomStream(23), params=truth,
                              n_per_rep=30)
        want, _ = _sequential_cov(m, _replicates(m, 25, RandomStream(23), truth, 30),
                                  method)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert (got.method, got.replicates) == (method, want.replicates)
    # a stackable model's bootstrap and jackknife fits share stacked calls;
    # fresh draws and other models are scored one vector at a time
    stacked = name != "beta" and method != "replication"
    assert any(len(shape) == 2 for shape in shapes) == stacked
    if name == "pinned-weibull":  # every fit returns the pinned k unchanged
        assert not got.matrix[0].any() and not got.matrix[:, 0].any()
        assert got.matrix[1, 1] > 0


@pytest.mark.parametrize("method", ["bootstrap", "jackknife"])
def test_fits_from_sufficient_statistics_are_the_sequential_fits(method):
    # a pinned sigma makes the Normal's estimate an MLE whose logl stacks;
    # its fits read each replicate's statistics, as estimate does
    m = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    d = DataSet(core.draw(m, m.param_shape, RandomStream(37), 30))
    assert not core._fits_in_lockstep(m, d)
    if method == "bootstrap":
        got = bootstrap_cov(m, d, reps=100, s=RandomStream(38))
        want, _ = _sequential_cov(m, _resamples(d, 100, RandomStream(38)), method)
    else:
        got = jackknife_cov(m, d)
        want, _ = _sequential_cov(m, _leave_one_out(d), method, jackknife=True)
    assert got.matrix.tobytes() == want.matrix.tobytes()


def _with_a_rare_bad_row(weight):
    """30 Weibull draws and a row at 0, which a Weibull scores -inf, drawn
    into a resample with probability ``weight`` / 30 per draw."""
    rows = core.draw(builtin("weibull"), _WEIBULL, RandomStream(24), 30)
    return DataSet(np.vstack([rows, [[0.0]]]), np.r_[np.ones(30), weight])


def test_lockstep_bootstrap_skips_fits_with_an_infeasible_start_as_before():
    m = builtin("weibull")
    d = _with_a_rare_bad_row(0.07)
    want, failed = _sequential_cov(m, _resamples(d, 100, RandomStream(25)), "bootstrap")
    assert 0 < failed <= 20
    with pytest.warns(UserWarning, match=f"skipped {failed} failed"):
        got = bootstrap_cov(m, d, reps=100, s=RandomStream(25))
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.replicates == 100 - failed


def test_lockstep_bootstrap_raises_when_more_than_a_fifth_fail_as_before():
    m = builtin("weibull")
    d = _with_a_rare_bad_row(0.5)
    with pytest.raises(ModelError) as before:
        _sequential_cov(m, _resamples(d, 100, RandomStream(25)), "bootstrap")
    with pytest.raises(ModelError, match="replicate estimates failed") as now:
        bootstrap_cov(m, d, reps=100, s=RandomStream(25))
    assert str(now.value) == str(before.value)


def test_a_stacked_call_that_raises_fails_only_the_fits_whose_vector_raises():
    base = builtin("weibull")

    @functools.wraps(base.logl)
    def logl(rows, p):
        if np.any(p.vector[..., 1] > 3.0):
            raise ModelError("probe: lam out of range")
        return base.logl(rows, p)

    m = dataclasses.replace(base, logl=logl)
    d = DataSet(core.draw(base, _WEIBULL, RandomStream(26), 30))
    want, failed = _sequential_cov(m, _resamples(d, 100, RandomStream(27)), "bootstrap")
    assert 0 < failed <= 20
    with pytest.warns(UserWarning, match=f"skipped {failed} failed"):
        got = bootstrap_cov(m, d, reps=100, s=RandomStream(27))
    assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("zeros", [False, True], ids=["stacked", "zero-weights"])
def test_lockstep_jackknife_of_a_weighted_data_set(zeros):
    # rows of weight 0 count for nothing: the replicates leave out each row
    # of positive weight in turn, and their fits stack
    m, shapes = _counting(builtin("weibull"))
    w = 1.0 + np.arange(20) % 3
    if zeros:
        w[::5] = 0.0
    d = DataSet(core.draw(m, _WEIBULL, RandomStream(28), 20), w)
    want, _ = _sequential_cov(m, _leave_one_out(d.positive()), "jackknife",
                              jackknife=True)
    assert want.replicates == (16 if zeros else 20)
    del shapes[:]
    assert jackknife_cov(m, d).matrix.tobytes() == want.matrix.tobytes()
    assert any(len(shape) == 2 for shape in shapes)


@pytest.mark.parametrize("method", ["bootstrap", "jackknife"])
def test_lockstep_replicate_fits_run_in_chunks_of_bounded_weight_values(method,
                                                                        monkeypatch):
    # each chunk of weight rows holds at most BLOCK_ENTRIES values, and the
    # fits are the same however the replicates are chunked, and however a
    # round's stacked call is split into blocks of vectors
    m = builtin("weibull")
    d = DataSet(core.draw(m, _WEIBULL, RandomStream(21), 30))
    sizes, lockstep_fits = [], core._lockstep_fits

    def counted(m, base, weights):
        sizes.append(weights.size)
        return lockstep_fits(m, base, weights)

    def run():
        if method == "bootstrap":
            return bootstrap_cov(m, d, reps=100, s=RandomStream(22))
        return jackknife_cov(m, d)

    monkeypatch.setattr(core, "_lockstep_fits", counted)
    whole = run()
    replicates = 100 if method == "bootstrap" else 30
    assert sizes == [30 * replicates]
    del sizes[:]
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 30 * 7 + 29)  # 7 weight rows
    monkeypatch.setattr(core, "STACK_ENTRIES", 30 * 5)  # 5 vectors a block
    assert run().matrix.tobytes() == whole.matrix.tobytes()
    assert len(sizes) == -(-replicates // 7) and max(sizes) <= 30 * 7
    assert sum(sizes) == 30 * replicates


def _normal_with_zero_weight_rows():
    """12 Normal draws, and 6 rows at 5.0 of weight 0."""
    draws = RandomStream(3).normal(0.0, 1.0, size=12)
    return draws, DataSet(np.r_[draws, np.full(6, 5.0)], np.r_[np.ones(12), np.zeros(6)])


@pytest.mark.parametrize("name", ["normal", "weibull"])
@pytest.mark.parametrize("method", ["bootstrap", "jackknife"])
def test_rows_of_weight_zero_count_for_nothing_in_replicate_covariances(method, name):
    # a normal fits in closed form, one replicate at a time; a weibull's
    # replicates fit in lockstep
    m = builtin(name)
    draws, d = _normal_with_zero_weight_rows()
    if name == "weibull":
        draws = np.exp(draws)
        d = DataSet(np.r_[draws, np.full(6, 5.0)], d.weights)
    cov = bootstrap_cov if method == "bootstrap" else jackknife_cov
    assert cov(m, d).matrix.tobytes() == cov(m, DataSet(draws)).matrix.tobytes()


@pytest.mark.parametrize("method", ["bootstrap", "jackknife"])
def test_replicate_covariances_count_only_rows_of_positive_weight(method):
    d = DataSet(np.r_[np.arange(9.0), np.zeros(5)], np.r_[np.ones(9), np.zeros(5)])
    cov = bootstrap_cov if method == "bootstrap" else jackknife_cov
    with pytest.raises(ModelError, match=f"{method} needs at least 10 rows"):
        cov(normal_model(), d)


@pytest.mark.parametrize("name", ["weibull", "beta"])
def test_jackknife_needs_two_rows_of_positive_weight(name):
    # leaving out the one row of positive weight would leave no row to fit,
    # whether the fits stack (weibull) or not (beta)
    d = DataSet(RandomStream(36).uniform(0.2, 0.8, size=12), np.r_[1.0, np.zeros(11)])
    with pytest.raises(ModelError, match="jackknife needs two rows of positive weight"):
        jackknife_cov(builtin(name), d)


def test_bootstrap_weight_rows_fit_as_the_rows_they_count():
    # a resample weighs each row by the times it was drawn: the fits are
    # those of the drawn rows, up to the order the sums run in
    d = DataSet(core.draw(normal_model(), normal_model().param_shape, RandomStream(34), 30))
    drawn = [DataSet(d.rows[picks]) for picks in _picks(d, 100, RandomStream(35))]
    want, _ = _sequential_cov(normal_model(), drawn, "bootstrap")
    got = bootstrap_cov(normal_model(), d, reps=100, s=RandomStream(35))
    assert np.allclose(got.matrix, want.matrix, rtol=1e-9, atol=0)


@pytest.mark.parametrize("method", ["bootstrap", "jackknife", "replication"])
def test_fits_that_do_not_stack_hold_one_replicate_at_a_time(method, monkeypatch):
    # beta's logl does not stack, so its fits run one after another, and
    # each replicate data set is freed before the next is made
    live, most = weakref.WeakSet(), []

    class Tracked(DataSet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)

    base = builtin("beta")

    @functools.wraps(base.logl)
    def logl(rows, p):
        most.append(len(live))
        return base.logl(rows, p)

    def summarize(rows, w):  # a fit reads its replicate once, into statistics
        most.append(len(live))
        return base.logl.sufficient(rows, w)

    logl.sufficient = summarize
    m = dataclasses.replace(base, logl=logl)
    d = DataSet(core.draw(m, _BETA, RandomStream(29), 30))
    monkeypatch.setattr("modelkit.inference.DataSet", Tracked)
    if method == "bootstrap":
        bootstrap_cov(m, d, reps=100, s=RandomStream(30))
    elif method == "jackknife":
        jackknife_cov(m, d)
    else:
        replication_cov(m, reps=25, s=RandomStream(31), params=_BETA, n_per_rep=30)
    assert 0 < max(most) <= 2


def test_replication_fits_keep_estimates_preconditions():
    # replication fits one replicate at a time: never in lockstep
    with pytest.raises(ModelError, match="replication: 5 of 5 replicate"):
        replication_cov(builtin("weibull"), reps=5, params=_WEIBULL, n_per_rep=0)


@pytest.mark.parametrize("method", ["bootstrap", "jackknife"])
def test_replicate_fits_on_rows_of_the_wrong_dimension_fail_as_before(method):
    # weibull's fits stack, but its 1-column rows cannot be 2-column ones,
    # so every fit fails, as estimate's row check makes it
    m = builtin("weibull")
    d = DataSet(RandomStream(32).uniform(1.0, 2.0, size=(20, 2)))
    if method == "bootstrap":
        replicates = _resamples(d, 100, RandomStream(33))
    else:
        replicates = _leave_one_out(d)
    with pytest.raises(ModelError) as before:
        _sequential_cov(m, replicates, method, jackknife=method == "jackknife")
    total = len(replicates)
    with pytest.raises(ModelError, match=f"{method}: {total} of {total} "
                                         f"replicate estimates failed") as now:
        if method == "bootstrap":
            bootstrap_cov(m, d, reps=100, s=RandomStream(33))
        else:
            jackknife_cov(m, d)
    assert str(now.value) == str(before.value)


def test_covariance_csv_round_trip(tmp_path):
    import csv

    d = DataSet(RandomStream(14).normal(1.0, 2.0, size=50).reshape(-1, 1))
    cov = jackknife_cov(normal_model(), d)
    cov.to_csv(tmp_path / "cov.csv")
    with open(tmp_path / "cov.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["", "mu", "sigma"]
    assert [r[0] for r in rows[1:]] == ["mu", "sigma"]
    back = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert np.array_equal(back, cov.matrix)


def test_fisher_info_cov_normal():
    stream = RandomStream(14)
    d = DataSet(stream.normal(1.0, 2.0, size=400).reshape(-1, 1))
    fit = estimate(normal_model(), d)
    cov = fisher_info_cov(fit, d)
    s2 = fit.params.scalar("sigma") ** 2
    assert cov.matrix[0, 0] == pytest.approx(s2 / 400, rel=0.05)
    assert cov.matrix[1, 1] == pytest.approx(s2 / 800, rel=0.05)
    assert cov.labels == ["mu", "sigma"]


def test_fisher_needs_interior_maximum():
    d = DataSet(np.array([[0.0], [1.0], [2.0], [0.5], [1.5], [0.2], [1.8],
                          [0.9], [1.1], [1.0]]))
    m = normal_model()
    bad = core.FittedModel(m, Params.scalars(mu=-3.0, sigma=1.0), 0.0, 0,
                           True, 0.0)
    with pytest.raises(ModelError, match="interior maximum"):
        fisher_info_cov(bad, d)


def test_bin_to_pmf_projects_onto_support():
    anchor = pmf_model(DataSet(np.array([[0.0], [1.0], [2.0]])))
    binned = bin_to_pmf(builtin("poisson"), Params.scalars(lam=1.0), anchor)
    w = binned.param_shape.block("w")
    want = np.array([1.0, 1.0, 0.5])
    want /= want.sum()
    assert w == pytest.approx(want, abs=1e-9)


def test_comparison_metrics_hand_values():
    a, b = two_point(0.5), two_point(0.25)
    assert ks_stat(a, b) == pytest.approx(0.25, abs=1e-12)
    assert kl_divergence(a, b) == pytest.approx(0.5 * math.log(4.0 / 3.0),
                                                abs=1e-12)
    assert rmse(a, b) == pytest.approx(0.25, abs=1e-12)
    assert entropy(a) == pytest.approx(math.log(2), abs=1e-12)


def test_kl_infinite_when_reference_misses_mass():
    a = two_point(0.5)
    b = pmf_model(DataSet(np.array([[0.0], [1.0]]), weights=[1.0, 0.0]))
    with pytest.warns(UserWarning, match="zero mass"):
        assert kl_divergence(a, b) == math.inf


def test_metrics_require_shared_support():
    a = two_point(0.5)
    c = pmf_model(DataSet(np.array([[0.0], [2.0]])))
    with pytest.raises(ModelError, match="shared support"):
        ks_stat(a, c)


def _fitted_with_nothing_free():
    m = normal_model()
    return estimate(fix(m, m.param_shape.pin(mu=0.0, sigma=1.0)), DataSet(np.arange(3.0)))


@pytest.mark.parametrize("call, message", [
    (lambda: jackknife_cov(normal_model(), DataSet(np.arange(9.0))),
     "jackknife needs at least 10 rows"),
    (lambda: replication_cov(normal_model(), fit_model=mvn_model(2)),
     "replication_cov: data dims incompatible"),
    (lambda: fisher_info_cov(_fitted_with_nothing_free(), DataSet(np.arange(3.0))),
     "fisher_info_cov: no free parameters"),
    (lambda: bin_to_pmf(normal_model(), Params.scalars(mu=0.0, sigma=1.0), normal_model()),
     "bin_to_pmf anchor must be a PMF model"),
    (lambda: bin_to_pmf(mvn_model(2), mvn_model(2).param_shape, two_point(0.5)),
     "bin_to_pmf: data spaces differ"),
    (lambda: bin_to_pmf(builtin("uniform"), Params.scalars(a=5.0, b=6.0), two_point(0.5)),
     "bin_to_pmf: model puts zero mass on the whole support"),
    (lambda: ks_stat(normal_model(), two_point(0.5)), "comparison metrics need PMF models"),
], ids=["jackknife-rows", "replication-dims", "fisher-free", "bin-anchor", "bin-dims",
        "bin-mass", "metric-pmf"])
def test_inference_errors_name_their_cause(call, message):
    with pytest.raises(ModelError, match=message):
        call()
