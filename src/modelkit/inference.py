"""Applications layer: prediction, covariance estimators, model comparison."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import model as core
from . import solvers, transforms
from .data import DataSet, ModelError, Params, RandomStream, row_keys, write_csv
from .model import FittedModel, Model


@dataclass
class CovarianceEstimate:
    """Covariance over parameter coordinates, with its provenance."""
    matrix: np.ndarray
    method: str  # bootstrap | jackknife | fisher | replication
    replicates: int
    labels: list[str] | None = None

    def __post_init__(self):
        self.matrix = 0.5 * (self.matrix + self.matrix.T)

    def to_csv(self, path) -> None:
        labels = self.labels or [f"p{i}" for i in range(self.matrix.shape[0])]
        write_csv(path, [""] + labels,
                  ([lab, *row] for lab, row in zip(labels, self.matrix)))


# ---------------------------------------------------------------------------
# Prediction


def predict(fm: FittedModel, row) -> tuple[np.ndarray, bool]:
    """Fill missing (NaN) coordinates with their most likely values.

    Builds fix(swap(model), known coordinates pinned), whose estimate over
    the free coordinates is the conditional mode.  Returns the completed
    row and a convergence flag; a row with nothing missing is returned
    unchanged.
    """
    row = np.asarray(row, dtype=float).ravel()
    missing = np.isnan(row)
    if not missing.any():
        return row.copy(), True
    sw = transforms.swap(fm.model)
    start = np.where(missing, 0.0, row)
    pinned = Params([("d", start)], ~missing)
    fx = transforms.fix(sw, pinned)
    fit = core.estimate(fx, DataSet(fm.params.flatten().reshape(1, -1)))
    return fit.params.flatten(), fit.converged


# ---------------------------------------------------------------------------
# Covariance estimators


def _replicate_cov(m: Model, fits, total: int, method: str,
                   jackknife: bool = False) -> CovarianceEstimate:
    """Covariance of m's estimates from the replicate fits: each a flat
    parameter vector, or the ModelError its fit raised.  A failed fit is
    skipped with a warning; more than 20% of ``total`` failing raises."""
    estimates, failures = [], 0
    for fit in fits:
        if isinstance(fit, ModelError):
            failures += 1
        else:
            estimates.append(fit)
    if failures > 0.2 * total:
        raise ModelError(
            f"{method}: {failures} of {total} replicate estimates failed")
    if failures:
        warnings.warn(f"{method}: skipped {failures} failed replicates")
    est = np.array(estimates)
    g = est.shape[0]
    dev = est - est.mean(axis=0)
    if jackknife:
        mat = (g - 1) / g * (dev.T @ dev)
    else:
        mat = dev.T @ dev / max(g - 1, 1)
    return CovarianceEstimate(mat, method, g, m.param_shape.labels())


def _fits(m: Model, datasets):
    """estimate(m, d).params.flatten() for each data set d, one at a time,
    or the ModelError that fit raises.  Errors while making a data set
    propagate."""
    for d in datasets:
        try:
            yield core.estimate(m, d).params.flatten()
        except ModelError as e:
            yield e


def _weighted_fits(m: Model, d: DataSet, weight_rows):
    """The fits of _fits on d's rows weighed by each row of the iterable
    weight_rows.  When m and d allow it (model._fits_in_lockstep), the fits
    run in lockstep, a chunk of weight rows holding at most about
    BLOCK_ENTRIES values at a time; else one at a time."""
    if not core._fits_in_lockstep(m, d):
        return _fits(m, (DataSet(d.rows, w) for w in weight_rows))
    weight_rows = iter(weight_rows)
    per_chunk = max(1, core.BLOCK_ENTRIES // len(d))
    fits = []
    while len(chunk := np.array(list(itertools.islice(weight_rows, per_chunk)), float)):
        fits += core._lockstep_fits(m, d, chunk)
    return fits


def bootstrap_cov(m: Model, d: DataSet, reps: int = 500,
                  s: RandomStream | None = None) -> CovarianceEstimate:
    """Covariance of estimates over resamples drawn with replacement.  A
    resample draws n rows by weight from d's n rows of positive weight; it
    is those rows, each weighed by the number of times it was drawn."""
    d = d.positive()
    if len(d) < 10:
        raise ModelError("bootstrap needs at least 10 rows")
    if reps < 100:
        raise ModelError("bootstrap needs reps >= 100")
    s = s or RandomStream(0xB007)
    n = len(d)
    prob = d.weights / d.weights.sum()
    counts = (np.bincount(s.split(r).choice(n, p=prob, size=n), minlength=n)
              for r in range(reps))
    return _replicate_cov(m, _weighted_fits(m, d, counts), reps, "bootstrap")


def jackknife_cov(m: Model, d: DataSet) -> CovarianceEstimate:
    """Leave-one-out covariance over the n fits that each weigh one of d's n
    rows of positive weight 0, with the standard (n-1)/n inflation."""
    if np.count_nonzero(d.weights) < 2:  # a replicate would weigh no row
        raise ModelError("jackknife needs two rows of positive weight")
    d = d.positive()
    n = len(d)
    if n < 10:
        raise ModelError("jackknife needs at least 10 rows")
    left_out = (np.where(np.arange(n) == i, 0.0, d.weights) for i in range(n))
    return _replicate_cov(m, _weighted_fits(m, d, left_out), n, "jackknife",
                          jackknife=True)


def replication_cov(m: Model, reps: int = 100, s: RandomStream | None = None,
                    fit_model: Model | None = None, params: Params | None = None,
                    n_per_rep: int = 100) -> CovarianceEstimate:
    """Spread of estimates over independent re-runs of the draw pipeline.

    Each replicate draws a fresh data set from ``m`` (at ``params``, default
    the model's own parameter values) and estimates ``fit_model`` (default
    m) on it.  This is not bootstrapping: variation comes from the sampler,
    not from resampling one observed data set.
    """
    s = s or RandomStream(0x11E9)
    fit_model = fit_model or m
    params = params or m.param_shape
    flatten = m.data_dim != fit_model.data_dim
    if flatten and fit_model.data_dim != 1:
        raise ModelError("replication_cov: data dims incompatible")
    draws = (core.draw(m, params, s.split(r), n_per_rep) for r in range(reps))
    runs = (DataSet(x.reshape(-1, 1) if flatten else x) for x in draws)
    return _replicate_cov(fit_model, _fits(fit_model, runs), reps, "replication")


def fisher_info_cov(fm: FittedModel, d: DataSet) -> CovarianceEstimate:
    """Inverse negative Hessian of the log-likelihood at the estimate."""
    shape = fm.params
    free = shape.free_values()
    if free.size == 0:
        raise ModelError("fisher_info_cov: no free parameters")
    total = core.likelihood_sum(fm.model, d)

    def f(x: np.ndarray) -> float:
        return total(shape.with_free(x))

    H = solvers.numeric_hessian(f, free)
    eig = np.linalg.eigvalsh(0.5 * (H + H.T))
    if np.any(eig >= 0):
        raise ModelError(f"not at an interior maximum: Hessian eigenvalues {eig}")
    cov = np.linalg.inv(-H)
    labels = [l for l, fixed in zip(shape.labels(), shape.fixed_mask) if not fixed]
    return CovarianceEstimate(cov, "fisher", 0, labels)


# ---------------------------------------------------------------------------
# Data-space comparison


def bin_to_pmf(m: Model, p: Params, anchor: Model) -> Model:
    """Project a model onto a PMF's support: weights = m's likelihood there."""
    from .distributions import pmf_model

    support: DataSet = anchor.settings.get("pmf_support")
    if support is None:
        raise ModelError("bin_to_pmf anchor must be a PMF model")
    if m.data_dim != support.dim:
        raise ModelError("bin_to_pmf: data spaces differ")
    logw = core.row_log_likelihood(m, support.rows, p)
    mx = np.max(logw)
    if not np.isfinite(mx):
        raise ModelError("bin_to_pmf: model puts zero mass on the whole support")
    w = np.exp(logw - mx)
    return pmf_model(DataSet(support.rows, weights=w / w.sum()))


def _matched_weights(a: Model, b: Model):
    sa = a.settings.get("pmf_support")
    sb = b.settings.get("pmf_support")
    if sa is None or sb is None:
        raise ModelError("comparison metrics need PMF models")
    if sa.rows.shape != sb.rows.shape or np.any(row_keys(sa.rows) != row_keys(sb.rows)):
        raise ModelError("comparison metrics need a shared support; "
                         "use bin_to_pmf to match them")
    wa = a.param_shape.block("w")
    wb = b.param_shape.block("w")
    return wa / wa.sum(), wb / wb.sum()


def ks_stat(a: Model, b: Model) -> float:
    """Max gap between the two cumulative weight sums over the sorted support."""
    wa, wb = _matched_weights(a, b)
    return float(np.max(np.abs(np.cumsum(wa) - np.cumsum(wb))))


def kl_divergence(a: Model, b: Model) -> float:
    """Sum a_i ln(a_i/b_i), with 0 ln 0 = 0; +inf when b misses a's mass."""
    wa, wb = _matched_weights(a, b)
    live = wa > 0
    if np.any(wb[live] == 0):
        warnings.warn("KL divergence: reference puts zero mass where the "
                      "subject does not; returning +inf")
        return math.inf
    return float(np.sum(wa[live] * np.log(wa[live] / wb[live])))


def rmse(a: Model, b: Model) -> float:
    wa, wb = _matched_weights(a, b)
    return float(np.sqrt(np.mean((wa - wb) ** 2)))


def entropy(a: Model) -> float:
    w = a.param_shape.block("w")
    w = w / w.sum()
    live = w > 0
    return float(-np.sum(w[live] * np.log(w[live])))
