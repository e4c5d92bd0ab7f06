"""The model record and the dispatch layer deriving missing elements.

A model bundles a data space, a parameter space, and up to five closed-form
operations (log-likelihood, estimator, sampler, CDF, constraint).  Any element
absent from a model is derived from the ones present: likelihoods from CDF
differences or from memoized draws, samplers from CDF inversion or MCMC,
CDFs from empirical draw fractions, estimators from black-box MLE.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import (DataSet, McmcSettings, MleSettings, ModelError, Params,
                   RandomStream, StackedParams, UnresolvableElementError,
                   distinct_rows, row_keys)

LOG_NEG_INF = float("-inf")


class _OnFirstUse:
    """A module imported when one of its attributes is first read, each
    attribute then kept here."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


# scipy.special for every module of the package: deferred, so that
# ``import modelkit`` loads numpy alone
special = _OnFirstUse("scipy.special")

# Seeds for the internally seeded default strategies.  Fixed so that derived
# elements are deterministic functions of (model, params).
MEMOIZE_SEED = 0x5EED_0001
CDF_SEED = 0x5EED_0002
# draws behind an empirical-draws CDF
CDF_DRAWS = 10000
# lockstep Metropolis chains behind n draws: one per MCMC_CHAIN_DRAWS draws,
# at least MCMC_CHAINS and at most MCMC_MAX_CHAINS, never more than n
MCMC_CHAINS = 8
MCMC_MAX_CHAINS = 64
MCMC_CHAIN_DRAWS = 125
# entries a model's cache keeps before it drops the least recently used
CACHE_ENTRIES = 64


@dataclass
class TransformRecord:
    """How a transform built a model: its kind, base models and inputs."""
    kind: str
    bases: list
    data: dict = field(default_factory=dict)


@dataclass
class Model:
    """Six-element model collection plus settings.

    Element signatures (all vectorized over rows):
      logl(rows (n,d), p)   -> (n,) per-row log-likelihood
      logl_joint(d)         -> score, d prepared once: score(p) a float and
                               score(P) a (K,) array (compositions)
      est(d: DataSet)       -> Params, fitted to the weighted rows (estimate
                               passes only the rows of positive weight)
      rng(p, stream, n)     -> (n,d) draws
      cdf(points (n,d), p)  -> (n,) orthant probabilities
      constraint(p)         -> violation distance (0 when satisfied)

    The dispatch calls keep one contract for every model, whichever
    strategy backs the element: draw(m, p, stream, n) returns an
    (n, data_dim) array, cdf(m, points, p) an (n,) array, and
    estimate(m, d) a FittedModel of m itself.  A closed-form rng that
    returns another shape is an error.

    The dispatch layer relies on the row contract: it passes logl and cdf a
    whole (n,d) array at once (every bisection step of n inversion draws,
    every corner of n finite-difference rows) and expects row i of the
    result to depend on row i of the input alone; so do the maps f and f_inv
    of a jacobian transform.  A logl_joint has no per-row value, so a model
    whose only likelihood is joint has no derived sampler or CDF.  A logl
    scores rows outside its support -inf by one rule, ``masked``: when every
    row is valid, it returns the plain expression over all rows.

    A logl marked with the ``stackable`` decorator also takes a
    StackedParams of K vectors (its ``scalar`` a (K, 1) column, its
    ``block`` (K, width)) and returns a (K, n) array whose row k equals,
    bit for bit, the (n,) result at vector k alone.  log_likelihood then
    scores a stack of K vectors in one call; other models score a stack one
    vector at a time.  The mark is an attribute of the function, so ``fix``
    and a ``functools.wraps`` wrapper keep it, and a model given another
    logl loses it.  A constraint marked ``stackable`` likewise takes a
    StackedParams and returns the K violations, a (K,) or (K, 1) array.

    A logl marked with the ``sufficient`` decorator scores a data set from
    a few weighted sums of its rows (the Fisher-Neyman factorization):
    ``logl.sufficient(rows, weights)``, given the rows of positive weight
    and their weights, returns a function from a Params or a StackedParams
    to the weighted sum of the logl values (a float, or shaped as the
    stack's ``scalar`` columns), or None when the rows must be scored one
    by one, as when a row lies outside the support.  likelihood_sum reduces
    a data set to those sums once for the loops that score it many times;
    a sum from statistics can differ from the row sum in its last bits.
    ``fix`` keeps the mark, an interval ``truncate`` and a ``cross`` pass it
    on, and every other transform drops it.

    Besides the elements and ``settings``, a model keeps its own state:
    ``transform`` (the TransformRecord of the transform that built it, else
    None), ``strategy`` (resolve(self), decided once at construction) and
    ``cache`` (memoized PMFs and empirical-CDF draws; the CACHE_ENTRIES most
    recently used).
    Assigning any field (``m.cdf = None``) rebuilds strategy and empties cache.
    """

    label: str
    data_dim: int
    param_shape: Params
    logl: Callable | None = None
    logl_joint: Callable | None = None
    est: Callable | None = None
    rng: Callable | None = None
    cdf: Callable | None = None
    constraint: Callable | None = None
    settings: dict = field(default_factory=dict)
    discrete: bool = False
    transform: TransformRecord | None = None
    strategy: dict[str, str] = field(init=False, repr=False, compare=False)
    cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every model, dataclasses.replace copies included, owns its settings
        self.settings = dict(self.settings)
        self.cache = {}
        self.strategy = resolve(self)

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name not in ("strategy", "cache") and "strategy" in vars(self):
            # a reassigned element must not keep stale strategies or draws
            object.__setattr__(self, "cache", {})
            object.__setattr__(self, "strategy", resolve(self))

    def with_settings(self, **kw) -> "Model":
        return replace(self, settings={**self.settings, **kw})

    def __repr__(self):
        return f"Model({self.label!r}, data_dim={self.data_dim}, params={len(self.param_shape)})"


@dataclass
class FittedModel:
    model: Model
    params: Params
    log_likelihood_at_optimum: float = math.nan
    iterations: int = 0
    converged: bool = True
    constraint_violation: float = 0.0


def stackable(element: Callable) -> Callable:
    """Mark a closed-form logl or constraint as broadcasting over a
    StackedParams (see Model)."""
    element.stackable = True
    return element


def sufficient(summarize: Callable) -> Callable[[Callable], Callable]:
    """Mark a closed-form logl as scored from the statistics summarize(rows,
    weights) reduces a data set to (see Model)."""
    def mark(element: Callable) -> Callable:
        element.sufficient = summarize
        return element
    return mark


def masked(ok: np.ndarray, score: Callable, lead: tuple = ()) -> np.ndarray:
    """score(ok) where the (n,) mask ok holds, -inf elsewhere, shaped lead +
    (n,); score(slice(None)), with no fill, gather or scatter, when ok holds
    everywhere, and no score call when ok holds nowhere."""
    if ok.all():
        return score(slice(None))
    out = np.full(lead + ok.shape, -np.inf)
    if ok.any():
        out[..., ok] = score(ok)
    return out


# ---------------------------------------------------------------------------
# Dispatch


def resolve(m: Model) -> dict[str, str]:
    """Name the strategy backing each element; every model keeps it as m.strategy."""
    joint_only = m.logl is None and m.logl_joint is not None
    if m.logl is not None or joint_only:
        r = {"L": "closed-form"}
    elif m.cdf is not None:
        r = {"L": "cdf-delta"}
    elif m.rng is not None:
        r = {"L": "memoized PMF"}
    else:
        raise ModelError(
            f"model {m.label!r} needs at least one of likelihood, sampler, CDF")

    if m.rng is not None:
        r["RNG"] = "closed-form"
    elif m.cdf is not None and m.data_dim == 1:
        r["RNG"] = "cdf-inversion"
    elif m.data_dim >= 1 and not joint_only:
        r["RNG"] = "metropolis"
    else:
        r["RNG"] = "unresolvable"

    if m.cdf is not None:
        r["CDF"] = "closed-form"
    elif r["RNG"] != "unresolvable":
        r["CDF"] = "empirical draws"
    else:
        r["CDF"] = "unresolvable"

    # a closed-form estimator fits every parameter, so pinning any forces MLE
    pinned = m.param_shape.fixed_mask.any()
    r["Est"] = "closed-form" if m.est is not None and not pinned else "MLE"
    return r


def _check_params(m: Model, p: Params):
    """p, or each vector of a StackedParams, has m's parameter length."""
    n = p.vector.shape[-1]
    if n != len(m.param_shape):
        raise ModelError(
            f"{m.label}: parameter length {n} != expected {len(m.param_shape)}")


def _check_rows(m: Model, rows: np.ndarray):
    if rows.shape[1] != m.data_dim:
        raise ModelError(
            f"{m.label}: row dimension {rows.shape[1]} != data_dim {m.data_dim}")


def _cached(cache: dict, key, make: Callable):
    """cache[key], made by make() on a miss.  The cache keeps the
    CACHE_ENTRIES most recently used entries."""
    value = cache.pop(key) if key in cache else make()
    cache[key] = value  # insertion order is recency order
    if len(cache) > CACHE_ENTRIES:
        del cache[next(iter(cache))]
    return value


def log_sum_exp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))), max-shifted; an all -inf row gives -inf."""
    mx = np.max(a, axis=1)
    with np.errstate(invalid="ignore"):  # -inf - -inf on the -inf rows
        out = mx + np.log(np.sum(np.exp(a - mx[:, None]), axis=1))
    return np.where(np.isfinite(mx), out, -np.inf)


# Row values one block of a stacked likelihood holds (256 KB): larger
# blocks ran slower on 2,000 Poisson-rate vectors over 2,000 and 20,000
# counts, and a block of one vector is slower than a one-vector call.
STACK_ENTRIES = 1 << 15


def _stacks(m: Model, d: DataSet) -> bool:
    """Whether one m.logl call scores d's rows for a stack of vectors: m's
    logl is stackable and not joint, and a stack of two vectors over d's
    rows fits one block of STACK_ENTRIES values."""
    return (m.logl_joint is None and getattr(m.logl, "stackable", False)
            and 2 * d.rows.size <= STACK_ENTRIES)


# Entries one block of point-by-row comparisons, or one chunk of replicate
# weight rows (inference), holds: 8 MB of floats.
BLOCK_ENTRIES = 1 << 20


def _by_blocks(points, rows: np.ndarray, per_block, entries: int = BLOCK_ENTRIES) -> np.ndarray:
    """per_block over blocks of points (an array's rows) small enough that
    comparing one with every row makes about ``entries`` entries, joined;
    each block's temporaries are freed before the next is made.  Points
    that fit in one block, none included, are that block."""
    step = max(1, entries // max(rows.size, 1))
    if len(points) <= step:
        return per_block(points)
    return np.concatenate([per_block(points[i:i + step])
                           for i in range(0, len(points), step)])


def support_index(support: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The lookup of rows in a support: each row's index of the first support
    row with equal bits (``data.row_keys``), else -1, searched in O(log k)."""
    keys, first = np.unique(row_keys(support), return_index=True)
    first = np.r_[first, -1]  # defined at the insertion point past the last key
    def find(rows):
        q = row_keys(rows)
        at = np.searchsorted(keys, q)
        return np.where(np.searchsorted(keys, q, "right") > at, first[at], -1)
    return find


def dominated_share(rows: np.ndarray, points: np.ndarray, weights=None) -> np.ndarray:
    """Weight of the rows at or below each point in every coordinate, by
    exact comparison of values (so -0.0 and 0.0 count at each other): each
    row weighs 1 / len(rows), or its entry of ``weights``.  Each point's
    share is summed on its own, so it depends on that point alone."""
    def share(block):
        below = np.all(rows[None, :, :] <= block[:, None, :], axis=2)
        return (below.sum(axis=1) / rows.shape[0] if weights is None
                else np.where(below, weights, 0.0).sum(axis=1))
    return _by_blocks(points, rows, share)


# ---------------------------------------------------------------------------
# Likelihood


def log_likelihood(m: Model, d: DataSet, p: Params) -> float | np.ndarray:
    """Weighted sum over rows of the per-row log-likelihood: a float at a
    Params, and at a StackedParams of K vectors a (K,) array equal, bit for
    bit, to the K sums at P[k].

    Independent rows multiply, so logs add; row weights scale each term.
    Every row of d is scored and summed with its weight in place, by
    _weighted_sums' rule.  A joint likelihood prepares d and scores p once.
    A model whose logl is ``stackable`` scores d's rows once for all the
    vectors of a stack (_stacked_sums); any other model, and any model when
    d has so many rows that a block would hold a single vector, scores a
    stack one vector at a time.  A caller that scores one data set many
    times uses likelihood_sum.
    """
    _check_params(m, p)
    stacked = isinstance(p, StackedParams)
    if m.logl_joint is not None:
        s = m.logl_joint(d)(p)
        return s if stacked else float(s)
    if stacked and not _stacks(m, d):
        return np.array([log_likelihood(m, d, p[k]) for k in range(len(p))])
    _check_rows(m, d.rows)
    if stacked:
        return _stacked_sums(m, d.rows, p, d.weights)
    return float(_weighted_sums(row_log_likelihood(m, d.rows, p), d.weights))


def likelihood_sum(m: Model, d: DataSet) -> Callable:
    """The weighted log-likelihood sum of d under m as a function of the
    parameters, for a loop that scores d many times: log_likelihood(m, d, p),
    a float at a Params and a (K,) array at a StackedParams.

    d is prepared once.  A joint likelihood is given d as it is and
    prepares what it needs.  Otherwise d's rows are compressed, and when
    m's logl carries the ``sufficient`` mark, the rows of positive weight
    are reduced to its statistics, so that each call costs the same at any
    number of rows; its sums can differ from the row sums in the last bits.
    Any other model, or a mark that declines d's rows, scores the rows at
    every call.
    """
    if m.logl_joint is not None:
        score = m.logl_joint(d)
    else:
        d = d.compressed()
        score = _from_stats(m, d)
    if score is None:  # d's rows, scored at every call
        return lambda p: log_likelihood(m, d, p)

    def total(p):
        _check_params(m, p)
        s = score(p)
        return s.reshape(len(p)) if isinstance(p, StackedParams) else float(s)
    return total


def _from_stats(m: Model, d: DataSet) -> Callable | None:
    """The sum from the statistics of d's rows of positive weight that m's
    ``sufficient`` mark gives, or None: m's logl has no mark, d's rows
    are not m's data rows (scoring them raises), or the mark declines them."""
    summarize = getattr(m.logl, "sufficient", None)
    if summarize is None or d.dim != m.data_dim or not len(d):
        return None
    d = d.positive()
    return summarize(d.rows, d.weights)


def _stacked_sums(m: Model, rows: np.ndarray, P: StackedParams, w: np.ndarray,
                  at: np.ndarray | None = None) -> np.ndarray:
    """The weighted sums of a stacked m.logl(rows, P), a (K,) array: w is
    (n,), or an (R, n) array of weight rows of which row at[k], for the
    (K,) int array at, weighs vector k.  One logl call scores a block of
    vectors whose row values number about STACK_ENTRIES; a block is a slice
    of P and copies only its own weight rows."""
    step = max(1, STACK_ENTRIES // max(rows.size, 1))
    if len(P) > step:
        return np.concatenate([
            _stacked_sums(m, rows, P[i:i + step], w, None if at is None else at[i:i + step])
            for i in range(0, len(P), step)])
    # C-ordered, as _weighted_sums needs: a logl may return another layout
    v = np.ascontiguousarray(m.logl(rows, P), dtype=float)
    return _weighted_sums(v, w if at is None else w[at])


# 0 * inf on a row of weight 0; as a decorator, errstate costs about half
# what a with block does on every call
@np.errstate(invalid="ignore")
def _summed_products(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.add.reduce(v * w, axis=-1)


def _weighted_sums(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The sum of v * w over the last axis: a numpy float for an (n,) v and a
    (K,) array for a (K, n) one; w is (n,) or a weight row per row of v.

    A row of weight 0 counts for nothing but stays in place, so a finite
    sum is the result.  A sum that is not finite (0 * inf is nan) is taken
    again over the rows of positive weight, and is -inf if one of them
    scores -inf: an impossible row outweighs a +inf or nan elsewhere.  Each
    row of a C-ordered v sums in the order the row alone would, bit for
    bit; a Fortran-ordered one does not.
    """
    sums = _summed_products(v, w)
    if v.ndim == 1:
        return sums if math.isfinite(sums) else _live_sum(v, w)
    bad = ~np.isfinite(sums)
    if np.count_nonzero(bad):
        for k in np.flatnonzero(bad).tolist():
            sums[k] = _live_sum(v[k], w if w.ndim == 1 else w[k])
    return sums


def _live_sum(v: np.ndarray, w: np.ndarray) -> float:
    """The sum of v * w over the rows of positive weight, -inf if one of
    them scores -inf."""
    live = w > 0
    v = v[live]
    return LOG_NEG_INF if np.any(np.isneginf(v)) else np.add.reduce(v * w[live])


def row_log_likelihood(m: Model, rows: np.ndarray, p: Params) -> np.ndarray:
    """Per-row log density, via closed form, CDF deltas, or memoized draws."""
    strategy = m.strategy["L"]
    if strategy == "closed-form":
        if m.logl is None:
            raise ModelError(f"{m.label}: element L is a joint likelihood, with no "
                             f"per-row value; use log_likelihood on a data set")
        return np.asarray(m.logl(rows, p), dtype=float)
    if strategy == "cdf-delta":
        return _logl_from_cdf(m, rows, p)
    pmf = memoized_pmf(m, p)  # the remaining strategy: memoized PMF
    return row_log_likelihood(pmf, rows, pmf.param_shape)


def _logl_from_cdf(m: Model, rows: np.ndarray, p: Params) -> np.ndarray:
    """Numeric density from the CDF by inclusion-exclusion over the 2^dim
    corners of a box around each row.

    Continuous data spaces take mixed central differences over the box
    x +- h, h = max(1e-5, 1e-5 |x|) per coordinate.  Integer data spaces take
    the point mass at x, the CDF's mass on the unit box (x - 1, x]; in one
    dimension that is CDF(x) - CDF(x - 1).
    """
    n, dim = rows.shape
    # one CDF call over every corner of every row, summed corner by corner;
    # bit j of a corner picks the upper (1) or lower (0) side of coordinate j
    signs = np.array([[1.0 if corner >> j & 1 else -1.0 for j in range(dim)]
                      for corner in range(1 << dim)])
    if m.discrete:
        # x - 1 on the lower side; x - 0 on the upper keeps -0.0 as it is
        corners = rows[None, :, :] - (signs[:, None, :] < 0)
    else:
        h = np.maximum(1e-5, 1e-5 * np.abs(rows))
        corners = rows[None, :, :] + signs[:, None, :] * h[None, :, :]
    vals = np.asarray(m.cdf(corners.reshape(-1, dim), p), dtype=float).reshape(1 << dim, n)
    total = np.zeros(n)
    for corner in range(1 << dim):
        total += np.prod(signs[corner]) * vals[corner]
    if m.discrete:
        return np.log(np.clip(total, 1e-300, None))
    dens = total / np.prod(2.0 * h, axis=1)
    # math.log, not np.log: the vectorized log rounds differently on some inputs
    return np.array([math.log(d) if d > 0 else LOG_NEG_INF for d in dens])


def memoized_pmf(m: Model, p: Params) -> Model:
    """Cached PMF (optionally KDE-smoothed) built from settings["memoize_draws"]
    seeded model draws, 10,000 by default."""
    from . import solvers

    n = m.settings.get("memoize_draws", 10000)
    kde = m.settings.get("kde") is not None and not m.discrete

    def make():
        # common random numbers: the same seed at every parameter value, so
        # an MLE search over a memoized likelihood climbs a coherent surface
        # instead of re-randomized jitter.  This holds only if the sampler
        # makes the same stream calls at every parameter value (no
        # rejection loops), a requirement on any sampler behind this PMF
        stream = RandomStream((MEMOIZE_SEED, n))
        pmf = solvers.memoize_rng_to_pmf(m, p, n, stream)
        if kde:
            pmf = solvers.kde_smooth(pmf)
        return pmf

    # keyed on every setting make() reads, so changing one misses the cache
    return _cached(m.cache, ("pmf", p.vector.tobytes(), n, kde), make)


def _params_seed(p: Params) -> int:
    import zlib

    return zlib.crc32(p.vector.tobytes())


# ---------------------------------------------------------------------------
# Sampling


def draw(m: Model, p: Params, stream: RandomStream, n: int) -> np.ndarray:
    """Draw n rows from the model, as an (n, data_dim) array."""
    _check_params(m, p)
    n = int(n)
    strategy = m.strategy["RNG"]
    if strategy == "closed-form":
        rows = np.asarray(m.rng(p, stream, n), dtype=float)
        if rows.shape != (n, m.data_dim):
            raise ModelError(f"{m.label}: element RNG returned shape {rows.shape}; "
                             f"{n} draws need shape ({n}, {m.data_dim})")
    elif strategy == "cdf-inversion":
        from . import solvers

        def array_cdf(xs):
            return np.asarray(m.cdf(xs.reshape(-1, 1), p), dtype=float)

        rows = solvers.invert_cdf(array_cdf, stream.uniform(size=n)).reshape(n, 1)
    elif strategy == "metropolis":
        rows = _draw_metropolis(m, p, stream, n)
    else:
        raise UnresolvableElementError(f"{m.label}: unresolvable element RNG")
    return rows


# offsets tried in turn when the metropolis start point has zero likelihood
_START_LADDER = tuple(s * 2.0 ** k for k in range(-1, 11) for s in (1.0, -1.0))


def mcmc_chains(n: int) -> int:
    """The number of lockstep Metropolis chains behind n draws:
    min(n, clamp(n // MCMC_CHAIN_DRAWS, MCMC_CHAINS, MCMC_MAX_CHAINS)), and
    at least 1."""
    return max(1, min(n, MCMC_MAX_CHAINS, max(MCMC_CHAINS, n // MCMC_CHAIN_DRAWS)))


def _draw_metropolis(m: Model, p: Params, stream: RandomStream, n: int) -> np.ndarray:
    """Likelihood-backed sampler: mcmc_chains(n) random walks over the data
    space with p pinned, in lockstep.  Chain 0 starts at settings
    ["mcmc_start"] (the origin by default, or the first rung of
    _START_LADDER with a finite likelihood); the others start at that point
    plus a Normal(0, step_scale) jitter drawn from the stream, or at the
    point itself where the jittered start has no finite likelihood."""
    from . import solvers

    def target(xs: np.ndarray) -> np.ndarray:
        return row_log_likelihood(m, xs, p)

    start = m.settings.get("mcmc_start")
    x0 = origin = np.atleast_1d(np.asarray(
        np.zeros(m.data_dim) if start is None else start, dtype=float))
    if x0.shape != (m.data_dim,):
        raise ModelError(
            f"{m.label}: element RNG: settings['mcmc_start'] has shape "
            f"{x0.shape}; a data row has {m.data_dim} columns")
    if not math.isfinite(target(x0[None])[0]):
        # the start lies off the support: walk a fixed ladder of offsets,
        # every coordinate shifted alike, until the likelihood is positive
        for step in _START_LADDER:
            x0 = origin + step
            if math.isfinite(target(x0[None])[0]):
                break
        else:
            raise ModelError(
                f"{m.label}: element RNG: metropolis found no start point with "
                f"a finite likelihood; set settings['mcmc_start']")
    st, k = McmcSettings(), mcmc_chains(n)
    starts = np.tile(x0, (k, 1))
    if k > 1:
        starts[1:] += stream.normal(0.0, st.step_scale, size=(k - 1, m.data_dim))
        starts[~np.isfinite(target(starts))] = x0
    return solvers.metropolis(target, starts, st, stream, n_samples=n).samples


def cdf(m: Model, points, p: Params) -> np.ndarray:
    """Orthant probability P(draw <= point componentwise) of each of the
    (n, data_dim) points, as an (n,) array; a single point is one row."""
    _check_params(m, p)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _check_rows(m, pts)
    strategy = m.strategy["CDF"]
    if strategy == "closed-form":
        vals = np.asarray(m.cdf(pts, p), dtype=float)
    elif strategy == "empirical draws":
        vals = dominated_share(_cdf_draws(m, p), pts)
    else:
        raise UnresolvableElementError(f"{m.label}: unresolvable element CDF")
    return np.clip(vals, 0.0, 1.0)


def _cdf_draws(m: Model, p: Params) -> np.ndarray:
    return _cached(m.cache, ("cdf", p.vector.tobytes(), CDF_DRAWS), lambda: draw(
        m, p, RandomStream((CDF_SEED, _params_seed(p))), CDF_DRAWS))


# ---------------------------------------------------------------------------
# Estimation


def estimate(m: Model, d: DataSet, settings: MleSettings | None = None) -> FittedModel:
    """Fit parameters: the closed-form estimator when present, else one run
    of the settings' optimizer over the free parameters, started from the
    model's own parameter values."""
    from . import solvers

    if len(d) == 0 and m.data_dim != 0:
        raise ModelError(f"{m.label}: cannot estimate from an empty data set")
    _check_rows(m, d.rows)
    st = settings or _mle_settings(m)
    shape = m.param_shape

    if shape.fixed_mask.all() or m.strategy["Est"] == "closed-form":
        # no optimizer run: nothing free to estimate, or a closed form
        p = shape if shape.fixed_mask.all() else m.est(d.positive())
        return FittedModel(m, p, log_likelihood(m, d, p), 0, True, _violation(m, p))

    if (m.strategy["L"] == "memoized PMF" and not m.discrete
            and m.settings.get("kde") is None):
        # raw memoized draws put no mass between the draws, so continuous
        # data scores -inf everywhere
        raise ModelError(
            f"{m.label}: element L is a memoized PMF of draws, which gives "
            f"continuous data zero likelihood; set settings['kde'] to smooth it")
    # looked up at call time, so a wrapped solver is the one that runs
    solve = {"nelder_mead": solvers.nelder_mead,
             "annealing": solvers.simulated_annealing,
             "coordinate_cycle": solvers.coordinate_cycle}[st.method]
    return _fitted_mle(m, solve(_mle_objective(m, d), shape.free_values(), st))


def _mle_settings(m: Model) -> MleSettings:
    """The optimizer run estimate uses when it is given no settings."""
    return m.settings.get("mle") or MleSettings()


def _fitted_mle(m: Model, res) -> FittedModel:
    """The FittedModel of an optimizer's SolveResult over m's free
    parameters."""
    p = m.param_shape.with_free(res.x)
    return FittedModel(m, p, res.value, res.iterations, res.converged,
                       _violation(m, p))


def _mle_objective(m: Model, d: DataSet) -> Callable[[np.ndarray], float]:
    """Log-likelihood of d at the free vector, with a steep penalty wherever
    the parameters break the constraint; d is prepared once
    (likelihood_sum) for all the scorings an optimizer makes."""
    shape = m.param_shape
    total = likelihood_sum(m, d)

    def objective(free: np.ndarray) -> float:
        p = shape.with_free(free)
        v = _violation(m, p)
        if v > 0:
            return _penalty(v)
        return total(p)
    return objective


def _penalty(v):
    """The MLE objective where the parameters break the constraint by v (a
    float, or an array of violations)."""
    return -1e12 * (1.0 + v)


def _violation(m: Model, p: Params) -> float | np.ndarray:
    """How far p breaks m's constraint, 0 where it holds: a float at a
    Params, and at a StackedParams a (K,) array, from one call of a
    stackable constraint, else one call per vector."""
    if not isinstance(p, StackedParams):
        return float(m.constraint(p)) if m.constraint is not None else 0.0
    if m.constraint is None:
        return np.zeros(len(p))
    if getattr(m.constraint, "stackable", False):
        return np.asarray(m.constraint(p), dtype=float).reshape(len(p))
    return np.array([_violation(m, p[k]) for k in range(len(p))])


def _fits_in_lockstep(m: Model, base: DataSet) -> bool:
    """Whether fits of m on base's rows with other weights share stacked
    likelihood calls (_lockstep_fits): estimate would run Nelder-Mead,
    base's rows have m's dimension, m's logl stacks over them, and they do
    not compress, so that neither do the rows each fit scores.  Such an m's
    likelihood is closed-form, so estimate's preconditions hold for every
    weight row.  A logl with the ``sufficient`` mark fits each weight row
    from its own statistics, as estimate does."""
    return (_mle_settings(m).method == "nelder_mead"
            and m.strategy["Est"] != "closed-form"
            and not m.param_shape.fixed_mask.all()
            and base.dim == m.data_dim and _stacks(m, base)
            and not hasattr(m.logl, "sufficient")
            and base.compressed() is base)


def _lockstep_fits(m: Model, base: DataSet, weights: np.ndarray) -> list:
    """estimate(m, DataSet(base.rows, weights[r])).params.flatten() for each
    row r of the (R, n) array weights, or the ModelError that fit raises,
    for an m and base that _fits_in_lockstep accepts.

    Every fit runs at once through solvers.nelder_mead_lockstep.  Each
    round scores the pending vector of every running fit with one stacked
    m.logl over the base rows and sums each fit's values against its own
    weight row, in blocks of about STACK_ENTRIES values.  A round whose
    stacked call raises ModelError is scored again one fit at a time, so
    that only the fits whose vector raises fail.  Each fit runs the
    sequential algorithm on the same values, so the results are estimate's
    bit for bit.
    """
    from . import solvers

    def one_by_one(which, X) -> list:
        out = []
        for r, x in zip(which.tolist(), X):
            objective = _mle_objective(m, DataSet(base.rows, weights[r]))
            try:
                out.append(objective(x))
            except ModelError as e:
                out.append(e)
        return out

    def score(which, X) -> np.ndarray | list:
        try:
            return _stacked_objective(m, base, weights, which, X)
        except ModelError:  # a stacked call cannot say whose vector failed
            return one_by_one(which, X)

    starts = np.tile(m.param_shape.free_values(), (len(weights), 1))
    results = solvers.nelder_mead_lockstep(score, starts, _mle_settings(m))
    return [res if isinstance(res, ModelError)
            else _fitted_mle(m, res).params.flatten() for res in results]


def _stacked_objective(m: Model, base: DataSet, weights: np.ndarray,
                       which: np.ndarray, X: np.ndarray) -> np.ndarray:
    """_mle_objective(m, DataSet(base.rows, weights[which[i]]))(X[i]) for
    each i, as a float array, from one stacked m.logl over the base rows per
    block of vectors."""
    P = m.param_shape.stack(X)
    violation = _violation(m, P)
    out = _penalty(violation)
    ok = ~(violation > 0)
    if ok.any():
        out[ok] = _stacked_sums(m, base.rows, P[ok], weights, which[ok])
    return out


# ---------------------------------------------------------------------------
# Consistency checking


@dataclass
class ConsistencyCheck:
    statistic: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass
class ConsistencyReport:
    chi_square: ConsistencyCheck
    cdf_gap: ConsistencyCheck
    estimate_gap: ConsistencyCheck

    @property
    def passed(self) -> bool:
        return (self.chi_square.passed and self.cdf_gap.passed
                and self.estimate_gap.passed)


def check_ml_consistency(m: Model, p: Params, stream: RandomStream,
                         n: int) -> ConsistencyReport:
    """Empirical coherence of the four elements at fixed parameters, from n
    draws.  Each check reports its statistic and threshold:

    (a) chi-square of binned draw frequencies against binned likelihood mass,
        passed when its p-value exceeds 0.01 (skipped for dim > 2); it
        assumes independent draws, so it bins every k-th Metropolis draw,
        k = ceil(n / ESS) for the coordinate of least effective size,
    (b) sup gap between the empirical draw CDF and cdf(), below 0.05,
    (c) parameter recovery |estimate(draws) - p| per coordinate, below 0.05.
    """
    if n < 100:
        raise ModelError("insufficient draws: need n >= 100")
    # an unresolvable sampler (and with it the CDF) raises here
    draws = draw(m, p, stream, n)

    binned = draws
    if m.strategy["RNG"] == "metropolis":
        from . import solvers

        binned = draws[::max(math.ceil(n / solvers.effective_sample_size(c))
                             for c in draws.T)]
    chi = _chi_square_check(m, p, binned)

    idx = np.linspace(0, n - 1, min(n, 200)).astype(int)
    pts = draws[np.lexsort(draws.T[::-1])][idx]
    gap = float(np.max(np.abs(dominated_share(draws, pts) - cdf(m, pts, p))))
    cdf_check = ConsistencyCheck(gap, 0.05, gap < 0.05)

    fitted = estimate(m, DataSet(draws))
    gap = float(np.max(np.abs(fitted.params.flatten() - p.flatten()))) if len(p) else 0.0
    est_check = ConsistencyCheck(gap, 0.05, gap < 0.05)

    return ConsistencyReport(chi, cdf_check, est_check)


def _chi_square_check(m: Model, p: Params, draws: np.ndarray) -> ConsistencyCheck:
    from scipy import stats

    n, dim = draws.shape
    if m.discrete or m.settings.get("pmf_support") is not None:
        rows, inv = distinct_rows(draws)
        counts = np.bincount(inv)
        logq = row_log_likelihood(m, rows, p)
        q = np.exp(logq - np.max(logq))
    elif dim == 1:
        edges = np.unique(np.quantile(draws[:, 0], np.linspace(0, 1, 21)))
        counts, _ = np.histogram(draws[:, 0], bins=edges)
        # the 31-point grids of every bin (one row each), scored in one call
        xs = np.linspace(edges[:-1], edges[1:], 31, axis=1)
        dens = np.exp(row_log_likelihood(m, xs.reshape(-1, 1), p)).reshape(xs.shape)
        q = np.trapezoid(dens, xs, axis=1)
    elif dim == 2:
        edges0 = np.unique(np.quantile(draws[:, 0], np.linspace(0, 1, 6)))
        edges1 = np.unique(np.quantile(draws[:, 1], np.linspace(0, 1, 6)))
        counts2, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges0, edges1])
        counts = counts2.ravel()
        # the 12 x 12 grids of every bin, scored in one call; the axes are
        # (bin along x0, bin along x1, grid point along x0, along x1)
        g0 = np.linspace(edges0[:-1], edges0[1:], 12, axis=1)[:, None, :, None]
        g1 = np.linspace(edges1[:-1], edges1[1:], 12, axis=1)[None, :, None, :]
        grid = np.broadcast_arrays(g0, g1)
        dens = np.exp(row_log_likelihood(m, np.stack(grid, axis=-1).reshape(-1, 2), p))
        q = np.trapezoid(np.trapezoid(dens.reshape(grid[0].shape), g1, axis=3),
                         g0[..., 0], axis=2).ravel()
    else:
        return ConsistencyCheck(0.0, 0.01, True, "chi-square skipped for dim > 2")
    q = q / q.sum()
    keep = q > 1e-12
    counts, q = counts[keep], q[keep]
    q = q / q.sum()
    expected = n * q
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = max(len(q) - 1, 1)
    pval = float(stats.chi2.sf(stat, dof))
    return ConsistencyCheck(stat, 0.01, pval > 0.01,
                            f"p-value {pval:.4g} with {dof} dof")
