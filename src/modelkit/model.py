"""The model record and the dispatch layer deriving missing elements.

A model bundles a data space, a parameter space, and up to five closed-form
operations (log-likelihood, estimator, sampler, CDF, constraint).  Any element
absent from a model is derived from the ones present: likelihoods from CDF
differences or from memoized draws, samplers from CDF inversion or MCMC,
CDFs from empirical draw fractions, estimators from black-box MLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .data import (DataSet, EMPTY_PARAMS, KdeSettings, MleSettings,
                   ModelError, Params, RandomStream, UnresolvableElementError)

LOG_NEG_INF = float("-inf")

# Seeds for the internally seeded default strategies.  Fixed so that derived
# elements are deterministic functions of (model, params).
MEMOIZE_SEED = 0x5EED_0001
CDF_SEED = 0x5EED_0002
DRAW_MCMC_SEED = 0x5EED_0003


@dataclass
class Model:
    """Six-element model collection plus settings.

    Element signatures (all vectorized over rows):
      logl(rows (n,d), p)   -> (n,) per-row log-likelihood
      logl_joint(d, p)      -> float, for non-iid likelihoods (compositions)
      est(d: DataSet)       -> Params
      rng(p, stream, n)     -> (n,d) draws
      cdf(points (n,d), p)  -> (n,) orthant probabilities
      constraint(p)         -> violation distance (0 when satisfied)
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

    def __post_init__(self):
        if (self.logl is None and self.logl_joint is None and self.rng is None
                and self.cdf is None):
            raise ModelError(
                f"model {self.label!r} needs at least one of likelihood, sampler, CDF")
        # every model, dataclasses.replace copies included, owns its settings
        # dict and starts with an empty cache
        self.settings = {**self.settings, "_cache": {}}

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


# ---------------------------------------------------------------------------
# Dispatch


def resolve(m: Model) -> dict[str, str]:
    """Name the strategy backing each element; deterministic in the model alone."""
    r: dict[str, str] = {}
    if m.logl is not None or m.logl_joint is not None:
        r["L"] = "closed-form"
    elif m.cdf is not None:
        r["L"] = "cdf-delta"
    elif m.rng is not None:
        r["L"] = "memoized PMF"
    else:
        r["L"] = "unresolvable"

    if m.rng is not None:
        r["RNG"] = "closed-form"
    elif m.cdf is not None and m.data_dim == 1:
        r["RNG"] = "cdf-inversion"
    elif r["L"] != "unresolvable" and m.data_dim >= 1:
        r["RNG"] = "metropolis"
    else:
        r["RNG"] = "unresolvable"

    if m.cdf is not None:
        r["CDF"] = "closed-form"
    elif r["RNG"] != "unresolvable":
        r["CDF"] = "empirical draws"
    else:
        r["CDF"] = "unresolvable"

    if m.est is not None:
        r["Est"] = "closed-form"
    elif r["L"] != "unresolvable":
        r["Est"] = "MLE"
    else:
        r["Est"] = "unresolvable"
    return r


def _check_params(m: Model, p: Params):
    if len(p) != len(m.param_shape):
        raise ModelError(
            f"{m.label}: parameter length {len(p)} != expected {len(m.param_shape)}")


def _check_rows(m: Model, rows: np.ndarray):
    if rows.shape[1] != m.data_dim:
        raise ModelError(
            f"{m.label}: row dimension {rows.shape[1]} != data_dim {m.data_dim}")


def default_params(m: Model) -> Params:
    return m.param_shape.copy()


# ---------------------------------------------------------------------------
# Likelihood


def log_likelihood(m: Model, d: DataSet, p: Params) -> float:
    """Weighted sum over rows of the per-row log-likelihood.

    Independent rows multiply, so logs add; row weights scale each term.
    """
    _check_params(m, p)
    if m.logl_joint is not None:
        return float(m.logl_joint(d, p))
    _check_rows(m, d.rows)
    v = row_log_likelihood(m, d.rows, p)
    w = d.weights
    live = w > 0
    terms = v[live] * w[live]
    if np.any(np.isneginf(v[live])):
        return LOG_NEG_INF
    return float(np.sum(terms))


def row_log_likelihood(m: Model, rows: np.ndarray, p: Params) -> np.ndarray:
    """Per-row log density, via closed form, CDF deltas, or memoized draws."""
    strategy = resolve(m)["L"]
    if strategy == "closed-form":
        if m.logl is not None:
            return np.asarray(m.logl(rows, p), dtype=float)
        # joint-only likelihood: score each row as its own one-row data set
        return np.array([m.logl_joint(DataSet(rows[i:i + 1]), p)
                         for i in range(rows.shape[0])])
    if strategy == "cdf-delta":
        return _logl_from_cdf(m, rows, p)
    if strategy == "memoized PMF":
        pmf = memoized_pmf(m, p)
        return row_log_likelihood(pmf, rows, default_params(pmf))
    raise UnresolvableElementError(f"{m.label}: unresolvable element L")


def _logl_from_cdf(m: Model, rows: np.ndarray, p: Params) -> np.ndarray:
    """Numeric density from the CDF: mixed central differences.

    Uses per-coordinate step h = max(1e-5, 1e-5 |x|); integer data spaces use
    the unit forward difference (point mass at x is CDF(x) - CDF(x - 1)).
    """
    n, dim = rows.shape
    out = np.empty(n)
    if m.discrete:
        lo = rows - 1.0
        out_mass = np.asarray(m.cdf(rows, p)) - np.asarray(m.cdf(lo, p))
        return np.log(np.clip(out_mass, 1e-300, None))
    for i in range(n):
        x = rows[i]
        h = np.maximum(1e-5, 1e-5 * np.abs(x))
        total = 0.0
        # inclusion-exclusion over the 2^dim orthant corners
        for corner in range(1 << dim):
            signs = np.array([1.0 if corner >> j & 1 else -1.0 for j in range(dim)])
            pt = x + signs * h
            total += np.prod(signs) * float(m.cdf(pt.reshape(1, -1), p)[0])
        dens = total / np.prod(2.0 * h)
        out[i] = math.log(dens) if dens > 0 else LOG_NEG_INF
    return out


def memoized_pmf(m: Model, p: Params, n: int | None = None) -> Model:
    """Cached PMF (optionally KDE-smoothed) built from seeded model draws."""
    from . import solvers

    n = n or m.settings.get("memoize_draws", 10000)
    key = ("pmf", p.flatten().tobytes(), n)
    cache = m.settings["_cache"]
    if key not in cache:
        # common random numbers: the same seed at every parameter value, so
        # an MLE search over a memoized likelihood climbs a coherent surface
        # instead of re-randomized jitter
        stream = RandomStream((MEMOIZE_SEED, n))
        pmf = solvers.memoize_rng_to_pmf(m, p, n, stream)
        kde = m.settings.get("kde")
        if kde is not None and not m.discrete:
            pmf = solvers.kde_smooth(pmf, kde)
        cache[key] = pmf
    return cache[key]


def _params_seed(p: Params) -> int:
    import zlib

    return zlib.crc32(p.flatten().tobytes())


# ---------------------------------------------------------------------------
# Sampling


def draw(m: Model, p: Params, stream: RandomStream, n: int | None = None):
    """Draw rows from the model; a single row when n is omitted."""
    _check_params(m, p)
    single = n is None
    n = 1 if single else int(n)
    strategy = resolve(m)["RNG"]
    if strategy == "closed-form":
        rows = np.asarray(m.rng(p, stream, n), dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(n, -1)
    elif strategy == "cdf-inversion":
        from . import solvers

        def scalar_cdf(x):
            return float(m.cdf(np.array([[x]]), p)[0])

        rows = np.array([[solvers.invert_cdf_draw(scalar_cdf, p, stream)]
                         for _ in range(n)])
    elif strategy == "metropolis":
        rows = _draw_metropolis(m, p, stream, n)
    else:
        raise UnresolvableElementError(f"{m.label}: unresolvable element RNG")
    return rows[0] if single else rows


def _draw_metropolis(m: Model, p: Params, stream: RandomStream, n: int) -> np.ndarray:
    """Likelihood-backed sampler: random walk over the data space with p pinned."""
    from . import solvers
    from .data import McmcSettings

    st = m.settings.get("mcmc") or McmcSettings()
    dim = m.data_dim

    def target(x: Params) -> float:
        v = row_log_likelihood(m, x.flatten().reshape(1, -1), p)[0]
        return float(v)

    x0 = Params([("d", np.zeros(dim))])
    start = m.settings.get("mcmc_start")
    if start is not None:
        x0 = Params([("d", np.asarray(start, dtype=float))])
    chain = solvers.metropolis(target, x0, st, stream, n_samples=n)
    return chain.samples


def cdf(m: Model, point, p: Params) -> float:
    """Orthant probability P(draw <= point componentwise)."""
    _check_params(m, p)
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    _check_rows(m, pts)
    strategy = resolve(m)["CDF"]
    if strategy == "closed-form":
        vals = np.asarray(m.cdf(pts, p), dtype=float)
    elif strategy == "empirical draws":
        draws = _cdf_draws(m, p)
        vals = np.array([np.mean(np.all(draws <= pt + 1e-12, axis=1)) for pt in pts])
    else:
        raise UnresolvableElementError(f"{m.label}: unresolvable element CDF")
    out = np.clip(vals, 0.0, 1.0)
    return float(out[0]) if np.asarray(point).ndim <= 1 else out


def _cdf_draws(m: Model, p: Params) -> np.ndarray:
    n = m.settings.get("cdf_draws", 10000)
    key = ("cdf", p.flatten().tobytes(), n)
    cache = m.settings["_cache"]
    if key not in cache:
        stream = RandomStream((CDF_SEED, _params_seed(p)))
        cache[key] = draw(m, p, stream, n)
    return cache[key]


# ---------------------------------------------------------------------------
# Estimation


def estimate(m: Model, d: DataSet, settings: MleSettings | None = None) -> FittedModel:
    """Fit parameters: closed-form estimator when present, else black-box MLE."""
    from . import solvers

    if len(d) == 0 and m.data_dim != 0:
        raise ModelError(f"{m.label}: cannot estimate from an empty data set")
    st = settings or m.settings.get("mle") or MleSettings()
    shape = m.param_shape
    mask = shape.fixed_mask

    if len(shape) == 0 or mask.all():
        # nothing free to estimate
        p = shape.copy()
        ll = log_likelihood(m, d, p) if resolve(m)["L"] != "unresolvable" else math.nan
        return FittedModel(m, p, ll, 0, True, _violation(m, p))

    if m.est is not None and not mask.any():
        p = m.est(d)
        fitted = FittedModel(m, p, math.nan, 0, True, _violation(m, p))
        capture = m.settings.get("capture_fit")
        if capture is not None:
            fitted.model = capture(m, d)
        fitted.log_likelihood_at_optimum = _safe_ll(fitted.model, d, p)
        return fitted

    if resolve(m)["L"] == "unresolvable":
        raise UnresolvableElementError(f"{m.label}: unresolvable element L")

    if st.method == "coordinate_cycle":
        return solvers.coordinate_cycle(m, d, st)

    objective = _mle_objective(m, d)

    best = None
    for r in range(st.restarts):
        x0 = shape.copy()
        if r > 0:
            jitter = RandomStream((0xA11CE, r)).normal(size=len(shape))
            vec = x0.flatten() + jitter * np.maximum(1.0, np.abs(x0.flatten())) * 0.5
            vec[mask] = x0.flatten()[mask]
            x0 = x0.replace(vec)
            if _violation(m, x0) > 0:
                continue
        if st.method == "annealing":
            res = solvers.simulated_annealing(objective, x0, st)
        else:
            res = solvers.nelder_mead(objective, x0, st)
        if best is None or res.value > best.value:
            best = res
    if best is None:
        raise ModelError(f"{m.label}: no feasible MLE start point")
    return FittedModel(m, best.params, best.value, best.iterations,
                       best.converged, _violation(m, best.params))


def _mle_objective(m: Model, d: DataSet) -> Callable[[Params], float]:
    """Log-likelihood of d, with a steep penalty wherever p breaks the constraint."""
    def objective(p: Params) -> float:
        v = _violation(m, p)
        if v > 0:
            return -1e12 * (1.0 + v)
        return log_likelihood(m, d, p)
    return objective


def _violation(m: Model, p: Params) -> float:
    return float(m.constraint(p)) if m.constraint is not None else 0.0


def _safe_ll(m: Model, d: DataSet, p: Params) -> float:
    try:
        return log_likelihood(m, d, p)
    except UnresolvableElementError:
        return math.nan


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


def check_ml_consistency(m: Model, p: Params, stream: RandomStream, n: int,
                         chi2_pvalue: float = 0.01, cdf_tol: float = 0.05,
                         est_tol: float = 0.05) -> ConsistencyReport:
    """Empirical coherence of the four elements at fixed parameters.

    (a) chi-square of binned draw frequencies against binned likelihood mass,
    (b) sup gap between the empirical draw CDF and cdf(),
    (c) parameter recovery |estimate(draws) - p| per coordinate.
    """
    if n < 100:
        raise ModelError("insufficient draws: need n >= 100")
    for name, strat in resolve(m).items():
        if strat == "unresolvable":
            raise UnresolvableElementError(f"{m.label}: unresolvable element {name}")

    draws = draw(m, p, stream, n)

    chi = _chi_square_check(m, p, draws, chi2_pvalue)

    idx = np.linspace(0, n - 1, min(n, 200)).astype(int)
    pts = draws[np.lexsort(draws.T[::-1])][idx]
    gaps = []
    for pt in pts:
        emp = np.mean(np.all(draws <= pt + 1e-12, axis=1))
        gaps.append(abs(emp - cdf(m, pt, p)))
    cdf_check = ConsistencyCheck(float(max(gaps)), cdf_tol, max(gaps) < cdf_tol)

    fitted = estimate(m, DataSet(draws))
    gap = float(np.max(np.abs(fitted.params.flatten() - p.flatten()))) if len(p) else 0.0
    est_check = ConsistencyCheck(gap, est_tol, gap < est_tol)

    return ConsistencyReport(chi, cdf_check, est_check)


def _chi_square_check(m: Model, p: Params, draws: np.ndarray,
                      pvalue_floor: float) -> ConsistencyCheck:
    from scipy import stats

    n, dim = draws.shape
    if m.discrete or _support_is_finite(m):
        rows, counts = np.unique(draws, axis=0, return_counts=True)
        logq = row_log_likelihood(m, rows, p)
        q = np.exp(logq - np.max(logq))
        q = q / q.sum()
    elif dim == 1:
        edges = np.quantile(draws[:, 0], np.linspace(0, 1, 21))
        edges = np.unique(edges)
        counts, _ = np.histogram(draws[:, 0], bins=edges)
        q = np.array([_bin_mass_1d(m, p, a, b) for a, b in zip(edges[:-1], edges[1:])])
        q = q / q.sum()
    elif dim == 2:
        edges0 = np.unique(np.quantile(draws[:, 0], np.linspace(0, 1, 6)))
        edges1 = np.unique(np.quantile(draws[:, 1], np.linspace(0, 1, 6)))
        counts2, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges0, edges1])
        counts = counts2.ravel()
        q = np.array([
            _bin_mass_2d(m, p, a0, b0, a1, b1)
            for a0, b0 in zip(edges0[:-1], edges0[1:])
            for a1, b1 in zip(edges1[:-1], edges1[1:])
        ]).ravel()
        q = q / q.sum()
    else:
        return ConsistencyCheck(0.0, pvalue_floor, True, "chi-square skipped for dim > 2")
    keep = q > 1e-12
    counts, q = counts[keep], q[keep]
    q = q / q.sum()
    expected = n * q
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = max(len(q) - 1, 1)
    pval = float(stats.chi2.sf(stat, dof))
    return ConsistencyCheck(stat, pvalue_floor, pval > pvalue_floor,
                            f"p-value {pval:.4g} with {dof} dof")


def _support_is_finite(m: Model) -> bool:
    return m.settings.get("pmf_support") is not None


def _bin_mass_1d(m: Model, p: Params, a: float, b: float) -> float:
    xs = np.linspace(a, b, 31).reshape(-1, 1)
    dens = np.exp(row_log_likelihood(m, xs, p))
    return float(np.trapezoid(dens, xs[:, 0]))


def _bin_mass_2d(m: Model, p: Params, a0, b0, a1, b1) -> float:
    g0 = np.linspace(a0, b0, 12)
    g1 = np.linspace(a1, b1, 12)
    xx, yy = np.meshgrid(g0, g1, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    dens = np.exp(row_log_likelihood(m, pts, p)).reshape(len(g0), len(g1))
    return float(np.trapezoid(np.trapezoid(dens, g1, axis=1), g0))
