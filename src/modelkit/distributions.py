"""Built-in model catalog.

Each constructor returns a Model with closed-form elements where standard
results provide them; anything omitted falls through to the default
strategies in the dispatch layer.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import model as core
from .data import DataSet, ModelError, Params
from .model import CDF_SEED, Model, special

LOG_ROOT_2PI = 0.5 * math.log(2 * math.pi)


def _strict_positive(*vals):
    """Violation distance for a strict-positivity constraint on floats, or
    on the (K, 1) columns of a stacked parameter, one distance per row."""
    worst = 0.0
    if isinstance(vals[0], float):
        for v in vals:
            if v <= 0:
                worst = max(worst, 1e-8 - v)
        return worst
    for v in vals:
        worst = np.maximum(worst, np.where(v <= 0, 1e-8 - v, 0.0))
    return worst


def _positive(*vals):
    """(ok, vals with 1.0 wherever ok is not) for floats, or the (K, 1)
    columns of a stacked parameter.  ok is True when no value is <= 0, else
    False for floats and, for columns, a mask of the rows none of whose
    values is, by which a stackable logl scores the degenerate rows
    apart."""
    if isinstance(vals[0], float):
        for v in vals:
            if v <= 0:
                return False, (1.0,) * len(vals)
        return True, vals
    bad = vals[0] <= 0
    for v in vals[1:]:
        bad |= v <= 0
    if not np.count_nonzero(bad):
        return True, vals
    ok = ~bad
    return ok, tuple(np.where(ok, v, 1.0) for v in vals)


def _log(v):
    """math.log of a float, or of each value of a (K, 1) column, one call
    per vector: np.log rounds differently on some inputs.  Raises
    ValueError, as math.log does, where a value is <= 0."""
    if isinstance(v, float):
        return math.log(v)
    return np.fromiter(map(math.log, v.ravel().tolist()), float, v.size).reshape(v.shape)


def _log_ratio(k, lam):
    """_log(k / lam) for positive floats or (K, 1) columns, and log k -
    log lam where k / lam underflows to 0 (as at lam = inf), where _log
    raises."""
    r = k / lam
    try:
        return _log(r)
    except ValueError:
        return np.where(r == 0, _log(k) - _log(lam), _log(np.where(r == 0, 1.0, r)))


def _positive_part(v):
    """(ok, v where ok else 1.0, its _log) for a float or the (K, 1) column
    of a stacked parameter, ok as _positive gives it.  A column's logs are
    its test: math.log raises on a value <= 0 and takes nan to nan, so only
    a column that holds a value <= 0 is masked."""
    if isinstance(v, float):
        return (False, 1.0, 0.0) if v <= 0 else (True, v, math.log(v))
    try:
        return True, v, _log(v)
    except ValueError:
        ok, (safe,) = _positive(v)
        return ok, safe, _log(safe)


# ---------------------------------------------------------------------------
# Sufficient statistics: each function below takes the rows of positive
# weight and their weights (core.sufficient) and returns the weighted logl
# sum as a function of a Params or a StackedParams, or None to score rows


def _normal_stats(rows, w):
    """W times the row value at the weighted mean, less M2 / (2 sigma^2) for
    the centred M2; sigma <= 0, a point mass at mu, scores 0 when the rows
    all lie at mu, else -inf.  Rows that all lie at one point (as one datum
    does) score W times its row value, and one row of weight 1 its row
    value, bit for bit."""
    x = rows[:, 0]
    if not np.isfinite(x).all():
        return None
    total, lo, hi = float(w.sum()), float(x.min()), float(x.max())
    mean = lo if lo == hi else float(np.add.reduce(w * x)) / total
    half_m2 = 0.5 * float(np.add.reduce(w * (x - mean) ** 2))

    def from_stats(p):
        ok, sigma, log_sigma = _positive_part(p.scalar("sigma"))
        mu = p.scalar("mu")
        z = (mean - mu) / sigma
        vals = -0.5 * z * z - log_sigma - LOG_ROOT_2PI
        # a factor 1 or a term 0 changes no bit, and one datum's posterior
        # scores here at every Metropolis step
        if total != 1.0:
            vals = total * vals
        if half_m2:
            vals = vals - half_m2 / sigma / sigma
        return vals if ok is True else np.where(
            ok, vals, np.where((lo == mu) & (hi == mu), 0.0, -np.inf))
    return from_stats


def _exponential_stats(rows, w):
    """-sum(w x) / mu - W log mu, for rows that are all >= 0."""
    x = rows[:, 0]
    if not (np.isfinite(x).all() and (x >= 0).all()):
        return None
    total, sx = float(w.sum()), float(np.add.reduce(w * x))

    def from_stats(p):
        ok, mu, log_mu = _positive_part(p.scalar("mu"))
        vals = -sx / mu - total * log_mu
        return vals if ok is True else np.where(ok, vals, -np.inf)
    return from_stats


@np.errstate(invalid="ignore")  # inf - inf at a row of inf, which is no count
def _counts(k):
    """(whole, kk): which values are counts, whole numbers >= 0 to within
    1e-9, and each count's whole value, 0.0 where it is no count."""
    kk = np.round(k)
    whole = (k >= 0) & (np.abs(k - kk) <= 1e-9)
    return whole, np.where(whole, kk, 0.0)


def _poisson_stats(rows, w):
    """sum(w k) log lam - W lam - sum(w lgamma(k + 1)), for rows that are
    all counts."""
    whole, kk = _counts(rows[:, 0])
    if not whole.all():
        return None
    total, sk = float(w.sum()), float(np.add.reduce(w * kk))
    sg = float(np.add.reduce(w * special.gammaln(kk + 1)))

    def from_stats(p):
        ok, lam, log_lam = _positive_part(p.scalar("lam"))
        vals = sk * log_lam - total * lam - sg
        return vals if ok is True else np.where(ok, vals, -np.inf)
    return from_stats


def _beta_stats(rows, w):
    """(alpha - 1) sum(w log x) + (beta - 1) sum(w log1p(-x)) - W betaln,
    for rows that all lie in (0, 1)."""
    x = rows[:, 0]
    if not ((x > 0) & (x < 1)).all():
        return None
    total = float(w.sum())
    slog, slog1p = float(np.add.reduce(w * np.log(x))), float(np.add.reduce(w * np.log1p(-x)))

    def from_stats(p):
        ok, (a, b) = _positive(p.scalar("alpha"), p.scalar("beta"))
        vals = (a - 1) * slog + (b - 1) * slog1p - total * special.betaln(a, b)
        return vals if ok is True else np.where(ok, vals, -np.inf)
    return from_stats


# ---------------------------------------------------------------------------
# Normal


def normal_model() -> Model:
    """Univariate Normal(mu, sigma); all four elements closed-form.

    The estimator uses the maximum-likelihood variance (divide by n, not
    n-1), reported as sigma = its square root.  Degenerate data gives
    sigma = 0, which the constraint flags rather than erroring.
    """

    @core.sufficient(_normal_stats)
    @core.stackable
    def logl(rows, p):
        ok, sigma, log_sigma = _positive_part(p.scalar("sigma"))
        mu, x = p.scalar("mu"), rows[:, 0]
        z = (x - mu) / sigma
        vals = -0.5 * z * z - log_sigma - LOG_ROOT_2PI
        # sigma <= 0 is a point mass at mu
        return vals if ok is True else np.where(ok, vals, np.where(x == mu, 0.0, -np.inf))

    def est(d):
        w = d.weights / d.weights.sum()
        mu = float(w @ d.rows[:, 0])
        var = float(w @ (d.rows[:, 0] - mu) ** 2)
        return Params.scalars(mu=mu, sigma=math.sqrt(var))

    def rng(p, stream, n):
        return stream.normal(p.scalar("mu"), p.scalar("sigma"), size=(n, 1))

    def cdf(points, p):
        mu, sigma = p.scalar("mu"), p.scalar("sigma")
        if sigma <= 0:
            return (points[:, 0] >= mu).astype(float)
        return special.ndtr((points[:, 0] - mu) / sigma)

    return Model("normal", 1, Params.scalars(mu=0.0, sigma=1.0),
                 logl=logl, est=est, rng=rng, cdf=cdf,
                 constraint=lambda p: _strict_positive(p.scalar("sigma")))


def mvn_model(dim: int = 2) -> Model:
    """Multivariate Normal; mean block "mu", row-major covariance block "cov".

    The CDF is scipy's quasi-Monte Carlo integral, seeded afresh for each
    row so that it is deterministic and each row's value depends on that
    row alone.
    """
    if dim < 1:
        raise ModelError("mvn_model needs dim >= 1")

    def unpack(p):
        mu = p.block("mu")
        cov = p.block("cov").reshape(dim, dim)
        return mu, cov

    def logl(rows, p):
        mu, cov = unpack(p)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            return np.full(rows.shape[0], -np.inf)
        diff = rows - mu
        # one inverse per call and an elementwise quadratic form, so that
        # each row's value depends on that row alone (a solve or an einsum
        # over all rows rounds by their number)
        inv = np.linalg.inv(cov)
        q = np.sum(np.sum(diff[:, :, None] * inv, axis=1) * diff, axis=1)
        return -0.5 * (q + logdet + dim * math.log(2 * math.pi))

    def est(d):
        w = d.weights / d.weights.sum()
        mu = w @ d.rows
        diff = d.rows - mu
        cov = (diff * w[:, None]).T @ diff
        return Params([("mu", mu), ("cov", cov.ravel())])

    def rng(p, stream, n):
        mu, cov = unpack(p)
        return stream.gen.multivariate_normal(mu, cov, size=n,
                                              method="cholesky")

    def cdf(points, p):
        from scipy.stats import multivariate_normal  # deferred: a slow import

        if constraint(p) > 0:
            raise ModelError("mvn: element CDF: covariance is not positive definite")
        mu, cov = unpack(p)
        return np.array([multivariate_normal.cdf(
            x, mu, cov, rng=np.random.default_rng(CDF_SEED)) for x in points])

    def constraint(p):
        _, cov = unpack(p)
        cov = 0.5 * (cov + cov.T)
        lam_min = float(np.linalg.eigvalsh(cov)[0])
        return _strict_positive(lam_min)

    return Model("mvn", dim,
                 Params([("mu", np.zeros(dim)), ("cov", np.eye(dim).ravel())]),
                 logl=logl, est=est, rng=rng, cdf=cdf, constraint=constraint)


# ---------------------------------------------------------------------------
# PMF


def pmf_model(support: DataSet) -> Model:
    """A data set reinterpreted as a distribution.

    Parameters are the per-row weights (block "w"); the support rows live in
    settings["pmf_support"], sorted by value.  Likelihood is the summed
    weight of the support rows with the row's bits (``data.row_keys``), zero
    off the support; the CDF sums the weights of the rows at or below a point
    by value, so it steps at a row by its mass (at -0.0 and 0.0, two points,
    by their sum); the estimator re-normalizes observed frequencies.
    """
    if len(support) == 0:
        raise ModelError("pmf_model needs a nonempty support")
    sup = support.sorted()
    w0 = sup.weights / sup.weights.sum()
    rows0 = sup.rows
    k, dim = rows0.shape
    lookup = functools.cache(lambda: core.support_index(rows0))  # sorted on first use

    last = {}  # the bytes of the last weight vector scored -> its log weights

    def log_weights(p):
        """log(w_j / sum w) per distinct support row, then -inf for index -1
        (off the support); math.log, as np.log rounds differently on some inputs."""
        key = p.vector.tobytes()
        if key not in last:
            w = p.block("w")
            ws = w.sum()
            w = np.bincount(lookup()(rows0), w, k)
            last.clear()
            last[key] = np.array([math.log(v / ws) if v > 0 else -np.inf for v in w]
                                 + [-np.inf])
        return last[key]

    def logl(rows, p):
        return log_weights(p)[lookup()(rows)]

    def est(d):
        # index -1 (off the support) counts in bin 0, which is dropped
        w = np.bincount(lookup()(d.rows) + 1, d.weights, k + 1)[1:]
        if w.sum() == 0:
            raise ModelError("pmf estimate: no data row lies on the support")
        return Params([("w", w / w.sum())])

    def rng(p, stream, n):
        w = p.block("w")
        idx = stream.choice(k, p=w / w.sum(), size=n)
        return rows0[idx]

    def cdf(points, p):
        w = p.block("w")
        return core.dominated_share(rows0, points, w / w.sum())

    def constraint(p):
        w = p.block("w")
        v = float(np.sum(np.clip(-w, 0, None))) + abs(float(w.sum()) - 1.0)
        return v if v > 1e-12 else 0.0

    return Model("pmf", dim, Params([("w", w0)]), logl=logl, est=est,
                 rng=rng, cdf=cdf, constraint=constraint, discrete=True,
                 settings={"pmf_support": sup})


# ---------------------------------------------------------------------------
# Ordinary least squares


def ols_model(design: DataSet) -> Model:
    """Linear regression over a fixed design, as a model over rows (y, x1..xk).

    ``design`` holds (y, x1..xk) rows; its X rows and their weights are the
    design, as the support is for ``pmf_model``.  The likelihood of a row is
    the Normal(beta.X, sigma) density of its y when its X is a design row,
    else zero.  The sampler draws X from the design by weight and adds
    Normal(0, sigma) noise to beta.X.  The estimator solves the weighted
    normal equations, with an implicit constant column, on the data it is
    given.
    """
    n_x = design.dim - 1
    if n_x < 1:
        raise ModelError(f"ols: element L: a design row needs y and at least "
                         f"one regressor column; got {design.dim} column(s)")
    xs, xw = design.rows[:, 1:], design.weights
    shape = Params([("beta", np.zeros(1 + n_x)), ("sigma", [1.0])])

    def with_constant(xrows):
        return np.column_stack([np.ones(xrows.shape[0]), xrows])

    def logl(rows, p):
        beta = p.block("beta")
        sigma = p.scalar("sigma")
        resid = rows[:, 0] - with_constant(rows[:, 1:]) @ beta
        on = core.support_index(xs)(rows[:, 1:]) >= 0
        if sigma <= 0:
            return np.where(on & (resid == 0.0), 0.0, -np.inf)
        z = resid / sigma
        vals = -0.5 * z * z - math.log(sigma) - LOG_ROOT_2PI
        return np.where(on, vals, -np.inf)

    def rng(p, stream, n):
        beta = p.block("beta")
        sigma = p.scalar("sigma")
        x = xs[stream.choice(len(xs), p=xw / xw.sum(), size=n)]
        y = with_constant(x) @ beta + stream.normal(0.0, max(sigma, 0.0), size=n)
        return np.column_stack([y, x])

    def est(d):
        X = with_constant(d.rows[:, 1:])
        y = d.rows[:, 0]
        w = d.weights
        XtX = X.T @ (X * w[:, None])
        if np.linalg.cond(XtX) > 1e12:
            raise ModelError("ols: element Est: collinear design")
        beta = np.linalg.solve(XtX, X.T @ (y * w))
        resid = y - X @ beta
        sigma = math.sqrt(float((w @ resid ** 2) / w.sum()))
        return Params([("beta", beta), ("sigma", [sigma])])

    return Model("ols", 1 + n_x, shape, logl=logl, est=est, rng=rng,
                 constraint=lambda p: _strict_positive(p.scalar("sigma")))


# ---------------------------------------------------------------------------
# Weibull


def weibull_model() -> Model:
    """Weibull(k, lam) on d > 0: log density ln(k/lam) + (k-1)ln(d/lam) - (d/lam)^k.

    No closed-form estimator; the constraint keeps the MLE search from
    driving either parameter to zero.
    """

    @core.stackable
    def logl(rows, p):
        ok, (k, lam) = _positive(p.scalar("k"), p.scalar("lam"))
        d = rows[:, 0]
        def score(s):
            r = d[s] / lam
            return _log_ratio(k, lam) + (k - 1) * np.log(r) - r ** k

        # (n,) for one vector, (K, n) for a stack; rows <= 0 score -inf
        out = core.masked(d > 0, score, np.shape(lam)[:-1])
        # k or lam <= 0 scores every row -inf
        return out if ok is True else np.where(ok, out, -np.inf)

    def rng(p, stream, n):
        k, lam = p.scalar("k"), p.scalar("lam")
        u = stream.uniform(size=n)
        return (lam * (-np.log1p(-u)) ** (1.0 / k)).reshape(n, 1)

    def cdf(points, p):
        k, lam = p.scalar("k"), p.scalar("lam")
        d = np.clip(points[:, 0], 0.0, None)
        return 1.0 - np.exp(-((d / lam) ** k))

    return Model("weibull", 1, Params.scalars(k=1.0, lam=1.0),
                 logl=logl, rng=rng, cdf=cdf,
                 constraint=core.stackable(
                     lambda p: _strict_positive(p.scalar("k"), p.scalar("lam"))))


# ---------------------------------------------------------------------------
# Catalog dispatch


def exponential_model() -> Model:
    """Exponential parameterized by its MEAN: L(d; mu) = exp(-d/mu)/mu.

    Note this is the expected-value parameterization, not the rate; the
    estimator is the sample mean.
    """

    @core.sufficient(_exponential_stats)
    @core.stackable
    def logl(rows, p):
        ok, mu, log_mu = _positive_part(p.scalar("mu"))
        d = rows[:, 0]
        vals = np.where(d >= 0, -d / mu - log_mu, -np.inf)
        return vals if ok is True else np.where(ok, vals, -np.inf)

    def est(d):
        w = d.weights / d.weights.sum()
        return Params.scalars(mu=float(w @ d.rows[:, 0]))

    def rng(p, stream, n):
        return stream.gen.exponential(p.scalar("mu"), size=(n, 1))

    def cdf(points, p):
        d = np.clip(points[:, 0], 0.0, None)
        return 1.0 - np.exp(-d / p.scalar("mu"))

    return Model("exponential", 1, Params.scalars(mu=1.0),
                 logl=logl, est=est, rng=rng, cdf=cdf,
                 constraint=lambda p: _strict_positive(p.scalar("mu")))


def poisson_model() -> Model:
    @core.sufficient(_poisson_stats)
    @core.stackable
    def logl(rows, p):
        ok, lam, log_lam = _positive_part(p.scalar("lam"))
        whole, kk = _counts(rows[:, 0])  # kk keeps the rows that score -inf finite
        vals = np.where(whole, kk * log_lam - lam - special.gammaln(kk + 1), -np.inf)
        return vals if ok is True else np.where(ok, vals, -np.inf)

    def est(d):
        w = d.weights / d.weights.sum()
        return Params.scalars(lam=float(w @ d.rows[:, 0]))

    def rng(p, stream, n):
        return stream.gen.poisson(p.scalar("lam"), size=(n, 1)).astype(float)

    def cdf(points, p):
        lam = p.scalar("lam")
        k = np.floor(points[:, 0])
        out = np.where(k >= 0, special.pdtr(np.clip(k, 0, None), lam), 0.0)
        return out

    return Model("poisson", 1, Params.scalars(lam=1.0), logl=logl, est=est,
                 rng=rng, cdf=cdf, discrete=True,
                 constraint=lambda p: _strict_positive(p.scalar("lam")))


def beta_model() -> Model:
    """Beta(alpha, beta) on (0,1); estimator falls through to MLE."""

    @core.sufficient(_beta_stats)
    def logl(rows, p):
        a, b = p.scalar("alpha"), p.scalar("beta")
        if a <= 0 or b <= 0:
            return np.full(rows.shape[0], -np.inf)
        x = rows[:, 0]
        return core.masked((x > 0) & (x < 1), lambda s: (
            (a - 1) * np.log(x[s]) + (b - 1) * np.log1p(-x[s]) - special.betaln(a, b)))

    def rng(p, stream, n):
        return stream.gen.beta(p.scalar("alpha"), p.scalar("beta"), size=(n, 1))

    def cdf(points, p):
        x = np.clip(points[:, 0], 0.0, 1.0)
        return special.betainc(p.scalar("alpha"), p.scalar("beta"), x)

    return Model("beta", 1, Params.scalars(alpha=1.0, beta=1.0),
                 logl=logl, rng=rng, cdf=cdf,
                 constraint=lambda p: _strict_positive(p.scalar("alpha"),
                                                       p.scalar("beta")))


def uniform_model() -> Model:
    def logl(rows, p):
        a, b = p.scalar("a"), p.scalar("b")
        if b <= a:
            return np.full(rows.shape[0], -np.inf)
        x = rows[:, 0]
        return np.where((x >= a) & (x <= b), -math.log(b - a), -np.inf)

    def est(d):
        x = d.rows[:, 0]
        return Params.scalars(a=float(x.min()), b=float(x.max()))

    def rng(p, stream, n):
        return stream.uniform(p.scalar("a"), p.scalar("b"), size=(n, 1))

    def cdf(points, p):
        a, b = p.scalar("a"), p.scalar("b")
        return np.clip((points[:, 0] - a) / (b - a), 0.0, 1.0)

    return Model("uniform", 1, Params.scalars(a=0.0, b=1.0),
                 logl=logl, est=est, rng=rng, cdf=cdf,
                 constraint=lambda p: _strict_positive(p.scalar("b") - p.scalar("a")))


_CATALOG = {
    "normal": normal_model,
    "exponential": exponential_model,
    "poisson": poisson_model,
    "beta": beta_model,
    "uniform": uniform_model,
    "weibull": weibull_model,
    "multivariate_normal": mvn_model,
}


def builtin(name: str, **kw) -> Model:
    """Construct a catalog model by name."""
    try:
        ctor = _CATALOG[name]
    except KeyError:
        raise ModelError(f"unknown distribution {name!r}; "
                         f"choose from {sorted(_CATALOG)}") from None
    return ctor(**kw)
