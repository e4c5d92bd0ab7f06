"""Model-to-model morphisms.

Each operation takes model(s) plus transformation data and returns a new
Model whose elements delegate to the originals.  Nothing is precomputed at
transform time beyond shape checks; a TransformRecord in settings describes
the construction.  Base models are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as core
from .data import (DataSet, McmcSettings, MleSettings, ModelError, Params,
                   RandomStream, TruncMcSettings)
from .model import Model

TRUNC_SEED = 0x5EED_0004
COMPOSE_SEED = 0x5EED_0005
POSTERIOR_SEED = 0x5EED_0006


@dataclass
class TransformRecord:
    kind: str
    bases: list
    data: dict = field(default_factory=dict)


def _violation_sum(ms, ps) -> float:
    """Summed constraint violation of each part at its own parameters."""
    return sum(float(m.constraint(q)) for m, q in zip(ms, ps)
               if m.constraint is not None)


# ---------------------------------------------------------------------------
# Fix


def fix(m: Model, pinned: Params) -> Model:
    """Pin a subset of parameters; the rest stay free.

    ``pinned`` matches m's parameter shape, with fixed_mask marking the
    pinned entries and the flattened vector carrying their values.  The
    likelihood, sampler, and CDF delegate with the merged full-length
    parameter vector; estimation optimizes only the free entries.
    """
    if len(pinned) != len(m.param_shape):
        raise ModelError(
            f"fix: pinned length {len(pinned)} != parameter length {len(m.param_shape)}")
    if not pinned.fixed_mask.any():
        raise ModelError("fix: at least one entry must be pinned")
    settings = {**m.settings,
                "transform": TransformRecord("fix", [m], {"pinned": pinned})}
    return Model(f"fix({m.label})", m.data_dim, pinned.copy(),
                 logl=m.logl, logl_joint=m.logl_joint, est=m.est, rng=m.rng,
                 cdf=m.cdf, constraint=m.constraint, settings=settings,
                 discrete=m.discrete)


# ---------------------------------------------------------------------------
# Cross


def cross(ms: list[Model]) -> Model:
    """Product model: data and parameter spaces concatenate.

    The log-likelihood is the sum of component log-likelihoods on their
    column slices; draws, CDFs, and estimates act componentwise.
    Associative: cross([a, cross([b, c])]) equals cross([cross([a, b]), c])
    pointwise.
    """
    if len(ms) < 2:
        raise ModelError("cross needs at least two models")
    d_off = np.cumsum([0] + [m.data_dim for m in ms])
    dim = int(d_off[-1])
    shapes = [m.param_shape for m in ms]
    shape = Params.product((f"{i}.", s) for i, s in enumerate(shapes))

    def logl(rows, p):
        ps = p.split(shapes)
        out = np.zeros(rows.shape[0])
        for i, m in enumerate(ms):
            out += core.row_log_likelihood(m, rows[:, d_off[i]:d_off[i + 1]], ps[i])
        return out

    def rng(p, stream, n):
        ps = p.split(shapes)
        return np.hstack([core.draw(m, ps[i], stream, n).reshape(n, -1)
                          for i, m in enumerate(ms)])

    def cdf(points, p):
        ps = p.split(shapes)
        out = np.ones(points.shape[0])
        for i, m in enumerate(ms):
            sl = points[:, d_off[i]:d_off[i + 1]]
            out *= np.array([core.cdf(m, pt, ps[i]) for pt in sl])
        return out

    est = None
    if all(m.est is not None for m in ms):
        def est(d):
            return Params.product(
                (f"{i}.", m.est(DataSet(d.rows[:, d_off[i]:d_off[i + 1]], d.weights)))
                for i, m in enumerate(ms))

    def constraint(p):
        return _violation_sum(ms, p.split(shapes))

    label = f"cross({', '.join(m.label for m in ms)})"
    return Model(label, dim, shape, logl=logl, est=est, rng=rng, cdf=cdf,
                 constraint=constraint, discrete=all(m.discrete for m in ms),
                 settings={"transform": TransformRecord("cross", list(ms))})


# ---------------------------------------------------------------------------
# Mix


def mix(ms: list[Model], weights=None) -> Model:
    """Convex combination of models over a shared data space.

    Parameter layout: component blocks first (prefixed "i."), then the
    weight block "w" constrained to the simplex.  Pass ``weights`` as a
    vector to start there free, or as a Params with fixed_mask to pin them.
    Estimation uses EM when every component has a closed-form weighted
    estimator, otherwise joint MLE.
    """
    if len(ms) < 2:
        raise ModelError("mix needs at least two models")
    dim = ms[0].data_dim
    if any(m.data_dim != dim for m in ms):
        raise ModelError("mix components must share a data space")
    k = len(ms)
    if weights is None:
        wblock = Params([("w", np.full(k, 1.0 / k))])
    elif isinstance(weights, Params):
        wblock = Params([("w", weights.flatten())], weights.fixed_mask)
    else:
        wblock = Params([("w", np.asarray(weights, dtype=float))])
    if len(wblock) != k:
        raise ModelError(f"mix: {k} components but {len(wblock)} weights")

    shapes = [m.param_shape for m in ms] + [wblock]
    shape = Params.product(zip([f"{i}." for i in range(k)] + [""], shapes))

    def logl(rows, p):
        ps, w = p.split(shapes), p.block("w")
        wsum = w.sum()
        comp = np.full((rows.shape[0], k), -np.inf)
        for i in range(k):
            if w[i] > 0:
                comp[:, i] = (core.row_log_likelihood(ms[i], rows, ps[i])
                              + math.log(w[i] / wsum))
        mx = np.max(comp, axis=1)
        out = np.where(np.isfinite(mx),
                       mx + np.log(np.sum(np.exp(comp - mx[:, None]), axis=1)),
                       -np.inf)
        return out

    def rng(p, stream, n):
        ps, w = p.split(shapes), p.block("w")
        idx = stream.choice(k, p=w / w.sum(), size=n)
        out = np.empty((n, dim))
        for i in range(k):
            sel = idx == i
            if sel.any():
                out[sel] = core.draw(ms[i], ps[i], stream, int(sel.sum())).reshape(-1, dim)
        return out

    def cdf(points, p):
        ps, w = p.split(shapes), p.block("w")
        w = w / w.sum()
        out = np.zeros(points.shape[0])
        for i in range(k):
            out += w[i] * np.array([core.cdf(ms[i], pt, ps[i]) for pt in points])
        return out

    def constraint(p):
        ps, w = p.split(shapes), p.block("w")
        v = _violation_sum(ms, ps)
        v += float(np.sum(np.clip(-w, 0, None)) + np.sum(np.clip(w - 1, 0, None)))
        v += abs(float(w.sum()) - 1.0)
        return v if v > 1e-12 else 0.0

    est = None
    if all(m.est is not None for m in ms):
        def est(d):
            return _em(ms, d, shape)

    label = f"mix({', '.join(m.label for m in ms)})"
    return Model(label, dim, shape, logl=logl, est=est, rng=rng, cdf=cdf,
                 constraint=constraint, discrete=all(m.discrete for m in ms),
                 settings={"transform": TransformRecord("mix", list(ms),
                                                        {"weights": wblock})})


def _em(ms, d: DataSet, shape: Params, max_iter=200, tol=1e-8):
    """Expectation-maximization with closed-form weighted M-steps.

    Initialized by splitting the data into k chunks along the sort order of
    the first coordinate and fitting one component per chunk.
    """
    k = len(ms)
    order = np.argsort(d.rows[:, 0], kind="stable")
    chunks = np.array_split(order, k)
    ps = [ms[i].est(DataSet(d.rows[chunks[i]], d.weights[chunks[i]]))
          for i in range(k)]
    w = np.full(k, 1.0 / k)
    prev = -np.inf
    for _ in range(max_iter):
        comp = np.column_stack([
            core.row_log_likelihood(ms[i], d.rows, ps[i]) + math.log(max(w[i], 1e-300))
            for i in range(k)])
        mx = np.max(comp, axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.sum(np.exp(comp - mx), axis=1))
        ll = float(np.sum(lse * d.weights))
        resp = np.exp(comp - lse[:, None])
        for i in range(k):
            wi = d.weights * resp[:, i]
            if wi.sum() <= 0:
                continue
            ps[i] = ms[i].est(DataSet(d.rows, wi))
        w = (d.weights[:, None] * resp).sum(axis=0)
        w = w / w.sum()
        if abs(ll - prev) < tol * max(1.0, abs(ll)):
            break
        prev = ll
    vec = np.concatenate([p.flatten() for p in ps] + [w])
    return shape.replace(vec)


# ---------------------------------------------------------------------------
# Mixcdf


def mix_cdf(trunc: Model, point: Model) -> Model:
    """Censoring mixture: a truncated-at-zero Normal plus a point mass at 0.

    The mixing weight is not a free parameter; it is recomputed from the
    current (mu, sigma) as Phi(0; mu, sigma), the mass the truncation
    removed.
    """
    if trunc.data_dim != point.data_dim:
        raise ModelError("mix_cdf: component data spaces differ")
    names = trunc.param_shape.names
    if "mu" not in names or "sigma" not in names:
        raise ModelError("mix_cdf: truncated component must expose mu and sigma")
    loc = 0.0
    sup = point.settings.get("pmf_support")
    if sup is not None and len(sup) == 1:
        loc = float(sup.rows[0, 0])

    from scipy import special

    def w0(p):
        return float(special.ndtr((loc - p.scalar("mu")) / p.scalar("sigma")))

    def logl(rows, p):
        w = w0(p)
        x = rows[:, 0]
        at = np.abs(x - loc) <= 1e-12
        out = np.full(rows.shape[0], -np.inf)
        out[at] = math.log(w) if w > 0 else -np.inf
        if (~at).any():
            base = core.row_log_likelihood(trunc, rows[~at], p)
            out[~at] = base + (math.log1p(-w) if w < 1 else -np.inf)
        return out

    def rng(p, stream, n):
        w = w0(p)
        out = np.empty((n, 1))
        hit = stream.uniform(size=n) < w
        out[hit] = loc
        n_rest = int((~hit).sum())
        if n_rest:
            out[~hit] = core.draw(trunc, p, stream, n_rest).reshape(-1, 1)
        return out

    def cdf(points, p):
        w = w0(p)
        x = points[:, 0]
        base = np.array([core.cdf(trunc, np.array([v]), p) for v in x])
        return np.where(x >= loc - 1e-12, w + (1 - w) * base, 0.0)

    return Model(f"mix_cdf({trunc.label}, {point.label})", trunc.data_dim,
                 trunc.param_shape.copy(), logl=logl, rng=rng, cdf=cdf,
                 constraint=trunc.constraint,
                 settings={"transform": TransformRecord("mix_cdf", [trunc, point],
                                                        {"loc": loc})})


# ---------------------------------------------------------------------------
# Truncation


def truncate(m: Model, region) -> Model:
    """Restrict the data space; likelihood renormalized by the region mass.

    ``region`` is either an interval tuple (lo, hi), with None for an open
    end, or a predicate mapping rows to a boolean array.  Interval mass
    comes from a CDF difference; predicate mass from seeded Monte Carlo.
    The sampler is rejection; estimation on the renormalized likelihood
    recovers the unconstrained model's parameters.
    """
    interval = isinstance(region, tuple)
    if interval:
        lo, hi = region
        if m.data_dim != 1:
            raise ModelError("interval truncation needs a 1-D data space")

        def in_region(rows):
            x = rows[:, 0]
            ok = np.ones(rows.shape[0], dtype=bool)
            if lo is not None:
                ok &= x >= lo
            if hi is not None:
                ok &= x <= hi
            return ok
    else:
        in_region = lambda rows: np.asarray(region(rows), dtype=bool)

    mc = m.settings.get("trunc_mc") or TruncMcSettings()

    def mass(p: Params) -> float:
        # keyed on the truncated model: each region has its own mass
        key = ("trunc_mass", p.flatten().tobytes())
        cache = trunc.settings["_cache"]
        if key not in cache:
            if interval and m.cdf is not None:
                top = core.cdf(m, np.array([hi]), p) if hi is not None else 1.0
                if lo is not None:
                    lo_pt = lo - 1.0 if m.discrete else lo
                    bot = core.cdf(m, np.array([lo_pt]), p)
                else:
                    bot = 0.0
                val = float(top - bot)
            else:
                stream = RandomStream((TRUNC_SEED, core._params_seed(p)))
                draws = core.draw(m, p, stream, mc.normalizer_draws)
                val = float(np.mean(in_region(draws)))
            if val <= 1e-12:
                raise ModelError("region mass too small")
            cache[key] = min(val, 1.0)
        return cache[key]

    def logl(rows, p):
        out = np.full(rows.shape[0], -np.inf)
        ok = in_region(rows)
        if ok.any():
            out[ok] = core.row_log_likelihood(m, rows[ok], p) - math.log(mass(p))
        return out

    def rng(p, stream, n):
        out = np.empty((n, m.data_dim))
        got = 0
        misses = 0
        while got < n:
            batch = core.draw(m, p, stream, max(n - got, 16)).reshape(-1, m.data_dim)
            ok = in_region(batch)
            take = batch[ok][:n - got]
            if take.shape[0] == 0:
                misses += batch.shape[0]
                if misses >= 1000:
                    raise ModelError("region mass too small")
            else:
                misses = 0
            out[got:got + take.shape[0]] = take
            got += take.shape[0]
        return out

    cdf = None
    if interval and m.cdf is not None:
        def cdf(points, p):
            z = mass(p)
            x = points[:, 0]
            capped = np.minimum(x, hi) if hi is not None else x
            top = np.array([core.cdf(m, np.array([v]), p) for v in capped])
            if lo is not None:
                lo_pt = lo - 1.0 if m.discrete else lo
                bot = core.cdf(m, np.array([lo_pt]), p)
                below = x < lo
            else:
                bot, below = 0.0, np.zeros_like(x, dtype=bool)
            out = np.clip((top - bot) / z, 0.0, 1.0)
            out[below] = 0.0
            return out

    settings = {**m.settings,
                "transform": TransformRecord("truncate", [m], {"region": region})}
    trunc = Model(f"truncate({m.label})", m.data_dim, m.param_shape.copy(),
                  logl=logl, rng=rng, cdf=cdf, constraint=m.constraint,
                  settings=settings, discrete=m.discrete)
    return trunc


# ---------------------------------------------------------------------------
# Jacobian


def jacobian(m: Model, f, f_inv, jac="numeric") -> Model:
    """Change of data-space variables d' = f(d).

    log L'(d', p) = log L(f_inv(d'), p) + log |det J(f_inv)(d')|; draws map
    through f; estimation pulls data back through f_inv.  ``jac`` is a
    callable giving |det J(f_inv)| at a point, or "numeric" for finite
    differences.  Every evaluated point is probed for f(f_inv(d)) = d; a
    gap above 1e-8 raises "inconsistent inverse".
    """
    dim = m.data_dim

    def pullback(rows):
        x = np.array([np.atleast_1d(f_inv(r)) for r in rows], dtype=float)
        probe = np.array([np.atleast_1d(f(xi)) for xi in x], dtype=float)
        gap = np.max(np.abs(probe - rows)) if rows.size else 0.0
        if gap > 1e-8:
            raise ModelError(f"inconsistent inverse: f(f_inv(d)) off by {gap:.3g}")
        return x

    if callable(jac):
        absdet = lambda r: float(jac(r))
    else:
        def absdet(r):
            # complex-step derivatives are exact to machine precision for
            # analytic maps; fall back to central differences otherwise
            J = np.empty((dim, dim))
            try:
                h = 1e-20
                for j in range(dim):
                    z = r.astype(complex)
                    z[j] += 1j * h
                    J[:, j] = np.imag(np.atleast_1d(f_inv(z))) / h
            except (TypeError, ValueError):
                h = 1e-6 * np.maximum(1.0, np.abs(r))
                for j in range(dim):
                    up, dn = r.copy(), r.copy()
                    up[j] += h[j]
                    dn[j] -= h[j]
                    J[:, j] = (np.atleast_1d(f_inv(up))
                               - np.atleast_1d(f_inv(dn))) / (2 * h[j])
            return abs(float(np.linalg.det(J)))

    def logl(rows, p):
        x = pullback(rows)
        base = core.row_log_likelihood(m, x, p)
        dets = np.array([absdet(r) for r in rows])
        with np.errstate(divide="ignore"):
            return base + np.log(dets)

    def rng(p, stream, n):
        raw = core.draw(m, p, stream, n).reshape(n, dim)
        return np.array([np.atleast_1d(f(r)) for r in raw], dtype=float)

    est = None
    if m.est is not None:
        def est(d):
            return m.est(DataSet(pullback(d.rows), d.weights))

    settings = {k: v for k, v in m.settings.items() if k != "pmf_support"}
    settings["transform"] = TransformRecord("jacobian", [m],
                                            {"f": f, "f_inv": f_inv, "jac": jac})
    return Model(f"jacobian({m.label})", dim, m.param_shape.copy(),
                 logl=logl, est=est, rng=rng, constraint=m.constraint,
                 settings=settings, discrete=m.discrete)


# ---------------------------------------------------------------------------
# Swap


def swap(m: Model) -> Model:
    """Exchange data and parameter spaces: L'(d', p') = L(p', d').

    The new data space is m's parameter space and vice versa; rows that
    violate m's parameter constraint get likelihood zero.  All other
    elements fall through to the defaults.
    """
    new_dim = len(m.param_shape)
    new_shape = Params([("d", np.zeros(m.data_dim))])

    def logl(rows, p):
        datum = p.flatten().reshape(1, -1)
        out = np.empty(rows.shape[0])
        for i in range(rows.shape[0]):
            q = m.param_shape.replace(rows[i])
            if m.constraint is not None and m.constraint(q) > 0:
                out[i] = -np.inf
            else:
                out[i] = core.row_log_likelihood(m, datum, q)[0]
        return out

    return Model(f"swap({m.label})", new_dim, new_shape, logl=logl,
                 settings={"transform": TransformRecord("swap", [m])})


# ---------------------------------------------------------------------------
# Data-space composition


def d_compose(from_model: Model, to_model: Model, nseq=None,
              n_draws: int = 500) -> Model:
    """Evaluate one model's draws under another's likelihood.

    The result has an empty data space and parameters P_to (x) P_from: its
    log-likelihood draws ``n_draws`` rows from ``from_model`` at the
    from-side parameters and sums ``to_model``'s log-likelihood over them.
    With a pinned ``nseq`` stream (the default) the same random sequence is
    replayed every evaluation, so the likelihood is a deterministic
    function of the parameters; pass nseq="live" for fresh draws each call,
    in which case estimation defaults to annealing.
    """
    flatten = from_model.data_dim != to_model.data_dim
    if flatten and to_model.data_dim != 1:
        raise ModelError(
            f"d_compose: data dims differ ({from_model.data_dim} vs "
            f"{to_model.data_dim}) and the to-model is not 1-D")
    live = nseq == "live"
    if nseq is None:
        nseq = RandomStream(COMPOSE_SEED)
    # live draws come from a stream the caller can reseed through the
    # transform record; pinned mode replays nseq's sequence every call
    live_stream = {"s": RandomStream((COMPOSE_SEED, 1))}
    models = [to_model, from_model]
    shapes = [m.param_shape for m in models]
    shape = Params.product(zip(("to.", "from."), shapes))

    def logl_joint(d, p):
        p_to, p_from = p.split(shapes)
        stream = live_stream["s"] if live else RandomStream(nseq._path)
        rows = core.draw(from_model, p_from, stream, n_draws)
        if flatten:
            rows = rows.reshape(-1, 1)
        return core.log_likelihood(to_model, DataSet(rows), p_to)

    def constraint(p):
        return _violation_sum(models, p.split(shapes))

    settings = {"transform": TransformRecord(
        "d_compose", [from_model, to_model],
        {"nseq": nseq, "n_draws": n_draws, "live": live_stream})}
    if live:
        settings["mle"] = MleSettings(method="annealing", max_iter=400)
    return Model(f"d_compose({from_model.label}, {to_model.label})", 0, shape,
                 logl_joint=logl_joint, constraint=constraint, settings=settings)


# ---------------------------------------------------------------------------
# Bayesian updating


def dp_compose(prior: Model, like: Model, rho: Params) -> Model:
    """Prior-times-likelihood composition for Bayesian updating.

    The prior's data space must match the likelihood model's free parameter
    space; ``rho`` pins the prior's own parameters.  The result is a model
    over the likelihood's data space whose parameters are the quantity the
    prior describes: log L'(d, p) = log L_prior(p; rho) + log L_like(d; p).
    Use posterior_draws() to sample p given observed data.
    """
    n_free = int((~like.param_shape.fixed_mask).sum())
    if prior.data_dim != n_free:
        raise ModelError(
            f"dp_compose: prior data dim {prior.data_dim} != likelihood free "
            f"parameter count {n_free}")
    if len(rho) != len(prior.param_shape):
        raise ModelError("dp_compose: rho does not match the prior's parameters")
    shape = Params([("p", np.zeros(n_free))])

    def like_params(p: Params) -> Params:
        return like.param_shape.with_free(p.flatten())

    def logl_joint(d, p):
        row = p.flatten().reshape(1, -1)
        lp = core.row_log_likelihood(prior, row, rho)[0]
        if not np.isfinite(lp):
            return -np.inf
        return lp + core.log_likelihood(like, d, like_params(p))

    def constraint(p):
        if like.constraint is None:
            return 0.0
        return float(like.constraint(like_params(p)))

    return Model(f"dp_compose({prior.label}, {like.label})", like.data_dim,
                 shape, logl_joint=logl_joint, constraint=constraint,
                 settings={"transform": TransformRecord(
                     "dp_compose", [prior, like], {"rho": rho})})


def posterior_draws(post: Model, d: DataSet, n: int,
                    stream: RandomStream | None = None) -> Model:
    """Sample the posterior of a dp_compose model given observed data.

    Returns a PMF model over the parameter space.  Strategy, in order of
    preference: Normal-Normal conjugate closed form; Metropolis-Hastings
    over the swapped composition when the prior has a likelihood; weighted
    prior draws (weights = data likelihood) when the prior only has a
    sampler.
    """
    from .distributions import pmf_model

    rec = post.settings.get("transform")
    if rec is None or rec.kind != "dp_compose":
        raise ModelError("posterior_draws needs a dp_compose model")
    prior, like = rec.bases
    rho = rec.data["rho"]
    stream = stream or RandomStream(POSTERIOR_SEED)
    forced = post.settings.get("posterior_strategy")

    conj = _conjugate_normal(prior, like, rho)
    if conj is not None and forced in (None, "conjugate"):
        mu0, s0, s = conj
        nobs = float(d.weights.sum())
        var = 1.0 / (1.0 / s0 ** 2 + nobs / s ** 2)
        mean = var * (mu0 / s0 ** 2 + float(d.weights @ d.rows[:, 0]) / s ** 2)
        draws = stream.normal(mean, math.sqrt(var), size=(n, 1))
        return pmf_model(DataSet(draws))

    has_prior_l = core.resolve(prior)["L"] != "unresolvable"
    if has_prior_l and forced in (None, "mh"):
        def target(p: Params) -> float:
            return post.logl_joint(d, p)

        x0 = post.settings.get("mcmc_start")
        if x0 is None:
            x0 = core.draw(prior, rho, stream.split(0))
        x0 = Params([("p", np.atleast_1d(x0))])
        st = post.settings.get("mcmc") or McmcSettings(step_scale=0.5)
        from . import solvers
        chain = solvers.metropolis(target, x0, st, stream.split(1), n_samples=n)
        return pmf_model(DataSet(chain.samples))

    # RNG-only prior: weight prior draws by the data likelihood
    draws = core.draw(prior, rho, stream, n).reshape(n, -1)
    logw = np.array([
        core.log_likelihood(like, d, like.param_shape.with_free(draws[i]))
        for i in range(n)])
    mx = np.max(logw)
    if not np.isfinite(mx):
        raise ModelError("posterior_draws: data impossible under every prior draw")
    w = np.exp(logw - mx)
    return pmf_model(DataSet(draws, weights=w / w.sum()))


def _conjugate_normal(prior, like, rho):
    """Detect Normal prior over the mean of a known-sigma Normal likelihood."""
    if prior.label != "normal":
        return None
    base, shape = like, like.param_shape
    rec = like.settings.get("transform")
    if rec is not None and rec.kind == "fix":
        base = rec.bases[0]
    if base.label != "normal":
        return None
    fixed = shape.replace(shape.fixed_mask)  # 1.0 on pinned entries
    try:
        if fixed.scalar("mu") or not fixed.scalar("sigma"):
            return None
    except (KeyError, ModelError):
        return None
    return rho.scalar("mu"), rho.scalar("sigma"), shape.scalar("sigma")


# ---------------------------------------------------------------------------
# Hierarchical composition


def pd_compose(parent: Model, child: Model) -> Model:
    """Hierarchy: child estimates become the parent's data.

    Data sets carry integer group labels; each group is fit by the child
    and the resulting free parameters form one parent data row, so
    L'(d, p) = L_parent({Est_child(group_g)}, p).  Draws go the other way:
    a parent draw sets the child's free parameters, which produce one row.
    """
    n_free = int((~child.param_shape.fixed_mask).sum())
    if parent.data_dim != n_free:
        raise ModelError(
            f"pd_compose: parent data dim {parent.data_dim} != child free "
            f"parameter count {n_free}")

    def child_rows(d: DataSet) -> DataSet:
        rows = [core.estimate(child, g).params.free_values()
                for g in d.group_list()]
        return DataSet(np.array(rows))

    def logl_joint(d, p):
        return core.log_likelihood(parent, child_rows(d), p)

    def est(d):
        return core.estimate(parent, child_rows(d)).params

    def rng(p, stream, n):
        out = np.empty((n, child.data_dim))
        for i in range(n):
            parent_row = np.atleast_1d(core.draw(parent, p, stream))
            cp = child.param_shape.with_free(parent_row)
            out[i] = np.atleast_1d(core.draw(child, cp, stream))
        return out

    return Model(f"pd_compose({parent.label}, {child.label})", child.data_dim,
                 parent.param_shape.copy(), logl_joint=logl_joint, est=est,
                 rng=rng, constraint=parent.constraint,
                 settings={"transform": TransformRecord("pd_compose",
                                                        [parent, child])})
