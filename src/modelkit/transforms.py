"""Model-to-model morphisms.

Each operation takes model(s) plus transformation data and returns a new
Model whose elements delegate to the originals.  Nothing is precomputed at
transform time beyond shape checks; a TransformRecord in the new model's
``transform`` field describes the construction.  Base models are never
mutated.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import model as core
from .data import (DataSet, McmcSettings, MleSettings, ModelError, Params,
                   RandomStream, StackedParams, row_keys)
from .model import Model, TransformRecord

TRUNC_SEED = 0x5EED_0004
# draws behind a predicate region's Monte Carlo mass
TRUNC_DRAWS = 10000
COMPOSE_SEED = 0x5EED_0005
POSTERIOR_SEED = 0x5EED_0006


def _violation_sum(ms, ps) -> float:
    """Summed constraint violation of each part at its own parameters."""
    return sum(core._violation(m, q) for m, q in zip(ms, ps))


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
    return dataclasses.replace(
        m, label=f"fix({m.label})", param_shape=pinned,
        transform=TransformRecord("fix", [m], {"pinned": pinned}))


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

    parts = [getattr(m.logl, "sufficient", None) for m in ms]
    if all(parts):
        def summarize(rows, w):
            """The sum of the parts' sums, when every part takes its columns."""
            sums = [s(rows[:, d_off[i]:d_off[i + 1]], w) for i, s in enumerate(parts)]
            if any(f is None for f in sums):
                return None

            def from_stats(p):
                if isinstance(p, StackedParams):
                    return np.array([[from_stats(p[k])] for k in range(len(p))])
                return sum(f(q) for f, q in zip(sums, p.split(shapes)))
            return from_stats

        logl = core.sufficient(summarize)(logl)

    def rng(p, stream, n):
        ps = p.split(shapes)
        return np.hstack([core.draw(m, ps[i], stream, n) for i, m in enumerate(ms)])

    def cdf(points, p):
        ps = p.split(shapes)
        out = np.ones(points.shape[0])
        for i, m in enumerate(ms):
            out *= core.cdf(m, points[:, d_off[i]:d_off[i + 1]], ps[i])
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
                 transform=TransformRecord("cross", list(ms)))


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
        return core.log_sum_exp(comp)

    def rng(p, stream, n):
        ps, w = p.split(shapes), p.block("w")
        idx = stream.choice(k, p=w / w.sum(), size=n)
        out = np.empty((n, dim))
        for i in range(k):
            sel = idx == i
            if sel.any():
                out[sel] = core.draw(ms[i], ps[i], stream, int(sel.sum()))
        return out

    def cdf(points, p):
        ps, w = p.split(shapes), p.block("w")
        w = w / w.sum()
        out = np.zeros(points.shape[0])
        for i in range(k):
            out += w[i] * core.cdf(ms[i], points, ps[i])
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
            return _em(ms, d, shape, label)

    label = f"mix({', '.join(m.label for m in ms)})"
    return Model(label, dim, shape, logl=logl, est=est, rng=rng, cdf=cdf,
                 constraint=constraint, discrete=all(m.discrete for m in ms),
                 transform=TransformRecord("mix", list(ms), {"weights": wblock}))


def _em(ms, d: DataSet, shape: Params, label: str, max_iter=200, tol=1e-8):
    """Expectation-maximization with closed-form weighted M-steps.

    Initialized by splitting d's rows (all of positive weight, as estimate
    passes them) into k chunks along the sort order of the first coordinate
    and fitting one component per chunk; each M-step fits a component to
    the rows it weighs above 0.  A row every component scores -inf raises.
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
        lse = core.log_sum_exp(comp)
        if np.isneginf(lse).any():
            raise ModelError(f"{label}: element Est: every component gives row "
                             f"{d.rows[np.isneginf(lse)][0].tolist()} zero likelihood")
        ll = float(np.sum(lse * d.weights))
        resp = np.exp(comp - lse[:, None])
        for i in range(k):
            wi = d.weights * resp[:, i]
            if wi.sum() <= 0:
                continue
            ps[i] = ms[i].est(DataSet(d.rows, wi).positive())
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
    removed.  A row is the atom when its bits are the atom's, and the CDF
    steps at the atom by exact comparison, so -0.0 is the body's at an
    atom at 0.0 and a CDF point just below the atom reads 0.
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
    atom = row_keys(np.array([[loc]]))[0]  # the atom is the row with loc's bits

    def w0(p):
        return float(core.special.ndtr((loc - p.scalar("mu")) / p.scalar("sigma")))

    def logl(rows, p):
        w = w0(p)
        at = row_keys(rows[:, :1]) == atom
        out = core.masked(~at, lambda s: (core.row_log_likelihood(trunc, rows[s], p)
                                          + (math.log1p(-w) if w < 1 else -np.inf)))
        out[at] = math.log(w) if w > 0 else -np.inf
        return out

    def rng(p, stream, n):
        w = w0(p)
        out = np.empty((n, 1))
        hit = stream.uniform(size=n) < w
        out[hit] = loc
        n_rest = int((~hit).sum())
        if n_rest:
            out[~hit] = core.draw(trunc, p, stream, n_rest)
        return out

    def cdf(points, p):
        w = w0(p)
        x = points[:, 0]
        base = core.cdf(trunc, points[:, :1], p)
        return np.where(x >= loc, w + (1 - w) * base, 0.0)

    return Model(f"mix_cdf({trunc.label}, {point.label})", trunc.data_dim,
                 trunc.param_shape, logl=logl, rng=rng, cdf=cdf,
                 constraint=trunc.constraint,
                 transform=TransformRecord("mix_cdf", [trunc, point], {"loc": loc}))


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

    def cdf_span(top, p):
        """F(top) - F(lo) under m, an (n,) array for (n, 1) points top; one
        span, with F(top) = 1, when top is None.  On discrete data the mass
        at lo itself counts: it is taken off F(lo)."""
        f_top = np.ones(1) if top is None else core.cdf(m, top, p)
        if lo is None:
            return f_top
        pt = np.array([[lo]], dtype=float)
        at = math.exp(core.row_log_likelihood(m, pt, p)[0]) if m.discrete else 0.0
        return f_top - (core.cdf(m, pt, p)[0] - at)

    # region masses by parameter bytes, an LRU like a model cache; kept out
    # of the truncated model's cache, so the model is no reference cycle
    masses = {}

    def mass(p: Params) -> float:
        def make():
            if interval and m.cdf is not None:
                val = float(cdf_span(None if hi is None else [[hi]], p)[0])
            else:
                stream = RandomStream((TRUNC_SEED, core._params_seed(p)))
                draws = core.draw(m, p, stream, TRUNC_DRAWS)
                val = float(np.mean(in_region(draws)))
            if val <= 1e-12:
                raise ModelError("region mass too small")
            return min(val, 1.0)

        return core._cached(masses, p.vector.tobytes(), make)

    def logl(rows, p):
        # masked scores nothing when no row is in the region, so a region
        # whose mass is too small raises only once a row falls in it
        return core.masked(in_region(rows), lambda s: (
            core.row_log_likelihood(m, rows[s], p) - math.log(mass(p))))

    base_summarize = getattr(m.logl, "sufficient", None)
    if interval and base_summarize is not None:
        def summarize(rows, w):
            """The base sum less W log mass(p), when every row is in the region."""
            base = base_summarize(rows, w) if in_region(rows).all() else None
            if base is None:
                return None
            total = float(w.sum())

            def from_stats(p):
                if isinstance(p, StackedParams):
                    log_mass = np.array([[math.log(mass(p[k]))] for k in range(len(p))])
                else:
                    log_mass = math.log(mass(p))
                return base(p) - total * log_mass
            return from_stats

        logl = core.sufficient(summarize)(logl)

    def rng(p, stream, n):
        out = np.empty((n, m.data_dim))
        got = 0
        misses = 0
        while got < n:
            batch = core.draw(m, p, stream, max(n - got, 16))
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
            out = np.clip(cdf_span(capped.reshape(-1, 1), p) / z, 0.0, 1.0)
            if lo is not None:
                out[x < lo] = 0.0
            return out

    return Model(f"truncate({m.label})", m.data_dim, m.param_shape, logl=logl, rng=rng,
                 cdf=cdf, constraint=m.constraint, discrete=m.discrete,
                 settings={k: v for k, v in m.settings.items() if k != "pmf_support"},
                 transform=TransformRecord("truncate", [m], {"region": region}))


# ---------------------------------------------------------------------------
# Jacobian


def jacobian(m: Model, f, f_inv) -> Model:
    """Change of data-space variables d' = f(d).

    log L'(d', p) = log L(f_inv(d'), p) + log |det J(f_inv)(d')|; draws map
    through f; estimation pulls data back through f_inv.  f and f_inv map
    the (n, dim) array of rows row by row.  The Jacobian is numeric, one
    column at a time over every row: complex-step derivatives of f_inv, or
    central differences when f_inv does not take complex input.  Every
    evaluated point is probed for f(f_inv(d)) = d; a gap above 1e-8 raises
    "inconsistent inverse".
    """
    dim = m.data_dim

    def pullback(rows):
        x = np.asarray(f_inv(rows), dtype=float)
        gap = np.max(np.abs(np.asarray(f(x), dtype=float) - rows)) if rows.size else 0.0
        if gap > 1e-8:
            raise ModelError(f"inconsistent inverse: f(f_inv(d)) off by {gap:.3g}")
        return x

    def absdet(rows):
        # complex-step derivatives are exact to machine precision for
        # analytic maps; fall back to central differences otherwise
        J = np.empty((rows.shape[0], dim, dim))
        try:
            h = 1e-20
            for j in range(dim):
                z = rows.astype(complex)
                z[:, j] += 1j * h
                J[:, :, j] = np.imag(f_inv(z)) / h
        except (TypeError, ValueError):
            h = 1e-6 * np.maximum(1.0, np.abs(rows))
            for j in range(dim):
                up, dn = rows.copy(), rows.copy()
                up[:, j] += h[:, j]
                dn[:, j] -= h[:, j]
                J[:, :, j] = (f_inv(up) - f_inv(dn)) / (2 * h[:, j, None])
        return np.abs(np.linalg.det(J))

    def logl(rows, p):
        base = core.row_log_likelihood(m, pullback(rows), p)
        with np.errstate(divide="ignore"):
            return base + np.log(absdet(rows))

    def rng(p, stream, n):
        return np.asarray(f(core.draw(m, p, stream, n)), dtype=float)

    est = None
    if m.est is not None:
        def est(d):
            return m.est(DataSet(pullback(d.rows), d.weights))

    settings = {k: v for k, v in m.settings.items() if k != "pmf_support"}
    return Model(f"jacobian({m.label})", dim, m.param_shape,
                 logl=logl, est=est, rng=rng, constraint=m.constraint,
                 settings=settings, discrete=m.discrete,
                 transform=TransformRecord("jacobian", [m],
                                           {"f": f, "f_inv": f_inv}))


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
            if core._violation(m, q) > 0:
                out[i] = -np.inf
            else:
                out[i] = core.row_log_likelihood(m, datum, q)[0]
        return out

    return Model(f"swap({m.label})", new_dim, new_shape, logl=logl,
                 transform=TransformRecord("swap", [m]))


# ---------------------------------------------------------------------------
# Data-space composition


def d_compose(from_model: Model, to_model: Model,
              nseq: RandomStream | None = None, n_draws: int = 500,
              live: bool = False) -> Model:
    """Evaluate one model's draws under another's likelihood.

    The result has an empty data space and parameters P_to (x) P_from: its
    log-likelihood draws ``n_draws`` rows from ``from_model`` at the
    from-side parameters and sums ``to_model``'s log-likelihood over them.
    By default every evaluation replays the random sequence of ``nseq``'s
    seed from its start, so the likelihood is a deterministic function of
    the parameters.  With ``live`` each evaluation draws on from ``nseq``
    itself, fresh draws every call, and estimation defaults to annealing.
    ``nseq`` defaults to RandomStream(COMPOSE_SEED), or to
    RandomStream((COMPOSE_SEED, 1)) with ``live``.
    """
    flatten = from_model.data_dim != to_model.data_dim
    if flatten and to_model.data_dim != 1:
        raise ModelError(
            f"d_compose: data dims differ ({from_model.data_dim} vs "
            f"{to_model.data_dim}) and the to-model is not 1-D")
    if nseq is None:
        nseq = RandomStream((COMPOSE_SEED, 1) if live else COMPOSE_SEED)
    models = [to_model, from_model]
    shapes = [m.param_shape for m in models]
    shape = Params.product(zip(("to.", "from."), shapes))

    def score(p):  # the joint score of any data set, d being empty
        if isinstance(p, StackedParams):  # one vector at a time
            return np.array([score(p[k]) for k in range(len(p))])
        p_to, p_from = p.split(shapes)
        stream = nseq if live else RandomStream(nseq._path)
        rows = core.draw(from_model, p_from, stream, n_draws)
        if flatten:
            rows = rows.reshape(-1, 1)
        return core.log_likelihood(to_model, DataSet(rows), p_to)

    def constraint(p):
        return _violation_sum(models, p.split(shapes))

    settings = {"mle": MleSettings(method="annealing", max_iter=400)} if live else {}
    return Model(f"d_compose({from_model.label}, {to_model.label})", 0, shape,
                 logl_joint=lambda d: score, constraint=constraint, settings=settings,
                 transform=TransformRecord(
                     "d_compose", [from_model, to_model],
                     {"seed": nseq._path, "n_draws": n_draws, "live": live}))


# ---------------------------------------------------------------------------
# Bayesian updating


def dp_compose(prior: Model, like: Model, rho: Params) -> Model:
    """Prior-times-likelihood composition for Bayesian updating.

    The prior's data space must match the likelihood model's free parameter
    space; ``rho`` pins the prior's own parameters.  The result is a model
    over the likelihood's data space whose parameters are the quantity the
    prior describes: log L'(d, p) = log L_prior(p; rho) + log L_like(d; p).
    Its logl_joint(d) prepares likelihood_sum(like, d) once; the prior
    scores a whole stack in one call, and like only the vectors it finds
    possible.  Use posterior_draws() to sample p given observed data.
    """
    n_free = int((~like.param_shape.fixed_mask).sum())
    if prior.data_dim != n_free:
        raise ModelError(
            f"dp_compose: prior data dim {prior.data_dim} != likelihood free "
            f"parameter count {n_free}")
    if len(rho) != len(prior.param_shape):
        raise ModelError("dp_compose: rho does not match the prior's parameters")
    shape = Params([("p", np.zeros(n_free))])

    def logl_joint(d):
        like_sum, stack = core.likelihood_sum(like, d), like.param_shape.stack

        def score(p):
            stacked = isinstance(p, StackedParams)
            free = p.vector if stacked else p.vector.reshape(1, -1)
            lp = core.row_log_likelihood(prior, free, rho)
            s = core.masked(np.isfinite(lp), lambda s: lp[s] + like_sum(stack(free[s])))
            return s if stacked else float(s[0])
        return score

    def constraint(p):
        return core._violation(like, like.param_shape.with_free(p.vector))

    return Model(f"dp_compose({prior.label}, {like.label})", like.data_dim,
                 shape, logl_joint=logl_joint, constraint=constraint,
                 transform=TransformRecord("dp_compose", [prior, like], {"rho": rho}))


def posterior_draws(post: Model, d: DataSet, n: int,
                    stream: RandomStream | None = None) -> Model:
    """Sample the posterior of a dp_compose model given observed data.

    Returns a PMF model over the parameter space.  Strategy, in order of
    preference: Normal-Normal conjugate closed form; Metropolis-Hastings
    when the prior has a likelihood, its own or from its CDF; weighted prior
    draws (weights = data likelihood) when the prior only has a sampler,
    that is when ``prior.strategy["L"]`` is "memoized PMF".
    ``settings["posterior_strategy"]`` set to "mh" skips the conjugate form;
    any other value than "mh" or None raises.

    Metropolis-Hastings runs K = core.mcmc_chains(n) chains in lockstep
    (McmcSettings(step_scale=0.5)) from K prior draws, a draw where the
    joint density is not finite taking a finite one in turn; every step
    scores the K candidates in one joint-density call, and the draws come
    chain after chain.  A chain moves when log u < delta joint density, its
    moves and uniforms drawn a block of steps at a time from two child
    generators of the stream, and burn-in ends where the chains' split-R-hat
    falls below solvers.RHAT_LIMIT (solvers.metropolis).  Its errors name
    the model.  The weights of prior draws come from one stacked likelihood
    call over all n draws.
    """
    from .distributions import pmf_model

    rec = post.transform
    if rec is None or rec.kind != "dp_compose":
        raise ModelError("posterior_draws needs a dp_compose model")
    prior, like = rec.bases
    rho = rec.data["rho"]
    stream = stream or RandomStream(POSTERIOR_SEED)
    forced = post.settings.get("posterior_strategy")
    if forced not in (None, "mh"):
        raise ModelError(f"{post.label}: settings['posterior_strategy'] is "
                         f"{forced!r}; set 'mh' or leave it unset")

    conj = _conjugate_normal(prior, like, rho) if forced is None else None
    if conj is not None:
        mu0, s0, s = conj
        live = d.positive()
        var = 1.0 / (1.0 / s0 ** 2 + float(live.weights.sum()) / s ** 2)
        mean = var * (mu0 / s0 ** 2 + float(live.weights @ live.rows[:, 0]) / s ** 2)
        draws = stream.normal(mean, math.sqrt(var), size=(n, 1))
        return pmf_model(DataSet(draws))

    if prior.strategy["L"] != "memoized PMF":
        from . import solvers

        x0 = core.draw(prior, rho, stream.split(0), core.mcmc_chains(n))
        joint, stack = post.logl_joint(d), post.param_shape.stack  # d prepared once

        def target(xs: np.ndarray) -> np.ndarray:
            return joint(stack(xs))

        try:
            chain = solvers.metropolis(target, x0, McmcSettings(step_scale=0.5),
                                       stream.split(1), n_samples=n)
        except ModelError as e:
            raise ModelError(f"{post.label}: posterior_draws: {e}") from None
        return pmf_model(DataSet(chain.samples))

    # RNG-only prior: weight prior draws by the data likelihood
    draws = core.draw(prior, rho, stream, n)
    logw = core.likelihood_sum(like, d)(like.param_shape.stack(draws))
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
    rec = like.transform
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

    # the last data set and its child estimates: a closed-form estimate's
    # est and its score at the optimum fit each group once between them
    last = [None, None]

    def child_rows(d: DataSet) -> DataSet:
        if last[0] is not d:
            last[:] = d, DataSet(np.array([core.estimate(child, g).params.free_values()
                                           for g in d.group_list()]))
        return last[1]

    def logl_joint(d):  # each group fitted once per data set
        return core.likelihood_sum(parent, child_rows(d))

    def est(d):
        return core.estimate(parent, child_rows(d)).params

    def rng(p, stream, n):
        out = np.empty((n, child.data_dim))
        for i in range(n):
            cp = child.param_shape.with_free(core.draw(parent, p, stream, 1)[0])
            out[i] = core.draw(child, cp, stream, 1)[0]
        return out

    return Model(f"pd_compose({parent.label}, {child.label})", child.data_dim,
                 parent.param_shape, logl_joint=logl_joint, est=est,
                 rng=rng, constraint=parent.constraint,
                 transform=TransformRecord("pd_compose", [parent, child]))
