"""Numerical engines behind the default element strategies.

Derivative-free maximization, Metropolis-Hastings over an arbitrary log
density, CDF inversion by bracketing, stochastic memoization of a sampler
into a PMF, kernel smoothing, and finite-difference calculus.  Everything
here is deterministic given its inputs and stream seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from .data import (DataSet, KdeSettings, McmcSettings, MleSettings, ModelError,
                   Params, RandomStream)
from . import model as core
from .model import Model


@dataclass
class SolveResult:
    params: Params
    value: float
    iterations: int
    converged: bool


@dataclass
class Chain:
    """Metropolis run: samples as rows, one per post-burnin, post-thin step."""
    samples: np.ndarray
    log_densities: np.ndarray
    acceptance_rate: float
    final_state: Params


# ---------------------------------------------------------------------------
# Maximization


def nelder_mead(f: Callable[[Params], float], x0: Params,
                st: MleSettings | None = None) -> SolveResult:
    """Simplex maximization over the free coordinates of x0.

    Entries flagged in x0.fixed_mask are frozen.  Stops when the simplex
    collapses below st.tolerance or st.max_iter evaluations pass.
    """
    st = st or MleSettings()
    v0 = f(x0)
    if not np.isfinite(v0):
        raise ModelError("infeasible start: objective not finite at x0")
    free0 = x0.free_values()
    if free0.size == 0:
        return SolveResult(x0.copy(), v0, 0, True)

    def neg(free):
        val = f(x0.with_free(free))
        return -val if np.isfinite(val) else 1e300

    res = optimize.minimize(
        neg, free0, method="Nelder-Mead",
        options={"xatol": st.tolerance, "fatol": st.tolerance,
                 "maxiter": st.max_iter, "maxfev": st.max_iter})
    params = x0.with_free(res.x)
    return SolveResult(params, -float(res.fun), int(res.nit), bool(res.success))


def simulated_annealing(f: Callable[[Params], float], x0: Params,
                        st: MleSettings | None = None,
                        stream: RandomStream | None = None) -> SolveResult:
    """Annealed random search; tolerant of noisy objectives.

    Geometric cooling with Gaussian proposals whose scale shrinks with the
    temperature.  Seeded, so two identical runs share a trajectory.
    """
    st = st or MleSettings()
    stream = stream or RandomStream(0xC001)
    v0 = f(x0)
    if not np.isfinite(v0):
        raise ModelError("infeasible start: objective not finite at x0")
    free = x0.free_values().copy()
    if free.size == 0:
        return SolveResult(x0.copy(), v0, 0, True)
    cur_v = v0
    best, best_v = free.copy(), v0
    n_steps = max(int(st.max_iter), 200)
    t0, t_min = 1.0, 1e-3
    scale0 = np.maximum(1.0, np.abs(free))
    for i in range(n_steps):
        t = t0 * (t_min / t0) ** (i / max(n_steps - 1, 1))
        cand = free + stream.normal(size=free.size) * scale0 * math.sqrt(t)
        v = f(x0.with_free(cand))
        if not np.isfinite(v):
            continue
        if v > cur_v or stream.uniform() < math.exp((v - cur_v) / max(t, 1e-12)):
            free, cur_v = cand, v
            if v > best_v:
                best, best_v = cand.copy(), v
    # polish deterministically from the annealed optimum
    polish = nelder_mead(f, x0.with_free(best), st)
    if polish.value >= best_v:
        return SolveResult(polish.params, polish.value,
                           n_steps + polish.iterations, polish.converged)
    return SolveResult(x0.with_free(best), best_v, n_steps, True)


def coordinate_cycle(m: Model, d: DataSet, st: MleSettings | None = None):
    """Dimension-by-dimension search: fix all coordinates but one, optimize,
    rotate, and repeat until a full cycle improves by less than tolerance."""
    st = st or MleSettings()
    shape = m.param_shape
    vec = shape.flatten()
    free_idx = np.flatnonzero(~shape.fixed_mask)
    if free_idx.size == 0:
        return core.estimate(m, d)
    objective = core._mle_objective(m, d)

    def along(j):
        """The objective as a function of coordinate j alone."""
        def f(x: Params) -> float:
            v = vec.copy()
            v[j] = x.scalar("x")
            return objective(shape.replace(v))
        return f

    inner = MleSettings(method="nelder_mead", tolerance=max(st.tolerance, 1e-10),
                        max_iter=st.max_iter)
    cur = objective(shape.replace(vec))
    total_iter = 0
    converged = False
    for cycle in range(50):
        start = cur
        for j in free_idx:
            res = nelder_mead(along(j), Params.scalars(x=vec[j]), inner)
            vec[j] = res.params.scalar("x")
            cur = res.value
            total_iter += res.iterations
        if cur - start < st.tolerance * max(1.0, abs(cur)):
            converged = True
            break
    params = shape.replace(vec)
    return core.FittedModel(m, params, cur, total_iter, converged,
                            core._violation(m, params))


# ---------------------------------------------------------------------------
# Markov chain Monte Carlo


def metropolis(target_log_density: Callable[[Params], float], x0: Params,
               st: McmcSettings | None = None,
               stream: RandomStream | None = None,
               n_samples: int = 1000) -> Chain:
    """Symmetric-proposal Metropolis: accept with min(1, exp(delta log density)).

    The first st.burnin steps are discarded and every st.thin-th step kept.
    A chain that accepts nothing during burnin raises "stuck chain".
    """
    st = st or McmcSettings()
    stream = stream or RandomStream(0xAC)
    dim = len(x0)
    x = x0.flatten().copy()
    lv = target_log_density(x0)
    if not np.isfinite(lv):
        raise ModelError("metropolis: target not finite at the start point")
    proposal = st.proposal
    prop_params = proposal.param_shape if proposal is not None else None

    total = st.burnin + n_samples * st.thin
    samples = np.empty((n_samples, dim))
    logd = np.empty(n_samples)
    accepted = 0
    kept = 0
    for i in range(total):
        if proposal is None:
            step = stream.normal(size=dim) * st.step_scale
        else:
            step = np.asarray(core.draw(proposal, prop_params, stream),
                              dtype=float) * st.step_scale
        cand = x + step
        cv = target_log_density(x0.replace(cand))
        if np.isfinite(cv) and (cv >= lv or stream.uniform() < math.exp(cv - lv)):
            x, lv = cand, cv
            accepted += 1
        if i == st.burnin - 1 and accepted == 0:
            raise ModelError(
                f"stuck chain: 0 acceptances in {st.burnin} burnin steps "
                f"(log density {lv:.3g}, step_scale {st.step_scale})")
        if i >= st.burnin and (i - st.burnin) % st.thin == 0 and kept < n_samples:
            samples[kept] = x
            logd[kept] = lv
            kept += 1
    return Chain(samples, logd, accepted / total, x0.replace(x))


# ---------------------------------------------------------------------------
# CDF inversion


def invert_cdf_draw(cdf: Callable[[float], float], p: Params | None,
                    stream: RandomStream) -> float:
    """Draw by inverting a scalar CDF: bracket, bisect, then secant-refine."""
    r = stream.uniform()
    lo, hi = -1.0, 1.0
    for _ in range(1024 + 1):
        if cdf(lo) <= r:
            break
        lo *= 2.0
    else:
        raise ModelError("unbracketable: lower bracket expansion exhausted")
    for _ in range(1024 + 1):
        if cdf(hi) >= r:
            break
        hi *= 2.0
    else:
        raise ModelError("unbracketable: upper bracket expansion exhausted")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = cdf(mid)
        if abs(v - r) < 1e-10:
            return mid
        if v < r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(hi)):
            break
    # secant refinement on the residual
    x0, x1 = lo, hi
    f0, f1 = cdf(x0) - r, cdf(x1) - r
    for _ in range(50):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi):
            break
        f2 = cdf(x2) - r
        if abs(f2) < 1e-10:
            return x2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Memoization and smoothing


def memoize_rng_to_pmf(m: Model, p: Params, n: int, stream: RandomStream) -> Model:
    """Stochastic memoization: n seeded draws become an equal-weight PMF.

    Duplicate draws merge with summed weight; weights total 1.
    """
    from .distributions import pmf_model

    if n <= 0:
        raise ModelError("memoize_rng_to_pmf: n must be positive")
    draws = core.draw(m, p, stream, n)
    rows, counts = np.unique(draws, axis=0, return_counts=True)
    return pmf_model(DataSet(rows, weights=counts / n))


def kde_smooth(pmf: Model, st: KdeSettings | None = None) -> Model:
    """Mixture of one kernel per PMF support point, kernel centered there.

    The kernel must have a closed-form likelihood; its location block is
    named "mu" and the remaining blocks come from st.bandwidth.
    """
    from .distributions import normal_model, mvn_model

    support: DataSet = pmf.settings.get("pmf_support")
    if support is None:
        raise ModelError("kde_smooth expects a PMF model")
    dim = support.dim
    st = st or KdeSettings()
    kernel = st.kernel
    if kernel is None:
        kernel = normal_model() if dim == 1 else mvn_model(dim)
    bw = st.bandwidth
    if bw is None:
        bw = _silverman_bandwidth(kernel, support)
    weights = pmf.param_shape.block("w")
    weights = weights / weights.sum()
    # non-location blocks come from the bandwidth params
    scaled = kernel.param_shape.with_blocks(
        **{n: bw.block(n) for n in kernel.param_shape.names if n != "mu"})
    kparams = []
    for row in support.rows:
        kp = scaled.with_blocks(mu=row)
        if kernel.constraint is not None and kernel.constraint(kp) > 0:
            raise ModelError("kde_smooth: kernel covariance is not positive definite")
        kparams.append(kp)
    logw = np.log(np.clip(weights, 1e-300, None))

    def logl(rows, p):
        comp = np.column_stack([
            np.asarray(kernel.logl(rows, kp), dtype=float) for kp in kparams])
        mx = np.max(comp + logw, axis=1, keepdims=True)
        return (mx[:, 0]
                + np.log(np.sum(np.exp(comp + logw - mx), axis=1)))

    def rng(p, stream, n):
        idx = stream.choice(len(kparams), p=weights, size=n)
        out = np.empty((n, dim))
        for j in range(n):
            out[j] = core.draw(kernel, kparams[idx[j]], stream)
        return out

    cdf = None
    if kernel.cdf is not None:
        def cdf(points, p):
            comp = np.column_stack([
                np.asarray(kernel.cdf(points, kp), dtype=float) for kp in kparams])
            return comp @ weights

    return Model(f"kde({pmf.label})", dim, Params([]), logl=logl, rng=rng,
                 cdf=cdf, settings={"kde_support": support})


def _silverman_bandwidth(kernel: Model, support: DataSet) -> Params:
    n = max(len(support), 2)
    sd = np.std(support.rows, axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    h = 1.06 * sd * n ** (-1 / 5)
    names = kernel.param_shape.names
    if "sigma" in names:
        return Params([("sigma", [float(h[0])])])
    if "cov" in names:
        return Params([("cov", np.diag(h ** 2).ravel())])
    raise ModelError("cannot derive a default bandwidth for this kernel")


# ---------------------------------------------------------------------------
# Finite differences


def numeric_gradient(f: Callable[[Params], float], x: Params) -> np.ndarray:
    """Central-difference gradient, step cbrt(eps) * max(1, |x_i|)."""
    vec = x.flatten()
    h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(vec))
    g = np.empty(vec.size)
    for i in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        fu, fd = f(x.replace(up)), f(x.replace(dn))
        for v, pt in ((fu, up), (fd, dn)):
            if not np.isfinite(v):
                raise ModelError(f"non-finite objective at stencil point {pt}")
        g[i] = (fu - fd) / (2 * h[i])
    return g


def numeric_hessian(f: Callable[[Params], float], x: Params) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H') / 2."""
    vec = x.flatten()
    k = vec.size
    h = np.sqrt(np.finfo(float).eps) ** 0.5 * np.maximum(1.0, np.abs(vec))
    H = np.empty((k, k))
    f0 = f(x)
    if not np.isfinite(f0):
        raise ModelError(f"non-finite objective at stencil point {vec}")

    def at(delta):
        v = f(x.replace(vec + delta))
        if not np.isfinite(v):
            raise ModelError(f"non-finite objective at stencil point {vec + delta}")
        return v

    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        H[i, i] = (at(ei) - 2 * f0 + at(-ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (at(ei + ej) - at(ei - ej) - at(-ei + ej)
                                 + at(-ei - ej)) / (4 * h[i] * h[j])
    return 0.5 * (H + H.T)
