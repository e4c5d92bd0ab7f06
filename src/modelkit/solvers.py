"""Numerical engines behind the default element strategies.

Derivative-free maximization, Metropolis-Hastings over an arbitrary log
density, CDF inversion by bracketing, stochastic memoization of a sampler
into a PMF, kernel smoothing, and finite-difference calculus.  Everything
here is deterministic given its inputs and stream seeds.

The optimizers (nelder_mead, simulated_annealing, coordinate_cycle) and the
finite differences work on plain float vectors: each takes a function f of
an np.ndarray returning a float and a start vector x0, and the optimizers
return a SolveResult.  Nelder-Mead is a port of scipy's unbounded,
non-adaptive ``optimize.minimize(method="Nelder-Mead")`` in two forms.
nelder_mead runs one search as a generator, _simplex, which yields a point
and is sent that point's value.  nelder_mead_lockstep runs K searches as
one array program over their (K, n+1, n) simplices, scoring every pending
point of a round in one call and moving every search on with masked
updates.  Its fixed cost of some 150 numpy operations a round makes it
several times slower than the generator for one search, hence the two.
Either gives scipy's result bit for bit: the same x, value, iteration
count and success flag.  Metropolis runs K chains in lockstep: it takes a
(K, dim) array of start rows and a target that scores a (K, dim) array of
points in one call, and returns the chains' samples as rows.  A step draws
its Normals in one stream call and the uniforms of the chains that need one
in one more, which gives the numbers one call per chain would.  The model
layer maps a vector to the model's Params (its layout and fixed mask) and
builds the fitted model from the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import (DataSet, McmcSettings, MleSettings, ModelError, Params,
                   RandomStream, distinct_rows)
from . import model as core
from .model import Model


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool


@dataclass
class Chain:
    """Metropolis run: samples as rows, chain after chain, one per post-burnin,
    post-thin step; the acceptance rate is over every chain's steps."""
    samples: np.ndarray
    acceptance_rate: float


# ---------------------------------------------------------------------------
# Maximization


class _Capped(Exception):
    """The evaluation cap is reached: it ends the current iteration."""


def _simplex(x0, st: MleSettings):
    """Nelder-Mead minimization from x0, as a generator: it yields each
    point to evaluate, a copy, and is sent its value; it returns (x, value,
    iterations, converged).

    A port of scipy's unbounded, non-adaptive Nelder-Mead (reflection 1,
    expansion 2, contraction and shrink 1/2) with xatol = fatol =
    st.tolerance and maxiter = maxfev = st.max_iter, which keeps each of
    scipy's choices: the initial simplex scales each nonzero coordinate of
    x0 by 1.05 and sets a zero one to 0.00025; the vertices are ordered by
    np.argsort and np.take; convergence is tested at the top of each
    iteration; the cap is checked before each evaluation, and a capped one
    ends the iteration; the search converged unless it reached either cap.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    n = len(x0)
    tol, cap = st.tolerance, st.max_iter
    evals = 0

    def value_at(x):
        nonlocal evals
        if evals >= cap:
            raise _Capped
        evals += 1
        return (yield x.copy())

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = yield from value_at(sim[k])
    except _Capped:
        pass
    # sorted twice, as scipy does
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    iterations = 1
    while evals < cap and iterations < cap:
        try:
            if (abs(sim[1:] - sim[0]).max() <= tol
                    and abs(fsim[0] - fsim[1:]).max() <= tol):
                break
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = yield from value_at(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = yield from value_at(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = yield from value_at(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # contract inside
                    xcc = 0.5 * xbar + 0.5 * sim[-1]
                    fxcc = yield from value_at(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = yield from value_at(sim[j])
            iterations += 1
        except _Capped:
            pass
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return sim[0], np.min(fsim), iterations, not (evals >= cap or iterations >= cap)


def _cost(value) -> float:
    """The value the simplex minimizes for a value of the maximized f:
    -value, and 1e300 where it is not finite."""
    return -value if math.isfinite(value) else 1e300


def _solved(done) -> SolveResult:
    x, cost, iterations, converged = done
    return SolveResult(x, -float(cost), iterations, converged)


def nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray,
                st: MleSettings | None = None) -> SolveResult:
    """Simplex maximization of f from the start vector x0.

    Stops when the simplex collapses below st.tolerance or st.max_iter
    evaluations pass.  It runs one simplex generator, f scoring each point
    it yields, so the result is scipy's bit for bit.  f scores x0 twice:
    once to check that it is finite, then as the simplex's first vertex.
    A stochastic f, such as a live d_compose likelihood, draws afresh at
    each call, so its result depends on both calls.
    """
    st = st or MleSettings()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    if not np.isfinite(f(x0.copy())):
        raise ModelError("infeasible start: objective not finite at x0")
    search = _simplex(x0, st)
    try:
        x = next(search)
        while True:
            x = search.send(_cost(f(x)))
    except StopIteration as stop:
        return _solved(stop.value)


# What a lockstep search waits on: the value of an initial vertex, of the
# reflection, of the expansion, of the outside or inside contraction, or of
# a shrunk vertex; or nothing, once it is done
_INIT, _REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK, _DONE = range(7)
# the trial points after a reflection, xbar * a + worst vertex * b, in the
# order _EXPAND, _OUTSIDE, _INSIDE
_TRIALS = np.array([[3, -2], [1.5, -0.5], [0.5, 0.5]])


def _round_values(values):
    """A score call's values as a float array, nan for each ModelError, and
    the ModelErrors by position."""
    if isinstance(values, np.ndarray):
        return values.astype(float, copy=False), {}
    errors = {i: v for i, v in enumerate(values) if isinstance(v, ModelError)}
    return np.array([math.nan if i in errors else v
                     for i, v in enumerate(values)], float), errors


def _sort_simplices(sim, fsim, rows):
    """_simplex's argsort and take on the simplices of the int array rows, in
    place; returns them sorted."""
    ind, at = fsim[rows].argsort(1), rows[:, None]
    sim[rows] = S = sim[at, ind]
    fsim[rows] = F = fsim[at, ind]
    return S, F


def nelder_mead_lockstep(score: Callable[[np.ndarray, np.ndarray], Sequence],
                         starts: np.ndarray, st: MleSettings | None = None) -> list:
    """nelder_mead from each row of the (K, dim) array starts, K searches in
    lockstep, each maximizing its own f.

    ``score(which, points)`` evaluates search which[i]'s f at points[i] for
    the (M,) int array which and the (M, dim) array points, and returns M
    values: a float array, or a sequence in which a value may be a
    ModelError instead, which ends that search.  The first call scores
    every start, which both checks it and is its simplex's first value;
    each later call scores the one point every running search waits on.
    Returns one entry per start: the SolveResult nelder_mead gives on the
    same values, bit for bit, or the ModelError that ended the search (for
    a start that is not finite, nelder_mead's "infeasible start").  score
    must give a point the same value at every call: nelder_mead scores
    each start twice, and lockstep searches once.

    The searches are one array program over their (K, dim + 1, dim)
    simplices.  After each round's score call, masked updates take every
    search one step of _simplex on, with _simplex's elementwise operations;
    the searches that reach the top of _simplex's loop in the round are
    sorted, tested and reflected together.
    """
    st = st or MleSettings()
    starts = np.asarray(starts, dtype=float)
    k, n = starts.shape
    tol, cap = st.tolerance, st.max_iter
    results: list = [None] * k
    # the simplices as _simplex builds them, and each search's state
    sim = np.repeat(starts[:, None], n + 1, 1)
    axes = np.arange(n)
    edge = sim[:, axes + 1, axes]
    sim[:, axes + 1, axes] = np.where(edge != 0, (1 + 0.05) * edge, 0.00025)
    fsim = np.full((k, n + 1), np.inf)
    point, xbar, xr = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n))
    c, fxr = np.zeros(k), np.zeros(k)
    phase, vertex = np.full(k, _INIT), np.zeros(k, int)
    evals, iters = np.ones(k, int), np.zeros(k, int)  # each scores vertex 0
    R = np.arange(k)
    v, errors = _round_values(score(R, starts))
    for i in np.flatnonzero(~np.isfinite(v)).tolist():
        results[i] = errors.get(i) or ModelError(
            "infeasible start: objective not finite at x0")
        phase[i] = _DONE
    while True:
        c[R] = np.where(np.isfinite(v), -v, 1e300)  # _cost
        # each value settles its step as _simplex does: an initial or shrunk
        # vertex takes it; a reflection is accepted as the worst vertex or
        # tried further; an expansion, or a contraction that is kept,
        # replaces the worst vertex, and one that is not starts a shrink
        init, reflect, shrunk = phase == _INIT, phase == _REFLECT, phase == _SHRINK
        expanded, outside = phase == _EXPAND, phase == _OUTSIDE
        contracted = outside | (phase == _INSIDE)
        fxr = np.where(reflect, c, fxr)
        best, good, worse = c < fsim[:, 0], c < fsim[:, -2], c < fsim[:, -1]
        contract = reflect & ~best & ~good
        keep = expanded | np.where(outside, c <= fxr, worse) & contracted
        last = reflect & good & ~best | keep
        use_xr = expanded & ~(c < fxr)
        put = init | shrunk | last
        fsim[put, np.where(last, n, vertex)[put]] = np.where(use_xr, fxr, c)[put]
        sim[last, n] = np.where(use_xr[:, None], xr, point)[last]
        # the point each search asks for next: the next initial or shrunk
        # vertex (moved before its cap check), or a trial point
        shrink = contracted & ~keep
        vertex = np.where(shrink, 1, vertex + (init | shrunk))
        moved = shrink | shrunk & (vertex <= n)
        if moved.any():
            M, to = np.flatnonzero(moved), vertex[moved]
            sim[M, to] = sim[M, 0] + 0.5 * (sim[M, to] - sim[M, 0])
            phase[M] = _SHRINK
        ask = moved | init & (vertex <= n)
        point[ask] = sim[ask, vertex[ask]]
        trial = np.flatnonzero(reflect & ~last)
        kind = np.where(contract, np.where(worse, 1, 2), 0)[trial]
        a, b = _TRIALS[kind].T[:, :, None]
        point[trial] = a * xbar[trial] + b * sim[trial, n]
        phase[trial] = _EXPAND + kind
        ask[trial] = True
        capped = ask & (evals >= cap)
        evals += ask
        # a capped step ends the iteration uncounted
        begun = init & ((vertex > n) | capped)
        ended = last | shrunk & (vertex > n)
        iters += ended
        if begun.any():  # sorted twice, as scipy does
            _sort_simplices(sim, fsim, np.flatnonzero(begun))
            iters[begun] = 1
        # the top of _simplex's loop: stop, or reflect the worst vertex
        T = np.flatnonzero(ended | capped | begun)
        S, F = _sort_simplices(sim, fsim, T)
        stop = (evals[T] >= cap) | (iters[T] >= cap)
        done = stop | ((np.abs(S[:, 1:] - S[:, :1]).reshape(len(T), n * n).max(1) <= tol)
                       & (np.abs(F[:, :1] - F[:, 1:]).max(1) <= tol))
        if done.any():
            for i in np.flatnonzero(done).tolist():
                results[T[i]] = _solved((S[i, 0], np.min(F[i]), int(iters[T[i]]),
                                         not stop[i]))
            phase[T[done]] = _DONE
            T, S = T[~done], S[~done]
        phase[T] = _REFLECT
        xbar[T] = centroid = S[:, :-1].sum(1) / n
        point[T] = xr[T] = 2 * centroid - S[:, -1]
        evals[T] += 1
        R = np.flatnonzero(phase != _DONE)
        if not R.size:
            return results
        v, errors = _round_values(score(R, point[R]))
        for i, e in errors.items():
            results[R[i]] = e
            phase[R[i]] = _DONE


def simulated_annealing(f: Callable[[np.ndarray], float], x0: np.ndarray,
                        st: MleSettings | None = None,
                        stream: RandomStream | None = None) -> SolveResult:
    """Annealed random search; tolerant of noisy objectives.

    Geometric cooling with Gaussian proposals whose scale shrinks with the
    temperature.  Seeded, so two identical runs share a trajectory.
    """
    st = st or MleSettings()
    stream = stream or RandomStream(0xC001)
    x = np.array(x0, dtype=float)
    cur_v = f(x)
    if not np.isfinite(cur_v):
        raise ModelError("infeasible start: objective not finite at x0")
    best, best_v = x.copy(), cur_v
    n_steps = max(int(st.max_iter), 200)
    t0, t_min = 1.0, 1e-3
    scale0 = np.maximum(1.0, np.abs(x))
    for i in range(n_steps):
        t = t0 * (t_min / t0) ** (i / max(n_steps - 1, 1))
        cand = x + stream.normal(size=x.size) * scale0 * math.sqrt(t)
        v = f(cand)
        if not np.isfinite(v):
            continue
        if v > cur_v or stream.uniform() < math.exp((v - cur_v) / max(t, 1e-12)):
            x, cur_v = cand, v
            if v > best_v:
                best, best_v = cand.copy(), v
    # polish deterministically from the annealed optimum
    polish = nelder_mead(f, best, st)
    if polish.value >= best_v:
        return SolveResult(polish.x, polish.value,
                           n_steps + polish.iterations, polish.converged)
    return SolveResult(best, best_v, n_steps, True)


def coordinate_cycle(f: Callable[[np.ndarray], float], x0: np.ndarray,
                     st: MleSettings | None = None) -> SolveResult:
    """Dimension-by-dimension maximization of f from x0: fix all coordinates
    but one, optimize it, rotate, and repeat until a full cycle improves by
    less than tolerance."""
    st = st or MleSettings()
    x = np.array(x0, dtype=float)

    def along(j):
        """f as a function of coordinate j alone."""
        return lambda xj: f(np.concatenate([x[:j], xj, x[j + 1:]]))

    inner = MleSettings(method="nelder_mead", tolerance=max(st.tolerance, 1e-10),
                        max_iter=st.max_iter)
    cur = f(x)
    total_iter = 0
    converged = False
    for cycle in range(50):
        start = cur
        for j in range(x.size):
            res = nelder_mead(along(j), x[j:j + 1], inner)
            x[j] = res.x[0]
            cur = res.value
            total_iter += res.iterations
        if cur - start < st.tolerance * max(1.0, abs(cur)):
            converged = True
            break
    return SolveResult(x, cur, total_iter, converged)


# ---------------------------------------------------------------------------
# Markov chain Monte Carlo


def metropolis(target_log_density: Callable[[np.ndarray], Sequence[float]],
               x0: np.ndarray, st: McmcSettings | None = None,
               stream: RandomStream | None = None,
               n_samples: int = 1000) -> Chain:
    """Random-walk Metropolis: K chains in lockstep from the K start rows of
    the (K, dim) array x0.

    The target maps a (K, dim) array of points to their K log densities (a
    list of floats or a 1-D array), so every step makes one target call for
    all chains.  Each chain adds an isotropic Normal of scale st.step_scale
    and accepts with min(1, exp(delta log density)); the step's K x dim
    Normals come from one stream call, then the uniforms of the m chains
    whose finite candidate scores below their value, in chain order, from
    one call of size m (a scalar call when m is 1), which gives the values
    of m scalar calls.  The first st.burnin steps are discarded and every
    st.thin-th step kept, until each chain holds ceil(n_samples / K)
    samples.  Chain.samples lists them chain after chain, cut to n_samples
    rows.  A start row where the target is not finite takes the finite
    rows in turn; a chain that accepts nothing in burnin raises "stuck chain".
    """
    st = st or McmcSettings()
    stream = stream or RandomStream(0xAC)
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ModelError(f"metropolis: x0 has shape {x.shape}; the start rows "
                         f"of K chains need shape (K, dim)")
    k, dim = x.shape
    lv = list(target_log_density(x))
    ok = [j for j in range(k) if math.isfinite(lv[j])]
    if not ok:
        raise ModelError(f"metropolis: target not finite at any of the {k} start rows")
    for i, j in enumerate(sorted(set(range(k)) - set(ok))):
        x[j], lv[j] = x[ok[i % len(ok)]], lv[ok[i % len(ok)]]

    per_chain = -(-n_samples // k)
    burnin, thin, scale = st.burnin, st.thin, st.step_scale
    total = burnin + per_chain * thin
    samples = np.empty((per_chain, k, dim))
    accepted = [0] * k
    # bound once: the step loop is the sampler's whole cost when the target
    # is cheap
    normal, uniform = stream.gen.normal, stream.gen.uniform
    exp, inf = math.exp, math.inf
    chains, shape = range(k), (k, dim)
    kept, keep_at, last_burnin = 0, burnin, burnin - 1
    for i in range(total):
        cand = x + normal(size=shape) * scale
        cv = target_log_density(cand)
        # a finite candidate scoring at least its chain's value moves the
        # chain; one scoring lower moves it if a uniform is below exp(delta)
        moved, low = [], []
        for j in chains:
            c = cv[j]
            if c >= lv[j]:
                if c < inf:
                    moved.append(j)
            elif c > -inf:
                low.append(j)
        if len(low) == 1:
            j = low[0]
            if uniform() < exp(cv[j] - lv[j]):
                moved.append(j)
        elif low:
            us = uniform(size=len(low)).tolist()
            moved += [j for j, u in zip(low, us) if u < exp(cv[j] - lv[j])]
        # the chains that moved take their candidate rows: all of cand when
        # every chain moved, which is the common case of a single chain
        if moved:
            for j in moved:
                lv[j] = cv[j]
                accepted[j] += 1
            if len(moved) == k:
                x = cand
            else:
                for j in moved:
                    x[j] = cand[j]
        if i == last_burnin and 0 in accepted:
            j = accepted.index(0)
            raise ModelError(
                f"stuck chain {j} of {k}: 0 acceptances in {burnin} burnin steps "
                f"(log density {lv[j]:.3g}, step_scale {scale})")
        if i == keep_at:
            samples[kept] = x
            kept += 1
            keep_at += thin
    # chain after chain
    rows = samples.transpose(1, 0, 2).reshape(k * per_chain, dim)
    return Chain(rows[:n_samples], sum(accepted) / (total * k))


def effective_sample_size(x: np.ndarray) -> float:
    """Effective size of the 1-D sample x drawn as one autocorrelated series:
    Geyer's initial positive sequence over the FFT autocorrelation.  As in
    Stan (Vehtari et al. 2021, arXiv:1903.08008), the integrated
    autocorrelation time is at least 1 / log10(n), so the size is positive,
    finite and at most n log10(n) for an antithetic series too."""
    c = np.asarray(x, dtype=float) - np.mean(x)
    n = c.size
    f = np.fft.rfft(c, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n]
    if not acov[0] > 0:
        return 1.0  # a constant sample holds one value
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0:
            break
        tau += 2.0 * pair
    return n / max(tau, 1 / math.log10(n))


# ---------------------------------------------------------------------------
# CDF inversion


def invert_cdf(cdf: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """Solve cdf(x) = u for every uniform in u: bracket, bisect, secant-refine.

    ``cdf`` maps an array of points to an array of probabilities.  Each
    element runs its own scalar algorithm: double the bracket [-1, 1] until it
    holds u, bisect until |cdf(mid) - u| < 1e-10 or the bracket is narrower
    than 1e-14 relative, then refine by secant steps that stay inside the
    bracket, falling back to its midpoint.  Elements still working share one
    cdf call per step, so a batch costs about as many calls as one element.
    """
    r = np.asarray(u, dtype=float).ravel()
    lo, hi = np.full(r.size, -1.0), np.full(r.size, 1.0)
    for bound, holds, side in ((lo, np.less_equal, "lower"),
                               (hi, np.greater_equal, "upper")):
        todo = np.arange(r.size)
        for _ in range(1024 + 1):
            todo = todo[~holds(cdf(bound[todo]), r[todo])]
            if todo.size == 0:
                break
            with np.errstate(over="ignore"):  # a runaway bracket reaches inf
                bound[todo] *= 2.0
        else:
            raise ModelError(f"unbracketable: {side} bracket expansion exhausted")
    out = np.empty(r.size)
    todo = np.arange(r.size)
    refine = []
    for _ in range(200):
        if todo.size == 0:
            break
        mid = 0.5 * (lo[todo] + hi[todo])
        v = cdf(mid)
        hit = np.abs(v - r[todo]) < 1e-10
        out[todo[hit]] = mid[hit]
        todo, mid, v = todo[~hit], mid[~hit], v[~hit]
        below = v < r[todo]
        lo[todo[below]] = mid[below]
        hi[todo[~below]] = mid[~below]
        narrow = hi[todo] - lo[todo] < 1e-14 * np.maximum(1.0, np.abs(hi[todo]))
        refine.append(todo[narrow])
        todo = todo[~narrow]
    todo = np.concatenate(refine + [todo])
    # secant refinement on the residual; elements that leave without a root
    # take their bracket's midpoint
    out[todo] = 0.5 * (lo[todo] + hi[todo])
    if todo.size == 0:
        return out
    x0, x1 = lo[todo], hi[todo]
    f = cdf(np.concatenate([x0, x1])) - np.concatenate([r[todo], r[todo]])
    f0, f1 = f[:todo.size], f[todo.size:]
    for _ in range(50):
        keep = f1 != f0
        todo, x0, x1, f0, f1 = (a[keep] for a in (todo, x0, x1, f0, f1))
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        keep = (lo[todo] <= x2) & (x2 <= hi[todo])
        todo, x0, x1, f0, f1, x2 = (a[keep] for a in (todo, x0, x1, f0, f1, x2))
        if todo.size == 0:
            break
        f2 = cdf(x2) - r[todo]
        hit = np.abs(f2) < 1e-10
        out[todo[hit]] = x2[hit]
        todo, x0, f0, x1, f1 = (a[~hit] for a in (todo, x1, f1, x2, f2))
    return out


def invert_cdf_draw(cdf: Callable[[float], float], p: Params | None,
                    stream: RandomStream) -> float:
    """Draw one value by inverting a scalar CDF with invert_cdf."""
    def array_cdf(xs):
        return np.array([cdf(x) for x in xs], dtype=float)
    return float(invert_cdf(array_cdf, [stream.uniform()])[0])


# ---------------------------------------------------------------------------
# Memoization and smoothing


def memoize_rng_to_pmf(m: Model, p: Params, n: int, stream: RandomStream) -> Model:
    """Stochastic memoization: n seeded draws become an equal-weight PMF.

    Draws with equal bits merge into one support row of weight count / n
    (``data.distinct_rows``: -0.0 and 0.0 stay two, as in ``compressed``).
    """
    from .distributions import pmf_model

    if n <= 0:
        raise ModelError("memoize_rng_to_pmf: n must be positive")
    draws = core.draw(m, p, stream, n)
    rows, inv = distinct_rows(draws)
    return pmf_model(DataSet(rows, weights=np.bincount(inv) / n))


def kde_smooth(pmf: Model) -> Model:
    """Mixture of one kernel per PMF support point, kernel centered there.

    The kernel is a Gaussian with diagonal covariance, coordinate j having
    Silverman's bandwidth h_j: the product of the catalog Normals at mu = 0
    and sigma = h_j, each evaluated once on coordinate j of the differences
    between the points and all support points.  Its log density sums over
    the coordinates, its CDF multiplies over them, and a draw is one Normal
    draw per coordinate plus the picked support point.
    """
    from .distributions import normal_model

    support: DataSet = pmf.settings.get("pmf_support")
    if support is None:
        raise ModelError("kde_smooth expects a PMF model")
    centres = support.rows
    k, dim = centres.shape
    sd = np.std(centres, axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    h = 1.06 * sd * max(k, 2) ** (-1 / 5)
    kernel = normal_model()
    kps = [Params.scalars(mu=0.0, sigma=float(hj)) for hj in h]
    weights = pmf.param_shape.block("w")
    weights = weights / weights.sum()
    logw = np.log(np.clip(weights, 1e-300, None))

    def at_offsets(element, rows):
        """element(x_j - centre_j, kernel j) for every row, centre and
        coordinate j, as a list of dim (n, k) arrays."""
        diff = rows[:, None, :] - centres[None, :, :]
        return [element(diff[:, :, j].reshape(-1, 1), kp).reshape(-1, k)
                for j, kp in enumerate(kps)]

    def logl(rows, p):
        return core.log_sum_exp(sum(at_offsets(kernel.logl, rows)) + logw)

    def rng(p, stream, n):
        idx = stream.choice(k, p=weights, size=n)
        return stream.normal(0.0, h, size=(n, dim)) + centres[idx]

    def cdf(points, p):
        return np.sum(math.prod(at_offsets(kernel.cdf, points)) * weights, axis=1)

    return Model(f"kde({pmf.label})", dim, Params([]), logl=logl, rng=rng,
                 cdf=cdf)


# ---------------------------------------------------------------------------
# Finite differences


def numeric_gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient, step cbrt(eps) * max(1, |x_i|)."""
    vec = np.asarray(x, dtype=float)
    h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(vec))
    g = np.empty(vec.size)
    for i in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        fu, fd = f(up), f(dn)
        for v, pt in ((fu, up), (fd, dn)):
            if not np.isfinite(v):
                raise ModelError(f"non-finite objective at stencil point {pt}")
        g[i] = (fu - fd) / (2 * h[i])
    return g


def numeric_hessian(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H') / 2."""
    vec = np.asarray(x, dtype=float)
    k = vec.size
    h = np.sqrt(np.finfo(float).eps) ** 0.5 * np.maximum(1.0, np.abs(vec))
    H = np.empty((k, k))
    f0 = f(vec)
    if not np.isfinite(f0):
        raise ModelError(f"non-finite objective at stencil point {vec}")

    def at(delta):
        v = f(vec + delta)
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
