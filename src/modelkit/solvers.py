"""Numerical engines behind the default element strategies.

Derivative-free maximization, Metropolis-Hastings over an arbitrary log
density, CDF inversion by bracketing, stochastic memoization of a sampler
into a PMF, kernel smoothing, and finite-difference calculus.  Everything
here is deterministic given its inputs and stream seeds.

The optimizers (nelder_mead, simulated_annealing, coordinate_cycle) and the
finite differences work on plain float vectors: each takes a function f of
an np.ndarray returning a float and a start vector x0, and the optimizers
return a SolveResult.  Nelder-Mead is a port of scipy's unbounded,
non-adaptive ``optimize.minimize(method="Nelder-Mead")``.  nelder_mead
runs one search as a plain loop that calls f at each point.
nelder_mead_lockstep runs K searches as one array program over their
(K, n+1, n) simplices, scoring every pending point of a round in one call
and moving every search on with masked updates.  Its fixed cost of some
150 numpy operations a round makes it several times slower than the loop
for one search, hence the two.  Either gives scipy's result bit for bit:
the same x, value, iteration count and success flag.  Metropolis runs K
chains in lockstep: it takes a (K, dim) array of start rows and a target
that scores a (K, dim) array of points in one call, and returns the
chains' samples as rows.  It draws the Normal moves and the uniforms of a
block of steps in one call each, steps every chain by array operations,
and ends burn-in where the chains' split_rhat says they agree.  The model
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
    post-thin step; the acceptance rate is over every step each chain ran;
    burnin is the number of steps run before the first kept sample, and rhat
    the largest split-R-hat at the last burn-in check point (inf when no
    check ran)."""
    samples: np.ndarray
    acceptance_rate: float
    burnin: int
    rhat: float


# ---------------------------------------------------------------------------
# Maximization


class _Capped(Exception):
    """The evaluation cap is reached: it ends the current iteration."""


def _initial_simplices(starts: np.ndarray) -> np.ndarray:
    """scipy's initial simplex for each start, (..., n) to (..., n+1, n):
    the start, then one vertex per coordinate that scales it by 1.05, or
    sets it to 0.00025 where it is zero."""
    n = starts.shape[-1]
    sim = np.repeat(starts[..., None, :], n + 1, -2)
    axes = np.arange(n)
    edge = sim[..., axes + 1, axes]
    sim[..., axes + 1, axes] = np.where(edge != 0, (1 + 0.05) * edge, 0.00025)
    return sim


def _cost(value) -> float:
    """The value the simplex minimizes for a value of the maximized f:
    -value, and 1e300 where it is not finite."""
    return -value if math.isfinite(value) else 1e300


def _solved(x, cost, iterations, converged) -> SolveResult:
    return SolveResult(x, -float(cost), iterations, converged)


def nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray,
                st: MleSettings | None = None) -> SolveResult:
    """Simplex maximization of f from the start vector x0.

    Stops when the simplex collapses below st.tolerance or st.max_iter
    evaluations pass.  f is called on a copy of each point.  f scores x0
    twice: once to check that it is finite, then as the simplex's first
    vertex.  A stochastic f, such as a live d_compose likelihood, draws
    afresh at each call, so its result depends on both calls.

    A port of scipy's unbounded, non-adaptive Nelder-Mead (reflection 1,
    expansion 2, contraction and shrink 1/2), minimizing _cost(f), with
    xatol = fatol = st.tolerance and maxiter = maxfev = st.max_iter, which
    keeps each of scipy's choices, so the result is scipy's bit for bit:
    the initial simplex scales each nonzero coordinate of x0 by 1.05 and
    sets a zero one to 0.00025; the vertices are ordered by np.argsort and
    np.take; convergence is tested at the top of each iteration; the cap is
    checked before each evaluation, and a capped one ends the iteration;
    the search converged unless it reached either cap.
    """
    st = st or MleSettings()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    if not np.isfinite(f(x0.copy())):
        raise ModelError("infeasible start: objective not finite at x0")
    n = len(x0)
    tol, cap = st.tolerance, st.max_iter
    evals = 0

    def value_at(x):
        nonlocal evals
        if evals >= cap:
            raise _Capped
        evals += 1
        return _cost(f(x.copy()))

    sim = _initial_simplices(x0)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = value_at(sim[k])
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
            fxr = value_at(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = value_at(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = value_at(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # contract inside
                    xcc = 0.5 * xbar + 0.5 * sim[-1]
                    fxcc = value_at(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = value_at(sim[j])
            iterations += 1
        except _Capped:
            pass
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return _solved(sim[0], np.min(fsim), iterations,
                   not (evals >= cap or iterations >= cap))


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
    """nelder_mead's argsort and take on the simplices of the int array
    rows, in place; returns them sorted."""
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
    search one step of nelder_mead on, with its elementwise operations;
    the searches that reach the top of nelder_mead's loop in the round are
    sorted, tested and reflected together.
    """
    st = st or MleSettings()
    starts = np.asarray(starts, dtype=float)
    k, n = starts.shape
    tol, cap = st.tolerance, st.max_iter
    results: list = [None] * k
    # the simplices as nelder_mead builds them, and each search's state
    sim = _initial_simplices(starts)
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
        # each value settles its step as nelder_mead does: an initial or shrunk
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
        # the top of nelder_mead's loop: stop, or reflect the worst vertex
        T = np.flatnonzero(ended | capped | begun)
        S, F = _sort_simplices(sim, fsim, T)
        stop = (evals[T] >= cap) | (iters[T] >= cap)
        done = stop | ((np.abs(S[:, 1:] - S[:, :1]).reshape(len(T), n * n).max(1) <= tol)
                       & (np.abs(F[:, :1] - F[:, 1:]).max(1) <= tol))
        if done.any():
            for i in np.flatnonzero(done).tolist():
                results[T[i]] = _solved(S[i, 0], np.min(F[i]), int(iters[T[i]]),
                                        not stop[i])
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

# steps whose Normal moves and uniforms metropolis draws in one call each
MH_BLOCK = 256
# burn-in ends at the first check point, step RHAT_FIRST and every RHAT_EVERY
# steps after it, where split_rhat of the chains' recent draws is below
# RHAT_LIMIT in every coordinate
RHAT_LIMIT = 1.05
RHAT_FIRST = 100
RHAT_EVERY = 50


def _moments(seqs: np.ndarray):
    """Means and sums of squared deviations over axis 1 of the (S, n, C)
    array of S sequences of n draws in C columns, as two (S, C) arrays.  The
    draws are measured from each sequence's first, so that a constant
    sequence has a sum of exactly 0; a matrix product and an einsum are
    several times faster here than numpy's reductions over rows."""
    d = seqs - seqs[:, :1]
    dmean = np.ones(seqs.shape[1]) @ d / seqs.shape[1]
    d -= dmean[:, None]
    return seqs[:, 0] + dmean, np.einsum("ijk,ijk->ik", d, d)


def _rhat(m: int, means: np.ndarray, sq_devs: np.ndarray) -> np.ndarray:
    """R-hat of each column from the (S, dim) means and sums of squared
    deviations of S sequences of m draws (see split_rhat)."""
    s = len(means)
    w = sq_devs.sum(axis=0) / (s * (m - 1))
    dev = means - means.sum(axis=0) / s
    var_plus = (m - 1) / m * w + np.einsum("ij,ij->j", dev, dev) / (s - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w > 0, np.sqrt(var_plus / w), math.inf)


def split_rhat(draws: np.ndarray) -> np.ndarray:
    """Split-R-hat of each coordinate of the (n, K, dim) draws of K chains
    (Gelman & Rubin 1992, split as in Vehtari et al. 2021, not rank-
    normalized), as a (dim,) array.  Each chain's first and last m = n // 2
    draws are two sequences (an odd n leaves out the middle draw).  With W
    the mean of the 2K within-sequence variances and B / m the variance of
    the 2K sequence means, R-hat = sqrt(((m - 1) / m W + B / m) / W); it is
    inf where W is 0 (every sequence constant) or m is below 2."""
    x = np.asarray(draws, dtype=float)
    n, k, dim = x.shape
    m = n // 2
    if m < 2:
        return np.full(dim, math.inf)
    # sequence j of chain c and coordinate i is seqs[j, :, c * dim + i]
    means, sq_devs = _moments(np.stack((x[:m], x[n - m:])).reshape(2, m, k * dim))
    return _rhat(m, means.reshape(2 * k, dim), sq_devs.reshape(2 * k, dim))


def _merged(n: np.ndarray, means: np.ndarray, sq_devs: np.ndarray):
    """The mean and sum of squared deviations of consecutive pieces of one
    sequence from the pieces' (J,) lengths and (J, C) moments (Chan et al.'s
    pooled formula).  Means are measured from the first piece's, so that
    constant pieces at one value pool to a sum of exactly 0."""
    d = means - means[0]
    dmean = n @ d / n.sum()
    d -= dmean
    return means[0] + dmean, sq_devs.sum(axis=0) + n @ (d * d)


class _BurnIn:
    """What the stop rule of a burn-in of at most cap steps keeps of K
    chains' draws.  Check points fall at step RHAT_FIRST, every RHAT_EVERY
    steps after it, and at the cap from RHAT_FIRST on; a check at step c
    reads split-R-hat over the second half of the burn-in, steps c - 2q to
    c - q and c - q to c, q = c // 4.  Every step where such a sequence
    starts or ends is a mark.  The draws since the last mark fill a small
    buffer, and at the mark they are kept only as their per-chain means and
    squared deviations (_moments), which a check pools into the 2K
    sequences' (_merged)."""

    def __init__(self, cap: int, k: int, dim: int):
        self.cap, self.k, self.dim = cap, k, dim
        self.checks = {*range(RHAT_FIRST, cap, RHAT_EVERY), cap} if cap >= RHAT_FIRST else set()
        marks = sorted({cap, *(c - j * (c // 4) for c in self.checks for j in (0, 1, 2))})
        # piece j holds the steps from mark j - 1 (or 0) to mark j
        self.marks, self.piece_at = marks, {t: j for j, t in enumerate(marks)}
        self.lengths = np.diff(marks, prepend=0).astype(float)
        self.means = np.empty((len(marks), k * dim))
        self.sq_devs = np.empty((len(marks), k * dim))
        self.buffer = np.empty((int(self.lengths.max()), k, dim))
        self.mark, self.start = 0, 0  # the next mark's index, the last mark
        self.rhat = math.inf  # the largest split-R-hat at the last check

    def rows(self, done: int):
        """The buffer rows for the steps after step done, and the number of
        steps from done to the next mark."""
        return self.buffer[done - self.start:], self.marks[self.mark] - done

    def ends_at(self, done: int) -> bool:
        """Whether burn-in ends after step done, the rows of every step up
        to it filled: at a check where split-R-hat is below RHAT_LIMIT in
        every coordinate, and at the cap."""
        if done < self.marks[self.mark]:
            return False
        n, j = done - self.start, self.mark
        means, sq_devs = _moments(self.buffer[:n].reshape(1, n, -1))
        self.means[j], self.sq_devs[j] = means[0], sq_devs[0]
        self.mark, self.start = j + 1, done
        if done not in self.checks:
            return done == self.cap
        q = done // 4
        lo, mid = self.piece_at[done - 2 * q] + 1, self.piece_at[done - q] + 1
        halves = [_merged(self.lengths[a:b], self.means[a:b], self.sq_devs[a:b])
                  for a, b in ((lo, mid), (mid, j + 1))]
        means, sq_devs = (np.concatenate(h).reshape(2 * self.k, self.dim) for h in zip(*halves))
        self.rhat = float(np.max(_rhat(q, means, sq_devs), initial=-math.inf))
        return done == self.cap or self.rhat < RHAT_LIMIT


def metropolis(target_log_density: Callable[[np.ndarray], Sequence[float]],
               x0: np.ndarray, st: McmcSettings | None = None,
               stream: RandomStream | None = None,
               n_samples: int = 1000) -> Chain:
    """Random-walk Metropolis: K chains in lockstep from the K start rows of
    the (K, dim) array x0.

    The target maps a (K, dim) array of points to their K log densities (an
    array, or a list of floats), so every step makes one target call for all
    chains.  Each chain adds an isotropic Normal of scale st.step_scale and
    moves when log u < delta log density, for a uniform u in [0, 1); a
    candidate scoring nan or +-inf never moves a chain.  The random numbers
    come from two child generators seeded by one ``integers`` call on the
    stream: before each block of up to MH_BLOCK steps, one call draws the
    block's (B, K, dim) Normal moves and one its (B, K) uniforms, step by
    step and chain after chain, so the samples do not depend on the block
    size.  A step uses its K uniforms whether or not a chain needs one.

    Burn-in ends at the first check point where split-R-hat over the second
    half of the burn-in so far is below RHAT_LIMIT in every coordinate, and
    at the cap st.burnin at the latest (_BurnIn); a block ends at each step
    the rule reads, so where burn-in ends does not depend on MH_BLOCK
    either.  Then every st.thin-th step is kept, until each chain holds
    ceil(n_samples / K) samples.  Chain.samples lists them chain after
    chain, cut to n_samples rows.  A start row where the target is not
    finite takes the finite rows in turn; a chain that accepts nothing in
    burn-in raises "stuck chain" where burn-in ends.
    """
    st = st or McmcSettings()
    stream = stream or RandomStream(0xAC)
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ModelError(f"metropolis: x0 has shape {x.shape}; the start rows "
                         f"of K chains need shape (K, dim)")
    k, dim = x.shape
    lv = np.array(target_log_density(x), dtype=float)
    finite = np.isfinite(lv)
    ok = np.flatnonzero(finite).tolist()
    if not ok:
        raise ModelError(f"metropolis: target not finite at any of the {k} start rows")
    for i, j in enumerate(np.flatnonzero(~finite).tolist()):
        x[j], lv[j] = x[ok[i % len(ok)]], lv[ok[i % len(ok)]]

    per_chain = -(-n_samples // k)
    thin, scale = st.thin, st.step_scale
    record = _BurnIn(st.burnin, k, dim)
    samples = np.empty((per_chain, k, dim))
    accepted = np.zeros(k, dtype=np.int64)
    moves_gen, u_gen = map(np.random.default_rng,
                           stream.gen.integers(1 << 63, size=2).tolist())
    less, copyto, inf = np.less, np.copyto, math.inf
    burnin, total = None, math.inf  # until burn-in ends
    done, kept, keep_at = 0, 0, 0
    while done < total:
        if burnin is None:  # burn-in: every step goes to the record
            out, left = record.rows(done)
            b, keep, every = min(MH_BLOCK, left), 0, 1
        else:  # every thin-th step goes to the samples
            b, out, keep, every = (min(MH_BLOCK, total - done), samples[kept:],
                                   keep_at - done, thin)
        moves = moves_gen.normal(0.0, scale, (b, k, dim))
        with np.errstate(divide="ignore"):  # u = 0 gives -inf: any finite move
            logu = np.log(u_gen.random((b, k)))
        flags = np.empty((b, k), dtype=bool)  # the chains each step moves
        i = 0
        for s, move, lu, mv, mv_rows in zip(range(b), moves, logu, flags,
                                            flags[:, :, None]):
            cand = x + move
            cv = target_log_density(cand)
            less(lu, cv - lv, out=mv)  # false at a nan or -inf candidate
            mv &= less(cv, inf)
            copyto(x, cand, where=mv_rows)
            copyto(lv, cv, where=mv)
            if s == keep:
                out[i] = x
                i += 1
                keep += every
        accepted += flags.sum(axis=0)
        done += b
        if burnin is not None:
            kept, keep_at = kept + i, done + keep - b
        elif record.ends_at(done):
            if not accepted.all():
                j = int(np.argmin(accepted))
                raise ModelError(
                    f"stuck chain {j} of {k}: 0 acceptances in {done} burnin steps "
                    f"(log density {lv[j]:.3g}, step_scale {scale})")
            burnin, total, keep_at = done, done + per_chain * thin, done
    # chain after chain
    rows = samples.transpose(1, 0, 2).reshape(k * per_chain, dim)
    return Chain(rows[:n_samples], int(accepted.sum()) / (total * k), burnin, record.rhat)


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
