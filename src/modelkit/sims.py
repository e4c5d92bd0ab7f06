"""Agent-based simulations wrapped as first-class models.

Each simulation exposes only a sampler (plus parameters where noted); the
likelihood, estimator, and CDF all come from the dispatch layer's defaults,
so every transform and inference routine applies to them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as core
from .data import (DataSet, KdeSettings, MleSettings, ModelError, Params,
                   RandomStream)
from .distributions import _strict_positive
from .model import Model, special


# ---------------------------------------------------------------------------
# Random network


@dataclass(frozen=True)
class NetworkSimConfig:
    n_agents: int = 10
    sigma: float = 1.0

    def __post_init__(self):
        if self.n_agents < 2:
            raise ModelError("network sim needs at least 2 agents")
        if self.sigma <= 0:
            raise ModelError("network sim needs sigma > 0")


def network_sim_model(cfg: NetworkSimConfig | None = None,
                      sigma_free: bool = False) -> Model:
    """Link-count distribution of a random spatial network.

    One run: draw agent positions p_i ~ Normal(0, sigma), link each pair
    with probability 1/(1 + |p_i - p_j|), output each agent's link count
    sorted nonincreasing.  With sigma_free the position spread becomes the
    model's one parameter; otherwise the parameter space is empty.
    """
    cfg = cfg or NetworkSimConfig()
    a = cfg.n_agents
    upper = np.triu(np.ones((a, a), dtype=bool), k=1)

    def rng(p, stream, n):
        sigma = p.scalar("sigma") if sigma_free else cfg.sigma
        pos = stream.normal(0.0, sigma, size=(n, a))
        dist = np.abs(pos[:, :, None] - pos[:, None, :])
        r = stream.uniform(size=(n, a, a))
        link = r <= 1.0 / (1.0 + dist)
        adj = link & upper
        adj |= adj.transpose(0, 2, 1)
        deg = adj.sum(axis=2)
        return np.sort(deg, axis=1)[:, ::-1].astype(float)

    if sigma_free:
        shape = Params.scalars(sigma=cfg.sigma)
        constraint = lambda p: _strict_positive(p.scalar("sigma"))
    else:
        shape = Params([])
        constraint = None
    return Model("network_sim", a, shape, rng=rng, constraint=constraint,
                 discrete=True)


# ---------------------------------------------------------------------------
# Demand


@dataclass(frozen=True)
class DemandConfig:
    n_agents: int = 1000
    price: float = 1.0

    def __post_init__(self):
        if self.price <= 0:
            raise ModelError("demand sim needs price > 0")
        if self.n_agents < 1:
            raise ModelError("demand sim needs at least one agent")


def consumption(alpha, b, price):
    """Utility-maximizing (q1, q2) for U = q1^alpha + q2 under p*q1 + q2 <= b.

    The interior optimum q1 = (price/alpha)^(1/(1-alpha)) is clamped to
    affordability b/price; q2 takes the rest of the budget.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    q1 = np.minimum((price / alpha) ** (1.0 / (1.0 - alpha)), b / price)
    q1 = np.clip(q1, 0.0, None)
    q2 = np.clip(b - price * q1, 0.0, None)
    return q1, q2


TASTE_WINDOW = (0.01, 0.99)


def taste_from_uniform(mu_alpha: float, u: np.ndarray) -> np.ndarray:
    """Normal(mu_alpha, 1) tastes truncated to TASTE_WINDOW, by inversion.

    Each uniform u maps to the truncated Normal's quantile at u, so a taste
    rises with both u and mu_alpha.  When the window lies above the mean the
    quantile is taken on the reflected, lower-tail side, where ndtr keeps
    its relative precision.  Raises ModelError when the window holds no
    representable mass at mu_alpha.
    """
    a, b = (w - mu_alpha for w in TASTE_WINDOW)
    reflect = a > 0
    lo, hi = special.ndtr([-b, -a] if reflect else [a, b])
    if not hi > lo:
        raise ModelError(
            f"demand_sim: element RNG: the taste window {TASTE_WINDOW} has no "
            f"mass under Normal(mu_alpha={mu_alpha}, 1)")
    if reflect:
        z = -special.ndtri(hi - (hi - lo) * u)
    else:
        z = special.ndtri(lo + (hi - lo) * u)
    return np.clip(mu_alpha + z, *TASTE_WINDOW)


def demand_model(cfg: DemandConfig | None = None) -> Model:
    """Mean consumption (Q1, Q2) of utility maximizers U = q1^a + q2.

    Per agent: budget b ~ Normal(mu_b, 1) floored at 0, taste a ~
    Normal(mu_alpha, 1) truncated to [0.01, 0.99].  The interior
    optimum q1 = (p/a)^(1/(1-a)) is clamped to affordability b/p, and
    q2 = max(b - p q1, 0), so spend never exceeds budget.  Likelihood comes
    from a 500-draw KDE-smoothed memoized PMF; estimation cycles one
    parameter dimension at a time.

    Tastes are drawn by inversion (taste_from_uniform), one uniform per
    agent, so n runs take exactly one (n, agents) array of budget normals
    and one of uniforms whatever the parameters: the memoized likelihood
    sees the same random numbers at every parameter value.
    """
    cfg = cfg or DemandConfig()
    p1 = cfg.price

    def rng(p, stream, n):
        mu_b, mu_a = p.scalar("mu_b"), p.scalar("mu_alpha")
        b = np.clip(stream.normal(mu_b, 1.0, size=(n, cfg.n_agents)), 0.0, None)
        alpha = taste_from_uniform(mu_a, stream.uniform(size=(n, cfg.n_agents)))
        q1, q2 = consumption(alpha, b, p1)
        return np.column_stack([q1.mean(axis=1), q2.mean(axis=1)])

    def constraint(p):
        # keep the MLE search where the taste window holds real mass
        mu_a = p.scalar("mu_alpha")
        mu_b = p.scalar("mu_b")
        v = max(0.0, -2.0 - mu_a) + max(0.0, mu_a - 3.0)
        v += max(0.0, -10.0 - mu_b) + max(0.0, mu_b - 20.0)
        return v

    return Model("demand_sim", 2, Params.scalars(mu_b=3.0, mu_alpha=0.5),
                 rng=rng, constraint=constraint,
                 settings={"memoize_draws": 500,
                           "kde": KdeSettings(),
                           "mle": MleSettings(method="coordinate_cycle",
                                              tolerance=1e-4, max_iter=100)})


# ---------------------------------------------------------------------------
# Spatial search


@dataclass(frozen=True)
class SearchConfig:
    grid_w: int = 20
    grid_h: int = 20
    n_pairs: int = 10

    def __post_init__(self):
        if self.grid_w < 1 or self.grid_h < 1:
            raise ModelError("search sim needs grid sides of at least 1")
        if 2 * self.n_pairs > self.grid_w * self.grid_h:
            raise ModelError("search sim: grid too small for the agent count")
        if self.n_pairs < 1:
            raise ModelError("search sim needs at least one pair")


_MOORE = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _neighbours(cell: int, w: int, h: int) -> list[int]:
    """In-bounds neighbours of cell x + w*y on a w x h grid, in _MOORE order."""
    x, y = cell % w, cell // w
    return [cell + dx + w * dy for dx, dy in _MOORE
            if 0 <= x + dx < w and 0 <= y + dy < h]


def search_model(cfg: SearchConfig | None = None) -> Model:
    """Pairing times of a two-type spatial search.

    Equal numbers of A and B agents land on distinct grid cells.  Each tick
    (starting at 1): all pairings resolve simultaneously -- an unpaired
    agent adjacent (eight-neighborhood) to an unpaired opposite-type agent
    pairs with the lowest-index candidate and both leave the grid -- then
    every remaining agent steps to a random unoccupied neighboring cell.
    Output: each agent's pairing time, in agent-index order (A's then B's).
    """
    cfg = cfg or SearchConfig()
    n_agents = 2 * cfg.n_pairs

    def one_run(stream: RandomStream) -> np.ndarray:
        w, h = cfg.grid_w, cfg.grid_h
        pos = stream.gen.choice(w * h, size=n_agents, replace=False).tolist()
        grid = [-1] * (w * h)  # cell x + w*y -> its unpaired agent, or -1
        for i, c in enumerate(pos):
            grid[c] = i
        live = list(range(n_agents))
        times = [0] * n_agents  # 0 until paired
        tick = 0
        while live:
            tick += 1
            # simultaneous pairing, lowest index first
            for i in live:
                if times[i]:
                    continue
                mates = [j for j in (grid[c] for c in _neighbours(pos[i], w, h))
                         if j >= 0 and not times[j]
                         and (j < cfg.n_pairs) != (i < cfg.n_pairs)]
                if mates:
                    times[i] = times[min(mates)] = tick
            for i in live:
                if times[i]:
                    grid[pos[i]] = -1
            live = [i for i in live if not times[i]]
            # movement
            for i in live:
                options = [c for c in _neighbours(pos[i], w, h) if grid[c] < 0]
                if options:
                    pick = options[int(stream.integers(len(options)))]
                    grid[pos[i]], grid[pick] = -1, i
                    pos[i] = pick
        return np.array(times, dtype=float)

    def rng(p, stream, n):
        return np.array([one_run(stream) for _ in range(n)])

    return Model("search_sim", n_agents, Params([]), rng=rng)


def fuzz_weibull_posterior(side_prior: Model, pairs_prior: Model,
                           reps: int = 100,
                           s: RandomStream | None = None) -> Model:
    """Posterior cloud of Weibull fits under fuzzed simulation settings.

    Each rep draws a grid side and pair count from the 1-D priors at their
    own parameter values (rounded, clamped to a feasible configuration),
    runs the search model once, fits a Weibull to the pooled pairing times,
    and records (lambda, k).  The result is an equal-weight PMF over those
    parameter pairs.
    """
    from .distributions import pmf_model, weibull_model

    s = s or RandomStream(0xF022)
    wb = weibull_model()
    rows = np.empty((reps, 2))
    for r in range(reps):
        st = s.split(r)
        side = int(round(float(
            core.draw(side_prior, side_prior.param_shape, st.split(0), 1)[0, 0])))
        side = max(side, 2)
        n_pairs = int(round(float(
            core.draw(pairs_prior, pairs_prior.param_shape, st.split(1), 1)[0, 0])))
        n_pairs = min(max(n_pairs, 1), side * side // 2)
        sim = search_model(SearchConfig(side, side, n_pairs))
        times = core.draw(sim, Params([]), st.split(2), 1)[0].reshape(-1, 1)
        fit = core.estimate(wb, DataSet(times))
        rows[r] = (fit.params.scalar("lam"), fit.params.scalar("k"))
    return pmf_model(DataSet(rows, names=["lambda", "k"]))
