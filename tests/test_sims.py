"""Simulation models: construction rules and derived oracle checks."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from modelkit import (DataSet, ModelError, Params, RandomStream,
                      DemandConfig, NetworkSimConfig, SearchConfig,
                      demand_model, estimate, fuzz_weibull_posterior,
                      network_sim_model, pmf_model, search_model,
                      weibull_model)
from modelkit import model as core
from modelkit.data import EMPTY_PARAMS
from modelkit.sims import TASTE_WINDOW, consumption, taste_from_uniform


def test_network_two_agent_link_probability():
    # P(link) = E[1/(1 + |x1 - x2|)], x_i ~ N(0,1): 0.543631 by quadrature
    m = network_sim_model(NetworkSimConfig(n_agents=2))
    rows = core.draw(m, EMPTY_PARAMS, RandomStream(41), 30000)
    assert set(map(tuple, np.unique(rows, axis=0))) <= {(0.0, 0.0), (1.0, 1.0)}
    p = float(np.mean(rows[:, 0] == 1.0))
    assert p == pytest.approx(0.5436307758279354, abs=0.02)


def test_network_output_sorted_and_bounded():
    m = network_sim_model()
    rows = core.draw(m, EMPTY_PARAMS, RandomStream(42), 200)
    assert np.all(np.diff(rows, axis=1) <= 0)
    assert rows.max() <= 9 and rows.min() >= 0


def test_network_total_links_even():
    m = network_sim_model()
    rows = core.draw(m, EMPTY_PARAMS, RandomStream(43), 500)
    assert np.all(rows.sum(axis=1) % 2 == 0)


def test_network_sigma_free_parameter():
    m = network_sim_model(sigma_free=True)
    assert m.param_shape.labels() == ["sigma"]
    sparse = core.draw(m, Params.scalars(sigma=40.0), RandomStream(44), 200)
    dense = core.draw(m, Params.scalars(sigma=0.05), RandomStream(44), 200)
    assert sparse.mean() < dense.mean()


def test_network_sigma_constraint_is_the_catalog_rule():
    c = network_sim_model(sigma_free=True).constraint
    assert c(Params.scalars(sigma=1.0)) == c(Params.scalars(sigma=1e-9)) == 0.0
    assert c(Params.scalars(sigma=0.0)) == 1e-8
    assert c(Params.scalars(sigma=-1.0)) == 1.0 + 1e-8


def test_network_config_validation():
    with pytest.raises(ModelError, match="network sim needs at least 2 agents"):
        NetworkSimConfig(n_agents=1)
    with pytest.raises(ModelError, match="network sim needs sigma > 0"):
        NetworkSimConfig(sigma=0.0)


@pytest.mark.parametrize("build, cfg, name, bad, message", [
    (network_sim_model, NetworkSimConfig(n_agents=3), "sigma", -1.0, "sigma > 0"),
    (demand_model, DemandConfig(n_agents=5), "price", 0.0, "price > 0"),
    (search_model, SearchConfig(4, 4, 2), "n_pairs", 9, "grid too small"),
], ids=["network", "demand", "search"])
def test_a_config_is_frozen_so_its_model_keeps_the_checked_values(build, cfg, name, bad,
                                                                  message):
    m = build(cfg)
    p = m.param_shape
    want = core.draw(m, p, RandomStream(3), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, bad)
    assert core.draw(m, p, RandomStream(3), 2).tobytes() == want.tobytes()
    with pytest.raises(ModelError, match=message):
        dataclasses.replace(cfg, **{name: bad})


def test_consumption_printed_optimum():
    q1, q2 = consumption(0.5, 5.0, 1.0)
    assert (q1, q2) == (4.0, 1.0)


def test_consumption_affordability_clamp():
    # interior optimum 16 is unaffordable at b=3, p=2
    q1, q2 = consumption(0.5, 3.0, 2.0)
    assert (q1, q2) == (1.5, 0.0)


def test_consumption_never_overspends():
    rng = np.random.default_rng(9)
    alpha = rng.uniform(0.01, 0.99, size=500)
    b = rng.uniform(0.0, 10.0, size=500)
    q1, q2 = consumption(alpha, b, 0.7)
    assert np.all(0.7 * q1 + q2 <= b + 1e-9)
    assert np.all(q1 >= 0) and np.all(q2 >= 0)


def test_demand_draw_shape_and_determinism():
    m = demand_model(DemandConfig(n_agents=50))
    a = core.draw(m, m.param_shape, RandomStream(4), 3)
    b = core.draw(m, m.param_shape, RandomStream(4), 3)
    assert a.shape == (3, 2)
    assert np.array_equal(a, b)


def test_demand_draws_share_random_numbers_across_parameters():
    # the memoized likelihood reseeds at every parameter value; that only
    # gives common random numbers if stream use ignores the parameters
    m = demand_model(DemandConfig(n_agents=200))
    q1, states = [], []
    for mu_alpha in (0.3, 0.5, 0.7):
        stream = RandomStream(4)
        p = Params.scalars(mu_b=3.0, mu_alpha=mu_alpha)
        q1.append(core.draw(m, p, stream, 20)[:, 0])
        states.append(stream.gen.bit_generator.state)
    assert states[0] == states[1] == states[2]
    # at price <= 1 q1 falls as the taste rises, and the taste at a fixed
    # uniform rises with mu_alpha
    assert np.all(np.diff(q1, axis=0) <= 0)


@pytest.mark.parametrize("mu_alpha", [-10.0, -2.0, 0.5, 3.0])
def test_tastes_follow_the_truncated_normal(mu_alpha):
    lo, hi = TASTE_WINDOW
    u = RandomStream(7).uniform(size=5000)
    tastes = taste_from_uniform(mu_alpha, u)
    assert np.all((tastes >= lo) & (tastes <= hi))
    ref = stats.truncnorm(lo - mu_alpha, hi - mu_alpha, loc=mu_alpha)
    assert stats.kstest(tastes, ref.cdf).pvalue > 1e-6
    # inversion is exact up to rounding, also far from the window
    np.testing.assert_allclose(tastes, ref.ppf(u), rtol=1e-10)


@pytest.mark.parametrize("mu_alpha", [1e3, -1e3])
def test_taste_window_without_mass_names_the_model(mu_alpha):
    m = demand_model(DemandConfig(n_agents=5))
    p = Params.scalars(mu_b=3.0, mu_alpha=mu_alpha)
    with pytest.raises(ModelError, match=r"demand_sim: element RNG: .*mu_alpha="):
        core.draw(m, p, RandomStream(1), 2)


def test_search_forced_adjacency():
    m = search_model(SearchConfig(grid_w=2, grid_h=1, n_pairs=1))
    rows = core.draw(m, EMPTY_PARAMS, RandomStream(5), 10)
    assert np.all(rows == 1.0)


def test_search_sparser_grid_pairs_slower():
    crowded = search_model(SearchConfig(grid_w=8, grid_h=8, n_pairs=20))
    sparse = search_model(SearchConfig(grid_w=30, grid_h=30, n_pairs=20))
    means = []
    for m in (crowded, sparse):
        t = core.draw(m, EMPTY_PARAMS, RandomStream(51), 3)
        means.append(t.mean())
    assert means[1] > means[0]


def test_search_times_positive_integers():
    m = search_model(SearchConfig(grid_w=10, grid_h=10, n_pairs=5))
    t = core.draw(m, EMPTY_PARAMS, RandomStream(52), 5)
    assert np.all(t >= 1)
    assert np.all(t == np.round(t))


def test_search_capacity_validation():
    with pytest.raises(ModelError, match="grid too small"):
        SearchConfig(grid_w=2, grid_h=2, n_pairs=3)


def test_fuzz_point_mass_priors():
    side = pmf_model(DataSet(np.array([[8.0]])))
    pairs = pmf_model(DataSet(np.array([[4.0]])))
    cloud = fuzz_weibull_posterior(side, pairs, reps=5, s=RandomStream(6))
    sup = cloud.settings["pmf_support"]
    assert sup.rows.shape == (5, 2)
    assert np.all(sup.rows > 0)
    assert sup.names == ["lambda", "k"]


_MOORE = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _search_run_by_scan(cfg, stream):
    # reference: one search run with an occupied-cell set and a scan over
    # all agents for each neighbour cell
    n_agents = 2 * cfg.n_pairs
    w, h = cfg.grid_w, cfg.grid_h
    cells = stream.gen.choice(w * h, size=n_agents, replace=False)
    pos = np.column_stack([cells % w, cells // w]).astype(int)
    is_a = np.arange(n_agents) < cfg.n_pairs
    alive = np.ones(n_agents, dtype=bool)
    times = np.zeros(n_agents)
    occupied = {(int(x), int(y)) for x, y in pos}
    tick = 0
    while alive.any():
        tick += 1
        claimed = np.zeros(n_agents, dtype=bool)
        for i in range(n_agents):
            if not alive[i] or claimed[i]:
                continue
            best = -1
            for dx, dy in _MOORE:
                xy = (int(pos[i, 0]) + dx, int(pos[i, 1]) + dy)
                for j in range(n_agents):
                    if (alive[j] and not claimed[j] and is_a[j] != is_a[i]
                            and pos[j, 0] == xy[0] and pos[j, 1] == xy[1]):
                        best = j if best < 0 or j < best else best
            if best >= 0:
                claimed[i] = claimed[best] = True
                times[i] = times[best] = tick
        for i in range(n_agents):
            if claimed[i]:
                alive[i] = False
                occupied.discard((int(pos[i, 0]), int(pos[i, 1])))
        for i in range(n_agents):
            if not alive[i]:
                continue
            options = []
            for dx, dy in _MOORE:
                xy = (int(pos[i, 0]) + dx, int(pos[i, 1]) + dy)
                if 0 <= xy[0] < w and 0 <= xy[1] < h and xy not in occupied:
                    options.append(xy)
            if options:
                pick = options[int(stream.integers(len(options)))]
                occupied.discard((int(pos[i, 0]), int(pos[i, 1])))
                pos[i] = pick
                occupied.add(pick)
    return times


@pytest.mark.parametrize("w, h, n_pairs", [
    (4, 4, 8), (1, 6, 3), (6, 1, 3), (2, 2, 2), (20, 20, 10), (30, 30, 4)])
def test_search_grid_matches_scan_reference(w, h, n_pairs):
    cfg = SearchConfig(grid_w=w, grid_h=h, n_pairs=n_pairs)
    m = search_model(cfg)
    for seed in range(3):
        ref_stream = RandomStream(seed)
        ref = np.array([_search_run_by_scan(cfg, ref_stream) for _ in range(3)])
        got = m.rng(EMPTY_PARAMS, RandomStream(seed), 3)
        assert np.array_equal(got, ref)


def test_demand_constraint_is_the_distance_outside_its_box():
    # mu_alpha in [-2, 3], mu_b in [-10, 20]; each bound adds its overshoot
    m = demand_model()
    p = m.param_shape
    assert m.constraint(p) == 0.0
    assert m.constraint(p.with_blocks(mu_alpha=-3.0, mu_b=25.0)) == 6.0
    assert m.constraint(p.with_blocks(mu_alpha=4.5, mu_b=-12.0)) == 3.5


@pytest.mark.parametrize("call, message", [
    (lambda: DemandConfig(price=0.0), "demand sim needs price > 0"),
    (lambda: DemandConfig(n_agents=0), "demand sim needs at least one agent"),
    (lambda: SearchConfig(n_pairs=0), "search sim needs at least one pair"),
], ids=["demand-price", "demand-agents", "search-pairs"])
def test_sim_config_errors_name_their_cause(call, message):
    with pytest.raises(ModelError, match=message):
        call()
