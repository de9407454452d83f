import numpy as np
import pytest
from helpers import make_node, make_scenario, surplus_deficit_pair

from coopgrid.dispatch import (build_coalition_lp, build_individual_lp, coalition_value,
                               evaluate_loss_cost, mean_pairwise_distance,
                               solve_coalition_dispatch, solve_individual_dispatch)
from coopgrid.errors import DispatchError
from coopgrid.lp import solve_lp
from coopgrid.scenario import generate_synthetic_scenario, slice_horizon

RHO_SET = (0.0, 1e-5, 1e-4, 5e-4, 5e-3)
FLOW_FIELDS = ("storage_delta", "storage_level", "grid_buy", "grid_sell",
               "coal_buy", "coal_sell")


def _single_slice(demand, generation, buy, sell, node_id=0):
    sc = make_scenario([make_node(node_id, demand, generation, buy, sell, cap=10.0)])
    return slice_horizon(sc, 0, len(demand)).select((node_id,))


def test_forced_purchase():
    hs = _single_slice([2.0], [0.0], [0.1], [0.05])
    sol = solve_individual_dispatch(hs, 0.0, 0.0)
    assert sol.grid_buy[0, 0] == pytest.approx(2.0, abs=1e-10)
    assert sol.grid_sell[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert sol.market_cost == pytest.approx(0.2, abs=1e-10)


def test_forced_sale():
    hs = _single_slice([0.0], [3.0], [0.1], [0.05])
    sol = solve_individual_dispatch(hs, 0.0, 0.0)
    assert sol.grid_sell[0, 0] == pytest.approx(3.0, abs=1e-10)
    assert sol.market_cost == pytest.approx(-0.15, abs=1e-10)


def test_storage_serves_later_demand():
    # serving the step-2 demand from the full store beats buying at 0.2
    hs = _single_slice([0.0, 2.0], [0.0, 0.0], [0.1, 0.2], [0.05, 0.05])
    sol = solve_individual_dispatch(hs, 2.0, 2.0)
    assert sol.market_cost == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(sol.storage_delta[0], [0.0, -2.0], atol=1e-9)
    assert np.allclose(sol.grid_buy[0], [0.0, 0.0], atol=1e-9)


def test_singleton_coalition_collapses_to_individual():
    rng = np.random.default_rng(3)
    for seed in range(8):
        sc = generate_synthetic_scenario(seed, n_nodes=1, n_steps=9)
        k = int(rng.integers(0, 9))
        s0 = float(rng.uniform(0, sc.nodes[0].storage_capacity))
        hs = slice_horizon(sc, k, 5).select((0,))
        ind = solve_individual_dispatch(hs, s0, sc.nodes[0].storage_capacity)
        coal = solve_coalition_dispatch(hs, [s0], [sc.nodes[0].storage_capacity])
        assert coal.market_cost == ind.market_cost
        for field in FLOW_FIELDS:
            assert np.array_equal(getattr(coal, field), getattr(ind, field))
        assert not np.any(coal.coal_buy) and not np.any(coal.coal_sell)


def test_pair_routes_surplus_internally():
    sc = surplus_deficit_pair()
    hs = slice_horizon(sc, 0, 1)
    sol = solve_coalition_dispatch(hs, [0.0, 0.0], [0.0, 0.0])
    assert sol.market_cost == pytest.approx(0.0, abs=1e-9)
    assert sol.coal_sell[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert sol.coal_buy[1, 0] == pytest.approx(3.0, abs=1e-9)
    # separately they would pay 0.3 - 0.15 = 0.15
    a = solve_individual_dispatch(hs.select((0,)), 0.0, 0.0)
    b = solve_individual_dispatch(hs.select((1,)), 0.0, 0.0)
    assert a.market_cost + b.market_cost == pytest.approx(0.15, abs=1e-10)


def test_self_sufficient_pair_carries_no_flow():
    nodes = [make_node(i, [2.0, 2.0], [2.0, 2.0], [0.1, 0.1], [0.05, 0.05])
             for i in range(2)]
    hs = slice_horizon(make_scenario(nodes), 0, 2)
    sol = solve_coalition_dispatch(hs, [0.0, 0.0], [0.0, 0.0])
    assert sol.market_cost == 0.0
    # the volume regularizer pins the degenerate circulation at exactly zero
    assert np.all(sol.coal_buy == 0.0)
    assert np.all(sol.coal_sell == 0.0)
    assert np.all(sol.grid_buy == 0.0)


def test_mean_pairwise_distance():
    assert mean_pairwise_distance([(1.0, 2.0)]) == 0.0
    assert mean_pairwise_distance([(0.0, 0.0), (0.5, 0.0)]) == pytest.approx(0.5)
    pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
    assert mean_pairwise_distance(pts) == pytest.approx(2.0 / 3.0)


def test_loss_cost_values():
    sc = surplus_deficit_pair()
    hs = slice_horizon(sc, 0, 1)
    sol = solve_coalition_dispatch(hs, [0.0, 0.0], [0.0, 0.0])
    assert evaluate_loss_cost(sol, 0.5, 0.0) == 0.0
    assert evaluate_loss_cost(sol, 0.5, 1e-4) == pytest.approx(4.5e-4, rel=1e-6)
    zero = solve_individual_dispatch(hs.select((0,)), 0.0, 0.0)
    assert evaluate_loss_cost(zero, 0.5, 1e-4) == 0.0


def test_coalition_value_composition():
    sc = surplus_deficit_pair()
    breakdown, sol = coalition_value((0, 1), np.zeros(2), sc, slice_horizon(sc, 0, 1), 1e-4)
    assert breakdown.mean_distance == pytest.approx(0.5)
    assert breakdown.market_cost == pytest.approx(0.0, abs=1e-9)
    assert breakdown.loss_cost == pytest.approx(4.5e-4, rel=1e-6)
    assert breakdown.total == breakdown.market_cost + breakdown.loss_cost
    assert breakdown.total < 0.15  # joining beats the separate cost


def test_coalition_value_singleton(ref_scenario):
    storage = np.zeros(8)
    window = slice_horizon(ref_scenario, 2, 5)
    for agent in range(4):
        breakdown, _ = coalition_value((agent,), storage, ref_scenario, window, 1e-4)
        hs = window.select((agent,))
        ind = solve_individual_dispatch(hs, 0.0, ref_scenario.nodes[agent].storage_capacity)
        assert breakdown.loss_cost == 0.0
        assert breakdown.mean_distance == 0.0
        assert breakdown.total == pytest.approx(ind.market_cost, abs=1e-8)


def _all_disjoint_pairs(n):
    full = range(1, 1 << n)
    for s in full:
        for t in full:
            if s < t and not s & t:
                yield s, t


def test_superadditive_at_zero_loss():
    for seed in (0, 1, 2):
        sc = generate_synthetic_scenario(seed, n_nodes=4, n_steps=6)
        storage = np.zeros(4)
        window = slice_horizon(sc, 0, 5)
        values = {}
        for mask in range(1, 16):
            members = tuple(i for i in range(4) if mask >> i & 1)
            values[mask], _ = coalition_value(members, storage, sc, window, 0.0)
        for s, t in _all_disjoint_pairs(4):
            assert values[s | t].total <= values[s].total + values[t].total + 1e-8


def test_value_monotone_in_loss_weight():
    sc = generate_synthetic_scenario(4, n_nodes=4, n_steps=6)
    storage = np.zeros(4)
    window = slice_horizon(sc, 1, 5)
    for mask in (0b11, 0b101, 0b1110, 0b1111):
        members = tuple(i for i in range(4) if mask >> i & 1)
        totals = [coalition_value(members, storage, sc, window, rho)[0].total
                  for rho in RHO_SET]
        for lo, hi in zip(totals, totals[1:]):
            assert lo <= hi + 1e-12


def test_storage_relaxes_cost():
    for seed in range(5):
        sc = generate_synthetic_scenario(seed, n_nodes=1, n_steps=10)
        for k in (0, 4, 9):
            hs = slice_horizon(sc, k, 5).select((0,))
            with_store = solve_individual_dispatch(hs, 0.0, sc.nodes[0].storage_capacity)
            without = solve_individual_dispatch(hs, 0.0, 0.0)
            assert with_store.market_cost <= without.market_cost + 1e-8


def test_solution_invariants_on_random_coalitions():
    rng = np.random.default_rng(12)
    sc = generate_synthetic_scenario(6, n_nodes=5, n_steps=8)
    caps = sc.storage_capacities
    for _ in range(10):
        mask = int(rng.integers(1, 32))
        members = tuple(i for i in range(5) if mask >> i & 1)
        k = int(rng.integers(0, 8))
        storage = rng.uniform(0, caps)
        window = slice_horizon(sc, k, 5)
        _, sol = coalition_value(members, storage, sc, window, 1e-4)
        hs = window.select(members)
        for arr in (sol.grid_buy, sol.grid_sell, sol.coal_buy, sol.coal_sell):
            assert np.min(arr) >= -1e-10
        assert np.all(sol.storage_level >= -1e-8)
        assert np.all(sol.storage_level <= caps[list(members)][:, None] + 1e-8)
        balance = (hs.demand + sol.storage_delta + sol.grid_sell + sol.coal_sell
                   - hs.generation - sol.grid_buy - sol.coal_buy)
        assert np.max(np.abs(balance)) <= 1e-8
        pooled = sol.coal_sell.sum(axis=0) - sol.coal_buy.sum(axis=0)
        assert np.max(np.abs(pooled)) <= 1e-8


def test_unbounded_names_tariff_violation():
    # construct the inverted tariff directly; loaders would reject it upstream
    node = make_node(0, [1.0], [0.0], buy=[0.05], sell=[0.08])
    hs = slice_horizon(make_scenario([node]), 0, 1)
    with pytest.raises(DispatchError, match="node 0.*step 0"):
        solve_individual_dispatch(hs, 0.0, 0.0)


def test_unbounded_names_crossed_tariffs_between_nodes():
    # each node keeps buy > sell, but node 1 sells above node 0's buy price at
    # step 1; a direct call skips the validation that would refuse the world
    nodes = [make_node(0, [1.0, 1.0], [0.0, 0.0], [0.08, 0.08], [0.05, 0.05]),
             make_node(1, [1.0, 1.0], [0.0, 0.0], [0.12, 0.12], [0.05, 0.09])]
    sc = make_scenario(nodes)
    with pytest.raises(DispatchError,
                       match=r"node 1 sell_price.* node 0 buy_price.* horizon step 1"):
        coalition_value((0, 1), np.zeros(2), sc, slice_horizon(sc, 0, 2), 1e-5)


def test_individual_lp_shape():
    hs = _single_slice([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.1] * 3, [0.05] * 3)
    prog = build_individual_lp(hs, 0.0, 2.0)
    assert prog.n_vars == 12
    assert prog.eq_matrix.shape == (6, 12)
    sol = solve_lp(prog)
    assert sol.objective_value == pytest.approx(0.3, abs=1e-9)
    # one member has no internal market: no coalition flows, no clearing rows
    joint = build_coalition_lp(hs, [0.0], [2.0])
    assert joint.n_vars == 12
    assert joint.eq_matrix.shape == (6, 12)
    pair = slice_horizon(surplus_deficit_pair(steps=3), 0, 3)
    assert build_coalition_lp(pair, [0.0, 0.0], [0.0, 0.0]).eq_matrix.shape == (15, 36)
