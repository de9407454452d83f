import re

import dispatch_loop_reference
import numpy as np
import pytest
from helpers import (assert_same_solution, make_node, make_scenario, solve_cold,
                     surplus_deficit_pair)

from coopgrid import dispatch, lp
from coopgrid.dispatch import (build_coalition_lp, build_individual_lp, coalition_value,
                               evaluate_loss_cost, mean_pairwise_distance,
                               solve_coalition_dispatch, solve_individual_dispatch)
from coopgrid.errors import DispatchError
from coopgrid.game import coalition_members
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


def test_mean_distance_is_computed_once_per_set(ref_scenario, monkeypatch):
    calls = []
    monkeypatch.setattr(dispatch, "mean_pairwise_distance",
                        lambda positions: calls.append(positions) or mean_pairwise_distance(
                            positions))
    dispatch._mean_distance.cache_clear()
    storage = ref_scenario.storage_init
    for k in (0, 1):
        window = slice_horizon(ref_scenario, k, 5)
        for mask in range(1, 256):
            members = coalition_members(mask)
            breakdown, _ = coalition_value(members, storage, ref_scenario, window, 1e-5)
            positions = [ref_scenario.nodes[i].position for i in members]
            # cached and computed afresh, the same double
            assert (float(breakdown.mean_distance).hex()
                    == float(mean_pairwise_distance(positions)).hex())
    # every set of two or more members, once over both steps
    assert len(calls) == 255 - 8


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


@pytest.mark.parametrize("members", [(0, 0), (2, 1, 2), (1, 0, 1, 1)])
def test_coalition_value_refuses_a_repeated_member(members):
    # a repeated id would price a phantom copy of that node's program
    sc = generate_synthetic_scenario(1, n_nodes=3, n_steps=4)
    repeated = max(set(members), key=members.count)
    with pytest.raises(ValueError, match=f"repeats member {repeated}"):
        coalition_value(members, np.zeros(3), sc, slice_horizon(sc, 0, 3), 1e-5)


def test_pooled_coalition_refuses_a_level_outside_capacity():
    # two or more members are priced without a program, by the same check
    sc = generate_synthetic_scenario(1, n_nodes=3, n_steps=4)
    window = slice_horizon(sc, 0, 3)
    caps = sc.storage_capacities
    for level in (-1e-3, caps[1] + 1e-3):
        storage = np.array([0.0, level, 0.0])
        with pytest.raises(ValueError) as refused:
            build_coalition_lp(window.select((0, 1)), storage[:2], caps[:2])
        assert "node 1: storage_init" in str(refused.value)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            coalition_value((0, 1), storage, sc, window, 1e-5)


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


# --- the vectorized builder against the loop reference --------------------------

PROGRAM_FIELDS = ("objective", "eq_matrix", "eq_rhs", "ub_matrix", "ub_rhs", "lower", "upper")


def _builder_cases(ref_scenario):
    """Every coalition of the reference day at steps 0/8/16 and of a generated
    5-node world at each of its 8 steps, at horizons 1/3/5, with storage
    inside real capacities and with zero capacities."""
    world = generate_synthetic_scenario(17, n_nodes=5, n_steps=8)
    for scenario, steps in ((ref_scenario, (0, 8, 16)), (world, range(8))):
        caps = scenario.storage_capacities
        levels = caps * np.linspace(0.1, 0.9, scenario.n_nodes)
        zero = np.zeros(scenario.n_nodes)
        for k in steps:
            for h in (1, 3, 5):
                hs = slice_horizon(scenario, k, h)
                for storage, cap in ((levels, caps), (zero, zero)):
                    for mask in range(1, 1 << scenario.n_nodes):
                        members = list(coalition_members(mask))
                        yield hs.select(members), storage[members], cap[members]


def test_builder_matches_loop_reference_bytes(ref_scenario):
    programs = negative_zero_bounds = 0
    for hs, storage, cap in _builder_cases(ref_scenario):
        got = build_coalition_lp(hs, storage, cap)
        want = dispatch_loop_reference.build_coalition_lp(hs, storage, cap)
        for field in PROGRAM_FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), field
            assert a.tobytes() == b.tobytes(), field
        negative_zero_bounds += int(np.signbit(got.lower).sum())
        programs += 1
    assert programs == 6078
    # zero-capacity members have the storage-delta lower bound -0.0
    assert negative_zero_bounds > 0


def test_equality_matrix_is_shared_and_read_only(ref_scenario):
    a = build_coalition_lp(slice_horizon(ref_scenario, 0, 5).select((0, 3)),
                           [0.0, 0.0], [1.0, 1.0])
    b = build_coalition_lp(slice_horizon(ref_scenario, 9, 5).select((2, 7)),
                           [0.5, 0.0], [2.0, 3.0])
    assert a.eq_matrix is b.eq_matrix
    with pytest.raises(ValueError, match="read-only"):
        a.eq_matrix[0, 0] = 2.0
    single = build_coalition_lp(slice_horizon(ref_scenario, 0, 5).select((1,)), [0.0], [1.0])
    assert single.eq_matrix is not a.eq_matrix
    with pytest.raises(ValueError, match="read-only"):
        single.eq_matrix[0, 0] = 2.0
    # a one-member plan's internal market is one shared read-only zero array
    sol = solve_individual_dispatch(slice_horizon(ref_scenario, 0, 5).select((1,)), 0.0, 1.0)
    assert sol.coal_buy is sol.coal_sell and not sol.coal_buy.any()
    with pytest.raises(ValueError, match="read-only"):
        sol.coal_buy[0, 0] = 1.0


# --- replayed phase 1 against a full solve -------------------------------------------

def _day_and_world_programs(ref_scenario):
    """Every coalition's program at reference steps 0/8/16 and at each step of
    a generated 5-node world, horizon 5, storage inside the capacities."""
    world = generate_synthetic_scenario(17, n_nodes=5, n_steps=8)
    for scenario, steps in ((ref_scenario, (0, 8, 16)), (world, range(8))):
        caps = scenario.storage_capacities
        levels = caps * np.linspace(0.1, 0.9, scenario.n_nodes)
        for k in steps:
            hs = slice_horizon(scenario, k, 5)
            for mask in range(1, 1 << scenario.n_nodes):
                members = list(coalition_members(mask))
                yield build_coalition_lp(hs.select(members), levels[members], caps[members])


def test_replayed_phase1_matches_cold_solve(ref_scenario, replays):
    programs = list(_day_and_world_programs(ref_scenario))
    cold = [solve_cold(prog) for prog in programs]
    lp._MEMO.clear()
    replays.clear()
    for prog, want in zip(programs, cold):
        assert_same_solution(solve_lp(prog), want)  # after every program before it
        attempts = len(replays)
        assert_same_solution(solve_lp(prog), want)  # solved again
        assert replays[attempts:] in ([], [True])
    assert len(programs) == 3 * 255 + 8 * 31
    # most programs replay a path recorded by another one, and some fall back
    assert replays.count(True) > 1.5 * len(programs)
    assert False in replays


# --- the dispatch programs as networks --------------------------------------------

def test_equality_matrix_is_a_network_matrix():
    # with its clearing rows negated, every column of every shape the
    # reference day uses holds at most one +1 and one -1: a node-arc
    # incidence matrix, so every basis inverse holds only 0 and ±1
    for n_members in range(1, 9):
        for horizon in range(1, 6):
            aeq = dispatch._equality_matrix(n_members, horizon).copy()
            if n_members > 1:
                aeq[2 * n_members * horizon:] *= -1.0
            assert set(np.unique(aeq)) <= {-1.0, 0.0, 1.0}
            assert (aeq == 1.0).sum(axis=0).max() <= 1
            assert (aeq == -1.0).sum(axis=0).max() <= 1


def test_every_pivot_of_a_reference_step_is_one_or_minus_one(ref_scenario, monkeypatch):
    pivots = []
    eliminate, replayed_pivot = lp._eliminate, lp._replayed_pivot

    def watched_eliminate(t, basis, row, col, rows, entries):
        pivots.append(float(t[row, col]))
        eliminate(t, basis, row, col, rows, entries)

    def watched_replayed_pivot(column, rhs, basis):
        leave = replayed_pivot(column, rhs, basis)
        pivots.append(column.entries[column.rows.index(leave)])
        return leave

    monkeypatch.setattr(lp, "_eliminate", watched_eliminate)
    monkeypatch.setattr(lp, "_replayed_pivot", watched_replayed_pivot)
    lp._MEMO.clear()
    hs = slice_horizon(ref_scenario, 0, 5)
    storage, caps = ref_scenario.storage_init, ref_scenario.storage_capacities
    for mask in range(1, 256):
        members = list(coalition_members(mask))
        solve_lp(build_coalition_lp(hs.select(members), storage[members], caps[members]))
    # taken on the tableau and replayed from the memo alike; the ratio test
    # takes positive pivots only, and a pivot that drives an artificial out
    # may be negative
    assert len(pivots) > 10_000
    assert set(pivots) <= {-1.0, 1.0}


def test_no_program_of_a_reference_step_falls_outside_the_replay_rule(ref_scenario,
                                                                      monkeypatch):
    # a replay neither scales a seed row nor drives an artificial out, so a
    # program that did either would never be recorded
    phase1_scaled, drive_outs, pivoting = [], [], []
    pivot_until_optimal, eliminate = lp._pivot_until_optimal, lp._eliminate

    def watched_pivot_until_optimal(t, basis, limit, *args):
        if limit > ncols:  # phase 1, whose rows are the program's up to sign unless scaled
            phase1_scaled.append(not np.array_equal(np.abs(t[:rows.shape[0], :rows.shape[1]]),
                                                    np.abs(rows)))
        pivoting.append(True)
        try:
            return pivot_until_optimal(t, basis, limit, *args)
        finally:
            pivoting.pop()

    def watched_eliminate(*args):
        drive_outs.append(not pivoting)
        eliminate(*args)

    monkeypatch.setattr(lp, "_pivot_until_optimal", watched_pivot_until_optimal)
    monkeypatch.setattr(lp, "_eliminate", watched_eliminate)
    monkeypatch.setattr(lp, "_replay", lambda *args: None)  # every pivot on the tableau
    hs = slice_horizon(ref_scenario, 0, 5)
    storage, caps = ref_scenario.storage_init, ref_scenario.storage_capacities
    for mask in range(1, 256):
        members = list(coalition_members(mask))
        prog = build_coalition_lp(hs.select(members), storage[members], caps[members])
        rows = np.vstack([prog.eq_matrix, prog.ub_matrix])
        ncols = prog.n_vars + prog.ub_matrix.shape[0] + int(np.isfinite(prog.upper).sum())
        solve_lp(prog)
    assert len(phase1_scaled) == 255 and len(drive_outs) > 10_000
    assert not any(phase1_scaled)
    assert not any(drive_outs)
