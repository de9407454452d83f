"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight fixtures (full coalitional runs on the bundled 8-node
scenario at the four loss weights) are shared module-wide, also by the
pooled-program certificate that follows the criteria.  Regression
baselines live in tests/data/baseline_reference.json; they were recorded
from the bundled scenario and any behavioral drift fails criterion 7.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import split_pooled_plan, traces_equal

from coopgrid.dispatch import (coalition_value, mean_pairwise_distance,
                               solve_coalition_dispatch, solve_individual_dispatch)
from coopgrid.formation import enumerate_partitions, optimal_structure, structure_value
from coopgrid.game import coalition_members, shapley_value
from coopgrid.lp import LpStatus, solve_lp
from coopgrid.oracles import (best_partition_by_enumeration, brute_force_lp,
                              lexicographic_pooled_levels, permutation_shapley,
                              pooled_market_cost, random_box_lp, random_cost_game)
from coopgrid.report import summarize_prices, trace_label
from coopgrid.scenario import generate_synthetic_scenario, slice_horizon
from coopgrid.sim import SimConfig, SimMode, run

RHO_SET = (5e-3, 5e-4, 1e-4, 1e-5)
BASELINE_PATH = Path(__file__).parent / "data" / "baseline_reference.json"


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def coalition_traces(ref_scenario):
    return {rho: run(ref_scenario, SimConfig(mode=SimMode.COALITIONAL,
                                             loss_weight=rho))
            for rho in RHO_SET}


@pytest.fixture(scope="module")
def grid_traces(ref_scenario):
    return {
        "grid-only": run(ref_scenario, SimConfig(mode=SimMode.GRID_ONLY)),
        "grid-storage": run(ref_scenario, SimConfig(mode=SimMode.GRID_STORAGE)),
    }


def test_c01_shapley_oracle_and_axioms():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    games = 0
    while games < 200:
        n = int(rng.integers(2, 7))
        game = random_cost_game(rng, n)
        members = tuple(range(n))
        got = shapley_value(game, members)
        want = permutation_shapley(game, members)
        assert np.max(np.abs(got - want)) <= 1e-9
        # efficiency
        assert abs(got.sum() - game[(1 << n) - 1]) <= 1e-9
        # additivity against a second random game
        other = random_cost_game(rng, n)
        combined = {mask: game[mask] + other[mask] for mask in game}
        assert np.max(np.abs(shapley_value(combined, members)
                             - got - shapley_value(other, members))) <= 1e-9
        # dummy: append an agent with constant marginal cost
        solo = float(rng.uniform(-2, 2))
        extended = dict(game)
        extended[1 << n] = solo
        for mask, value in game.items():
            extended[mask | 1 << n] = value + solo
        assert abs(shapley_value(extended, tuple(range(n + 1)))[n] - solo) <= 1e-9
        # symmetry: agents 0/1 interchangeable by construction
        pooled = {}
        sym = {}
        for mask in range(1, 1 << n):
            key = ((mask & 1) + (mask >> 1 & 1), mask & ~0b11)
            pooled.setdefault(key, float(rng.uniform(-5, 5)))
            sym[mask] = pooled[key]
        shares = shapley_value(sym, members)
        assert abs(shares[0] - shares[1]) <= 1e-9
        games += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("criterion 1 (shapley oracle + axioms)",
            f"200 games vs permutation average, {elapsed:.1f}s")


def test_c02_lp_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(102)
    n_optimal = 0
    for _ in range(500):
        prog = random_box_lp(rng)
        got = solve_lp(prog)
        want = brute_force_lp(prog)
        assert got.status is want.status
        if got.status is LpStatus.OPTIMAL:
            n_optimal += 1
            tol = 1e-8 * max(1.0, abs(want.objective_value))
            assert abs(got.objective_value - want.objective_value) <= tol
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("criterion 2 (lp oracle)",
            f"500 programs, {n_optimal} optimal, {elapsed:.1f}s")


def test_c03_dispatch_collapse():
    rng = np.random.default_rng(103)
    checked = 0
    for trial in range(50):
        scenario = generate_synthetic_scenario(200 + trial, n_nodes=1, n_steps=8)
        cap = scenario.nodes[0].storage_capacity
        s0 = float(rng.uniform(0.0, cap))
        k = int(rng.integers(0, 8))
        window = slice_horizon(scenario, k, 5)
        # the joint program on a one-node slice has no internal market, so it
        # is the individual program, and coalition_value prices a singleton
        # with it at no loss cost
        individual = solve_individual_dispatch(window.select((0,)), s0, cap)
        joint = solve_coalition_dispatch(window.select((0,)), [s0], [cap])
        breakdown, priced = coalition_value((0,), np.array([s0]), scenario, window, 1e-4)
        for sol in (joint, priced):
            assert sol.market_cost == individual.market_cost
            for field in ("storage_delta", "storage_level", "grid_buy", "grid_sell",
                          "coal_buy", "coal_sell"):
                assert np.array_equal(getattr(sol, field), getattr(individual, field))
        assert breakdown.loss_cost == 0.0
        assert breakdown.total == individual.market_cost
        checked += 1
    _report("criterion 3 (dispatch collapse)", f"{checked} single-node instances")


def test_c04_superadditivity_and_rho_monotonicity():
    rho_grid = (0.0, 1e-5, 1e-4, 5e-4, 5e-3)
    pairs_checked = 0
    for seed in (301, 302, 303):
        scenario = generate_synthetic_scenario(seed, n_nodes=4, n_steps=6)
        storage = np.zeros(4)
        window = slice_horizon(scenario, 0, 5)
        values = {}
        for mask in range(1, 16):
            members = coalition_members(mask)
            values[mask] = coalition_value(members, storage, scenario, window, 0.0)[0].total
        for s in range(1, 16):
            for t in range(s + 1, 16):
                if s & t:
                    continue
                assert values[s | t] <= values[s] + values[t] + 1e-8
                pairs_checked += 1
        window = slice_horizon(scenario, 1, 5)
        for mask in (0b0011, 0b0110, 0b1101, 0b1111):
            members = coalition_members(mask)
            totals = [coalition_value(members, storage, scenario, window, rho)[0].total
                      for rho in rho_grid]
            for lo, hi in zip(totals, totals[1:]):
                assert lo <= hi + 1e-12
    _report("criterion 4 (superadditivity at rho=0 + rho-monotonicity)",
            f"{pairs_checked} disjoint pairs, rho grid {rho_grid}")


def test_c05_formation_soundness(coalition_traces):
    for rho, trace in coalition_traces.items():
        for res in trace.steps:
            partition = res.partition
            assert partition.covers(trace.n_agents)
            assert sum(len(b) for b in partition.blocks) == trace.n_agents
            pm = res.payoffs
            assert pm is not None
            for agent in range(trace.n_agents):
                block = partition.block_of(agent)
                assert pm.share(agent, block) <= pm.standalone(agent) + 1e-12
            formed = sum(res.coalition_values[sum(1 << a for a in b)]
                         for b in partition.blocks)
            singles = sum(res.coalition_values[1 << i]
                          for i in range(trace.n_agents))
            assert formed <= singles + 1e-9
    _report("criterion 5 (formation soundness)",
            f"{len(RHO_SET)} loss weights x 17 steps: valid cover, IR, "
            f"formed <= all-singletons")


def test_c06_structure_search_benchmark(coalition_traces):
    rng = np.random.default_rng(106)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        game = random_cost_game(rng, n)
        got = optimal_structure(game)
        blocks, value = best_partition_by_enumeration(game, n)
        assert got.partition.blocks == blocks
        assert got.value == pytest.approx(value, abs=1e-12)

    trace = coalition_traces[1e-4]
    gaps = []
    for res in trace.steps:
        values = res.coalition_values
        best = None
        count = 0
        for partition in enumerate_partitions(trace.n_agents):
            candidate = structure_value(partition, values).value
            count += 1
            if best is None or candidate < best:
                best = candidate
        assert count == 4140
        formed = sum(values[sum(1 << a for a in b)] for b in res.partition.blocks)
        gap = formed - best
        assert gap >= -1e-9
        gaps.append(gap)
    _report("criterion 6 (structure search benchmark)",
            f"greedy-vs-optimal gap over 17 steps at rho=1e-4: "
            f"mean {np.mean(gaps):.3e} CU, max {np.max(gaps):.3e} CU "
            f"(no threshold asserted)")


def test_c07_directional_prices_and_regression(grid_traces, coalition_traces):
    p_none = summarize_prices(grid_traces["grid-only"])
    p_store = summarize_prices(grid_traces["grid-storage"])
    p_coal = summarize_prices(coalition_traces[1e-5])
    n = grid_traces["grid-only"].n_agents

    for agent in range(n):
        assert p_none[agent] is not None and p_store[agent] is not None
        assert p_store[agent] <= p_none[agent] + 1e-12
    improved = sum(1 for agent in range(n)
                   if p_coal[agent] is not None and p_coal[agent] <= p_store[agent])
    assert improved >= 6

    baseline = json.loads(BASELINE_PATH.read_text())
    traces = {trace_label(t): t for t in
              list(grid_traces.values()) + [coalition_traces[1e-5]]}
    for label, recorded in baseline.items():
        trace = traces[label]
        prices = summarize_prices(trace)
        for agent_key, value in recorded["avg_buy_price"].items():
            current = prices[int(agent_key)]
            if value is None:
                assert current is None
            else:
                assert current == pytest.approx(value, rel=1e-9, abs=1e-12)
        for agent_key, value in recorded["cumulative_cost"].items():
            assert trace.cumulative_costs[int(agent_key)] == pytest.approx(
                value, rel=1e-9, abs=1e-12)
    _report("criterion 7 (directional prices + recorded baseline)",
            f"storage<=no-storage 8/8, coalition<=storage {improved}/8, "
            f"baseline matched for {len(baseline)} modes")


def test_c08_coalition_size_trend(coalition_traces):
    def mean_size(trace):
        return float(np.mean([np.mean([len(b) for b in res.partition.blocks])
                              for res in trace.steps]))
    low_rho = mean_size(coalition_traces[1e-5])
    high_rho = mean_size(coalition_traces[5e-3])
    assert low_rho > high_rho
    _report("criterion 8 (coalition size trend)",
            f"mean block size {low_rho:.2f} at rho=1e-5 > {high_rho:.2f} at rho=5e-3")


def test_c09_conservation_and_budget(ref_scenario, coalition_traces):
    steps_checked = 0
    for rho, trace in coalition_traces.items():
        for res in trace.steps:
            grid_money = 0.0
            loss_money = 0.0
            for block in res.partition.blocks:
                idx = list(block)
                pooled = res.coal_sell[idx].sum() - res.coal_buy[idx].sum()
                assert abs(pooled) <= 1e-8
                realized = 0.0
                for agent in idx:
                    node = ref_scenario.nodes[agent]
                    realized += (node.buy_price[res.step] * res.grid_buy[agent]
                                 - node.sell_price[res.step] * res.grid_sell[agent])
                grid_money += realized
                r_hat = mean_pairwise_distance(ref_scenario.positions[idx])
                block_loss = rho * r_hat * float(np.sum(res.coal_buy[idx] ** 2))
                loss_money += block_loss
                assert res.charges[idx].sum() == pytest.approx(
                    realized + block_loss, abs=1e-9)
            assert res.charges.sum() == pytest.approx(grid_money + loss_money,
                                                      abs=1e-9)
            steps_checked += 1
    _report("criterion 9 (conservation + budget balance)",
            f"{steps_checked} steps across {len(RHO_SET)} loss weights")


def test_c10_performance_and_determinism(ref_scenario, coalition_traces):
    started = time.monotonic()
    fresh = run(ref_scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-5))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert traces_equal(fresh, coalition_traces[1e-5])
    _report("criterion 10 (performance + determinism)",
            f"full 17-step 8-node run with 255-coalition sweeps in {elapsed:.1f}s; "
            f"repeat run identical")


@pytest.mark.parametrize("k", [0, 8, 16])
def test_pooled_program_certifies_market_cost(ref_scenario, coalition_traces, k):
    # every coalition's market cost at the storage state the run reached
    trace = coalition_traces[1e-5]
    storage = ref_scenario.storage_init if k == 0 else trace.steps[k - 1].storage_after
    window = slice_horizon(ref_scenario, k, trace.config.horizon)
    worst = 0.0
    for mask in range(1, 1 << ref_scenario.n_nodes):
        members = coalition_members(mask)
        want = coalition_value(members, storage, ref_scenario, window, 1e-5)[0].market_cost
        got = pooled_market_cost(members, storage, ref_scenario, window)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), members
        worst = max(worst, abs(got - want))
    _report(f"pooled-program certificate (step {k})",
            f"255 coalitions, worst market-cost gap {worst:.1e}")


@pytest.mark.parametrize("k", [0, 8, 16])
def test_pooled_plan_is_the_lexicographic_least_cost_plan(ref_scenario, coalition_traces, k):
    # every coalition of two or more members, at the storage state the run
    # reached, against the per-member program made lexicographic
    trace = coalition_traces[1e-5]
    storage = ref_scenario.storage_init if k == 0 else trace.steps[k - 1].storage_after
    window = slice_horizon(ref_scenario, k, trace.config.horizon)
    worst_level = worst_value = 0.0
    for mask in range(1, 1 << ref_scenario.n_nodes):
        members = coalition_members(mask)
        if len(members) < 2:
            continue
        hs, levels = window.select(members), storage[list(members)]
        caps = [ref_scenario.nodes[i].storage_capacity for i in members]
        _, least = lexicographic_pooled_levels(hs, levels, caps)
        for rho in (1e-5, 5e-3):
            breakdown, plan = coalition_value(members, storage, ref_scenario, window, rho)
            gap = float(np.max(np.abs(plan.storage_level.sum(axis=0) - least)))
            assert gap <= 1e-9 * sum(caps), (members, rho)
            want = split_pooled_plan(hs, levels, caps, least, rho, breakdown.mean_distance)
            assert abs(breakdown.total - want) <= 1e-9 * abs(want), (members, rho)
            worst_level = max(worst_level, gap / sum(caps))
            worst_value = max(worst_value, abs(breakdown.total - want) / abs(want))
    _report(f"lexicographic pooled plan (step {k})",
            f"247 coalitions, worst level gap {worst_level:.1e} of capacity, "
            f"worst v(S) gap {worst_value:.1e} relative")


def test_reference_run_ends_the_day_with_empty_storage(coalition_traces):
    # past the end of the day the horizon repeats the last step, so buying
    # at step 16 or later ties; the smallest least-cost level path buys
    # nothing it does not use
    assert np.all(coalition_traces[1e-5].final_storage == 0.0)


def test_reference_run_lp_counts(coalition_traces):
    # the coalitions priced, programs solved and per-phase pivots of the
    # reference run at rho = 1e-5: every coalition is priced at every step,
    # and only the eight one-member ones are linear programs; a change that
    # claims the same pivot path must keep these counts
    steps = coalition_traces[1e-5].steps
    assert all((len(res.coalition_values), res.lp_programs) == (255, 8) for res in steps)
    programs = sum(res.lp_programs for res in steps)
    phase1 = sum(res.phase1_pivots for res in steps)
    phase2 = sum(res.phase2_pivots for res in steps)
    assert (programs, phase1, phase2) == (136, 1634, 673)
    _report("reference-run LP counts",
            f"{programs} programs, {phase1} phase-1 and {phase2} phase-2 pivots")
