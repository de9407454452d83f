import inspect
import sys
from collections import Counter

import numpy as np
import pytest
from helpers import make_node, make_scenario, surplus_deficit_pair, traces_equal

from coopgrid import dispatch, lp, sim
from coopgrid.dispatch import mean_pairwise_distance
from coopgrid.errors import DispatchError
from coopgrid.game import PRICE_ENERGY_FLOOR
from coopgrid.report import summarize_prices
from coopgrid.scenario import generate_synthetic_scenario, slice_horizon
from coopgrid.sim import SimConfig, SimMode, SystemState, run, settle_step
from coopgrid.formation import Partition


def _grid_only_closed_form(scenario):
    costs = np.zeros(scenario.n_nodes)
    for i, node in enumerate(scenario.nodes):
        net = node.demand - node.generation
        costs[i] = float(np.sum(node.buy_price * np.maximum(net, 0.0)
                                - node.sell_price * np.maximum(-net, 0.0)))
    return costs


def test_grid_only_matches_closed_form():
    scenario = generate_synthetic_scenario(8, n_nodes=4, n_steps=10)
    trace = run(scenario, SimConfig(mode=SimMode.GRID_ONLY))
    expected = _grid_only_closed_form(scenario)
    assert np.allclose(trace.cumulative_costs, expected, atol=1e-9)
    for res in trace.steps:
        assert np.all(res.storage_delta == 0.0)
        assert np.all(res.coal_buy == 0.0)


def test_storage_plan_never_worse_than_no_storage():
    scenario = generate_synthetic_scenario(9, n_nodes=3, n_steps=8)
    no_store = run(scenario, SimConfig(mode=SimMode.GRID_ONLY))
    with_store = run(scenario, SimConfig(mode=SimMode.GRID_STORAGE))
    for res_a, res_b in zip(with_store.steps, no_store.steps):
        for agent in range(3):
            mask = 1 << agent
            # a singleton's value is its market cost: it has no internal market
            assert (res_a.coalition_values[mask]
                    <= res_b.coalition_values[mask] + 1e-8)


def test_single_agent_coalitional_reproduces_grid_storage_bitwise():
    scenario = generate_synthetic_scenario(10, n_nodes=1, n_steps=12)
    storage = run(scenario, SimConfig(mode=SimMode.GRID_STORAGE))
    coalitional = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4))
    assert traces_equal(storage, coalitional)


def test_each_coalition_is_solved_once_per_step(monkeypatch):
    # with reform period 3 the blocks are repriced between sweeps, and this
    # world keeps a singleton block at every step
    scenario = generate_synthetic_scenario(23, n_nodes=4, n_steps=6)
    real_step, real_solve = sim.step, dispatch.solve_lp
    current = {}
    solves = Counter()

    def counting_step(state, *args, **kwargs):
        current["step"] = state.step
        return real_step(state, *args, **kwargs)

    def counting_solve(program):
        # both dispatch solvers pass the program of their horizon slice `slice_`
        members = inspect.currentframe().f_back.f_locals["slice_"].node_ids
        solves[(current["step"], members)] += 1
        return real_solve(program)

    monkeypatch.setattr(sim, "step", counting_step)
    monkeypatch.setattr(dispatch, "solve_lp", counting_solve)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=2e-3,
                                    horizon=3, reform_period=3))
    assert all(any(len(b) == 1 for b in res.partition.blocks) for res in trace.steps)
    repeated = sorted(key for key, count in solves.items() if count > 1)
    assert solves and not repeated


def test_horizon_is_sliced_once_per_step(monkeypatch):
    # reform period 2 mixes re-forming and retained steps; the function is
    # replaced under every name a coopgrid module binds it to
    scenario = generate_synthetic_scenario(23, n_nodes=3, n_steps=5)
    slices = Counter()

    def counting_slice(sc, k, horizon):
        slices[k] += 1
        return slice_horizon(sc, k, horizon)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "coopgrid"
                and getattr(module, "slice_horizon", None) is slice_horizon):
            monkeypatch.setattr(module, "slice_horizon", counting_slice)
    run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4, horizon=3,
                            reform_period=2))
    assert slices == Counter(range(5))


def test_dispatch_failure_names_step_and_coalition():
    # node 1 sells above node 0's buy price at step 1; calling step directly
    # skips the validation that would refuse the world
    nodes = [make_node(0, [1.0, 1.0], [0.0, 0.0], [0.08, 0.08], [0.05, 0.05]),
             make_node(1, [1.0, 1.0], [0.0, 0.0], [0.12, 0.12], [0.05, 0.09])]
    scenario = make_scenario(nodes)
    state = SystemState(step=1, storage=np.zeros(2))
    config = SimConfig(horizon=1, reform_period=2)
    for prev in (None, Partition.from_blocks([(0, 1)])):  # re-forming, then retained
        with pytest.raises(DispatchError,
                           match=r"^step 1, coalition \(0, 1\): dispatch unbounded"):
            sim.step(state, scenario, config, prev)


def test_self_sufficient_agents_stay_single_with_zero_charges():
    nodes = [make_node(i, [1.5] * 4, [1.5] * 4, [0.1] * 4, [0.05] * 4, cap=0.0)
             for i in range(3)]
    scenario = make_scenario(nodes)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4,
                                    horizon=2))
    for res in trace.steps:
        assert res.partition.blocks == ((0,), (1,), (2,))
        assert np.all(res.charges == 0.0)


def test_pair_scenario_forms_and_settles():
    scenario = surplus_deficit_pair(steps=4)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4,
                                    horizon=2))
    for res in trace.steps:
        assert res.partition.blocks == ((0, 1),)
        # settled charges cover exactly the realized one-step block cost
        realized = (0.1 * res.grid_buy.sum() - 0.05 * res.grid_sell.sum()
                    + 1e-4 * 0.5 * np.sum(res.coal_buy ** 2))
        assert res.charges.sum() == pytest.approx(realized, abs=1e-9)
        assert res.coal_buy[1] == pytest.approx(3.0, abs=1e-8)
    # the deficit node pays, the surplus node earns
    assert trace.cumulative_costs[1] > 0
    assert trace.cumulative_costs[0] < 0


@pytest.mark.parametrize("rho, blocks, charges", [
    (0.03, ((0, 1),), (-0.1575, 0.2925)),
    (1 / 30, ((0,), (1,)), (-0.15, 0.30)),  # a tie goes to the smaller coalitions
    (0.04, ((0,), (1,)), (-0.15, 0.30)),
])
def test_pair_forms_exactly_while_its_loss_is_below_its_saving(rho, blocks, charges):
    # v({0}) = -3 * 0.05, v({1}) = 3 * 0.1 and v({0, 1}) = rho * 0.5 * 3 ** 2:
    # the pair saves 0.15 - 4.5 rho, which is positive exactly when rho < 1/30,
    # and each member's charge is its standalone cost minus half the saving
    trace = run(surplus_deficit_pair(steps=1),
                SimConfig(mode=SimMode.COALITIONAL, loss_weight=rho, horizon=1))
    (res,) = trace.steps
    assert res.partition.blocks == blocks
    assert res.coalition_values[0b01] == pytest.approx(-0.15, abs=1e-9)
    assert res.coalition_values[0b10] == pytest.approx(0.30, abs=1e-9)
    assert res.coalition_values[0b11] == pytest.approx(4.5 * rho, abs=1e-9)
    assert res.charges == pytest.approx(charges, abs=1e-9)


def test_settle_step_two_member_closed_form():
    partition = Partition.from_blocks([(0, 1)])
    values = {0b01: 0.3, 0b10: -0.15, 0b11: 0.05}
    charges = settle_step(partition, values)
    assert charges[0] == pytest.approx(0.25, abs=1e-12)
    assert charges[1] == pytest.approx(-0.20, abs=1e-12)
    assert charges.sum() == pytest.approx(values[0b11], abs=1e-12)


def test_reform_period_holds_partition():
    scenario = generate_synthetic_scenario(11, n_nodes=4, n_steps=9)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4,
                                    horizon=3, reform_period=3))
    for res in trace.steps:
        if res.step % 3 == 0:
            assert res.payoffs is not None  # fresh sweep and formation
        else:
            assert res.payoffs is None
            assert res.partition.blocks == trace.steps[res.step - 1].partition.blocks


def test_huge_loss_weight_forces_singletons(ref_scenario):
    scenario = generate_synthetic_scenario(12, n_nodes=4, n_steps=6)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e6,
                                    horizon=3))
    for res in trace.steps:
        assert res.partition.blocks == tuple((i,) for i in range(4))
    # same outcome on one step of the bundled 8-node scenario
    from coopgrid.sim import SystemState, step
    state = SystemState(step=0, storage=np.zeros(8))
    res, _ = step(state, ref_scenario,
                  SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e6))
    assert res.partition.blocks == tuple((i,) for i in range(8))


def test_conservation_and_budget_balance():
    scenario = generate_synthetic_scenario(13, n_nodes=5, n_steps=8)
    rho = 1e-4
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=rho))
    for res in trace.steps:
        grid_money = 0.0
        loss_money = 0.0
        for block in res.partition.blocks:
            idx = list(block)
            pooled = res.coal_sell[idx].sum() - res.coal_buy[idx].sum()
            assert abs(pooled) <= 1e-8
            for agent in idx:
                node = scenario.nodes[agent]
                grid_money += (node.buy_price[res.step] * res.grid_buy[agent]
                               - node.sell_price[res.step] * res.grid_sell[agent])
            r_hat = mean_pairwise_distance(scenario.positions[idx])
            loss_money += rho * r_hat * float(np.sum(res.coal_buy[idx] ** 2))
        assert res.charges.sum() == pytest.approx(grid_money + loss_money, abs=1e-9)


def test_block_charges_match_block_cost():
    scenario = generate_synthetic_scenario(14, n_nodes=4, n_steps=6)
    rho = 5e-4
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=rho))
    for res in trace.steps:
        for block in res.partition.blocks:
            idx = list(block)
            realized = 0.0
            for agent in idx:
                node = scenario.nodes[agent]
                realized += (node.buy_price[res.step] * res.grid_buy[agent]
                             - node.sell_price[res.step] * res.grid_sell[agent])
            r_hat = mean_pairwise_distance(scenario.positions[idx])
            realized += rho * r_hat * float(np.sum(res.coal_buy[idx] ** 2))
            assert res.charges[idx].sum() == pytest.approx(realized, abs=1e-9)


def test_storage_stays_within_bounds():
    scenario = generate_synthetic_scenario(15, n_nodes=3, n_steps=10)
    caps = scenario.storage_capacities
    for mode in (SimMode.GRID_STORAGE, SimMode.COALITIONAL):
        trace = run(scenario, SimConfig(mode=mode, loss_weight=1e-4, horizon=4))
        for res in trace.steps:
            assert np.all(res.storage_after >= 0.0)
            assert np.all(res.storage_after <= caps)


def test_cumulative_is_sum_of_step_charges():
    scenario = generate_synthetic_scenario(16, n_nodes=3, n_steps=7)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4,
                                    horizon=3))
    total = np.zeros(3)
    for res in trace.steps:
        total += res.charges
    assert np.array_equal(total, trace.cumulative_costs)


def test_deterministic_runs_are_bitwise_equal():
    scenario = generate_synthetic_scenario(17, n_nodes=4, n_steps=6)
    cfg = SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4, horizon=4)
    assert traces_equal(run(scenario, cfg), run(scenario, cfg))


def test_replayed_pivot_counts_repeat_from_an_empty_memo():
    scenario = generate_synthetic_scenario(12, n_nodes=4, n_steps=6)
    config = SimConfig(mode=SimMode.COALITIONAL, horizon=3, reform_period=2)
    counts = []
    for _ in range(2):
        lp._MEMO.clear()
        counts.append([(res.phase1_pivots, res.phase1_replayed, res.phase2_pivots,
                        res.phase2_replayed) for res in run(scenario, config).steps])
    assert counts[0] == counts[1]
    assert all(r1 <= p1 and r2 <= p2 for p1, r1, p2, r2 in counts[0])
    # the runs replay pivots of both phases
    assert sum(r1 for _, r1, _, _ in counts[0]) and sum(r2 for _, _, _, r2 in counts[0])


def test_average_prices_reconstruct_charges():
    # per agent, the mean of charge / net energy over its net-buying steps,
    # with the net recomputed from the applied grid and coalition flows
    scenario = generate_synthetic_scenario(18, n_nodes=4, n_steps=6)
    trace = run(scenario, SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4))
    averages = summarize_prices(trace)
    traded = 0
    for agent in range(4):
        ratios = []
        for res in trace.steps:
            bought = res.grid_buy[agent] + res.coal_buy[agent]
            sold = res.grid_sell[agent] + res.coal_sell[agent]
            if bought - sold > PRICE_ENERGY_FLOOR:
                ratios.append(res.charges[agent] / (bought - sold))
                traded += res.coal_buy[agent] + res.coal_sell[agent] > 0.0
        if ratios:
            assert averages[agent] == pytest.approx(np.mean(ratios), rel=1e-9)
        else:
            assert averages[agent] is None
    assert traded  # coalition flows enter some of the averaged steps


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        SimConfig(horizon=0)
    for weight in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SimConfig(loss_weight=weight)
    with pytest.raises(ValueError):
        SimConfig(reform_period=0)
