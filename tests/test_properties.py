"""Property tests over generated worlds and fuzzed scenario documents.

Worlds come from ``generate_synthetic_scenario`` with 1-4 nodes and 1-4
steps (2-5 nodes and 1-6 steps for the pooled-program certificate and the
lexicographic plan, 2-6 nodes and horizons 1-6 for the batched recursion
against its loop reference, 2-7 nodes for the batch over a drawn
partition's blocks, 1-4 nodes, 1-5 steps and horizons 2-6 for the
one-member programs solved three ways); the
horizon, the re-formation period and the loss weight are drawn too.
Examples are derandomized, so every run checks the same cases.
"""

import json
from dataclasses import replace
from unittest import mock

import numpy as np
from helpers import solve_cold, split_pooled_plan, traces_equal
from hypothesis import given, settings
from hypothesis import strategies as st
from one_step_cost_reference import assert_same_first_steps
from pooled_loop_reference import assert_same_pricing, pooled_value

from coopgrid import lp
from coopgrid.dispatch import build_coalition_lp, coalition_value, mean_pairwise_distance
from coopgrid.errors import ScenarioError
from coopgrid.formation import Partition
from coopgrid.game import _price_subsets, characteristic_function, coalition_members
from coopgrid.oracles import lexicographic_pooled_levels, pooled_market_cost
from coopgrid.scenario import (generate_synthetic_scenario, load_scenario, serialize_scenario,
                               slice_horizon, validate_scenario)
from coopgrid.sim import SimConfig, SimMode, run

seeds = st.integers(0, 10_000)
horizons = st.integers(1, 3)
periods = st.integers(1, 3)
rhos = st.sampled_from([0.0, 1e-5, 1e-4, 5e-3])


def _settings(max_examples: int):
    return settings(derandomize=True, deadline=None, max_examples=max_examples)


def _coalitional(horizon, period, rho) -> SimConfig:
    return SimConfig(mode=SimMode.COALITIONAL, horizon=horizon, loss_weight=rho,
                     reform_period=period)


@_settings(150)
@given(seed=seeds, n_nodes=st.integers(1, 4), n_steps=st.integers(1, 4),
       horizon=horizons, period=periods, rho=rhos)
def test_budget_balance_rationality_and_storage_bounds(seed, n_nodes, n_steps, horizon,
                                                       period, rho):
    world = generate_synthetic_scenario(seed, n_nodes=n_nodes, n_steps=n_steps)
    trace = run(world, _coalitional(horizon, period, rho))
    caps = world.storage_capacities
    for res in trace.steps:
        k = res.step
        assert (res.payoffs is not None) == (k % period == 0)
        for block in res.partition.blocks:
            idx = list(block)
            # each block settles exactly what its applied flows cost at this step
            nodes = [world.nodes[i] for i in block]
            grid = sum(nd.buy_price[k] * res.grid_buy[i] - nd.sell_price[k] * res.grid_sell[i]
                       for i, nd in zip(block, nodes))
            loss = (rho * mean_pairwise_distance([nd.position for nd in nodes])
                    * float(np.sum(res.coal_buy[idx] ** 2)))
            assert abs(float(np.sum(res.charges[idx])) - (grid + loss)) <= 1e-9 * max(
                1.0, abs(grid + loss))
            # the internal market clears inside each block
            assert abs(float(np.sum(res.coal_buy[idx] - res.coal_sell[idx]))) <= 1e-9
            if res.payoffs is not None:  # individually rational when formed
                for agent in block:
                    assert res.payoffs.share(agent, block) <= res.payoffs.standalone(agent)
        assert np.all(res.storage_after >= 0.0) and np.all(res.storage_after <= caps)


@_settings(40)
@given(seed=seeds, n_nodes=st.integers(1, 4), n_steps=st.integers(1, 4),
       horizon=horizons, period=periods, rho=rhos)
def test_two_runs_are_bitwise_equal(seed, n_nodes, n_steps, horizon, period, rho):
    world = generate_synthetic_scenario(seed, n_nodes=n_nodes, n_steps=n_steps)
    config = _coalitional(horizon, period, rho)
    assert traces_equal(run(world, config), run(world, config))


@_settings(60)
@given(seed=seeds, n_steps=st.integers(1, 4), horizon=horizons, period=periods, rho=rhos)
def test_one_node_coalitional_run_is_grid_storage(seed, n_steps, horizon, period, rho):
    world = generate_synthetic_scenario(seed, n_nodes=1, n_steps=n_steps)
    config = _coalitional(horizon, period, rho)
    storage = SimConfig(mode=SimMode.GRID_STORAGE, horizon=horizon)
    assert traces_equal(run(world, config), run(world, storage))


@_settings(40)
@given(seed=seeds, n_nodes=st.integers(2, 5), n_steps=st.integers(1, 6),
       horizon=st.integers(1, 8), data=st.data())
def test_pooled_program_certifies_every_market_cost(seed, n_nodes, n_steps, horizon, data):
    # at every step, from drawn storage levels, each coalition's dispatch
    # market cost is that of the members pooled into one node
    world = generate_synthetic_scenario(seed, n_nodes=n_nodes, n_steps=n_steps)
    fill = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes))
    storage = np.array(fill) * world.storage_capacities
    for k in range(n_steps):
        window = slice_horizon(world, k, horizon)
        for mask in range(1, 1 << n_nodes):
            members = coalition_members(mask)
            want = coalition_value(members, storage, world, window, 0.0)[0].market_cost
            got = pooled_market_cost(members, storage, world, window)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (k, members)


@_settings(25)
@given(seed=seeds, n_nodes=st.integers(2, 5), n_steps=st.integers(1, 6),
       horizon=st.integers(1, 8), rho=rhos, data=st.data())
def test_pooled_plan_is_the_lexicographic_least_cost_plan(seed, n_nodes, n_steps, horizon,
                                                          rho, data):
    # at a drawn step, from drawn storage levels, each coalition of two or
    # more members follows the per-member program made lexicographic
    world = generate_synthetic_scenario(seed, n_nodes=n_nodes, n_steps=n_steps)
    fill = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes))
    storage = np.array(fill) * world.storage_capacities
    window = slice_horizon(world, data.draw(st.integers(0, n_steps - 1)), horizon)
    for mask in range(1, 1 << n_nodes):
        members = coalition_members(mask)
        if len(members) < 2:
            continue
        hs, levels = window.select(members), storage[list(members)]
        caps = [world.nodes[i].storage_capacity for i in members]
        _, least = lexicographic_pooled_levels(hs, levels, caps)
        breakdown, plan = coalition_value(members, storage, world, window, rho)
        gap = np.max(np.abs(plan.storage_level.sum(axis=0) - least))
        assert gap <= 1e-9 * sum(caps), members
        want = split_pooled_plan(hs, levels, caps, least, rho, breakdown.mean_distance)
        assert abs(breakdown.total - want) <= 1e-9 * abs(want), members


def _tied_world(data, seed, n_nodes, n_steps):
    """A generated world with drawn zero-capacity members whose nodes take
    a lower node's buy or sell prices, so that prices tie across members."""
    world = generate_synthetic_scenario(seed, n_nodes=n_nodes, n_steps=n_steps)
    empty = data.draw(st.sets(st.integers(0, n_nodes - 1)))
    nodes = []
    for i, nd in enumerate(world.nodes):
        buy, sell = data.draw(st.integers(0, i)), data.draw(st.integers(0, i))
        cap = 0.0 if i in empty else nd.storage_capacity
        nodes.append(replace(nd, storage_capacity=cap, storage_init=min(nd.storage_init, cap),
                             buy_price=world.nodes[buy].buy_price,
                             sell_price=world.nodes[sell].sell_price))
    world = replace(world, nodes=nodes)
    assert not validate_scenario(world)
    return world


def _assert_rows_are_the_loop(table, storage, world, window, rho) -> None:
    """Every coalition of two or more members in ``table`` against the loop
    and against a direct call, and every first-step cost against the loop
    settlement used."""
    for mask in table:
        members = coalition_members(mask)
        if len(members) > 1:
            priced = table.pricing(mask)
            assert_same_pricing(priced, pooled_value(members, storage, world, window, rho))
            assert_same_pricing(coalition_value(members, storage, world, window, rho), priced)
    # and every first-step cost, the members alone too
    assert_same_first_steps(table, window, rho)


@_settings(40)
@given(seed=seeds, n_nodes=st.integers(2, 6), n_steps=st.integers(1, 4),
       horizon=st.integers(1, 6), rho=rhos, data=st.data())
def test_batched_recursion_is_the_loop_bit_for_bit(seed, n_nodes, n_steps, horizon, rho,
                                                  data):
    # every coalition of two or more members at every step, from drawn
    # levels, in a world whose prices tie across members
    world = _tied_world(data, seed, n_nodes, n_steps)
    fill = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes))
    storage = np.array(fill) * world.storage_capacities
    for k in range(n_steps):
        window = slice_horizon(world, k, horizon)
        _assert_rows_are_the_loop(characteristic_function(storage, world, window, rho),
                                  storage, world, window, rho)


@_settings(40)
@given(seed=seeds, n_nodes=st.integers(2, 7), n_steps=st.integers(1, 3),
       horizon=st.integers(1, 6), rho=rhos, data=st.data())
def test_batch_over_the_blocks_of_a_partition_is_the_loop(seed, n_nodes, n_steps, horizon,
                                                          rho, data):
    # a retained partition of several blocks is priced by one batch per
    # step; each block's rows are those of the loop, as if priced alone
    world = _tied_world(data, seed, n_nodes, n_steps)
    labels = data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=n_nodes,
                                max_size=n_nodes))
    partition = Partition.from_blocks(
        [[i for i in range(n_nodes) if labels[i] == label] for label in set(labels)])
    fill = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes))
    storage = np.array(fill) * world.storage_capacities
    for k in range(n_steps):
        window = slice_horizon(world, k, horizon)
        table = _price_subsets(partition.blocks, storage, world, window, rho)
        assert len(table) == sum(2 ** len(block) - 1 for block in partition.blocks)
        _assert_rows_are_the_loop(table, storage, world, window, rho)


def test_rows_of_eight_or_more_members_are_the_loop():
    # a block of nine at horizon 5: numpy sums eight or more terms pairwise,
    # so rows of eight or more members sum in another order than fewer
    world = generate_synthetic_scenario(5, n_nodes=9, n_steps=2)
    storage = 0.4 * world.storage_capacities
    window = slice_horizon(world, 1, 5)
    table = _price_subsets([tuple(range(9))], storage, world, window, 5e-3)
    assert len(table) == 511
    _assert_rows_are_the_loop(table, storage, world, window, 5e-3)


def _one_member_programs(world, config):
    """The program of each member alone at each step of a run of ``world``,
    at the storage levels the run starts the step with."""
    trace = run(world, config)
    levels = [world.storage_init] + [res.storage_after for res in trace.steps[:-1]]
    caps = world.storage_capacities
    for k, storage in enumerate(levels):
        window = slice_horizon(world, k, config.horizon)
        for i in range(world.n_nodes):
            yield build_coalition_lp(window.select((i,)), storage[[i]], caps[[i]])


def _assert_solved_alike(got, want, replayed) -> None:
    assert got.point.tobytes() == want.point.tobytes()
    assert got.objective_value.hex() == want.objective_value.hex()
    assert (got.phase1_pivots, got.phase2_pivots) == (want.phase1_pivots, want.phase2_pivots)
    assert (got.phase1_replayed, got.phase2_replayed) == replayed


def _solve_three_ways(prog) -> bool:
    """Solve ``prog`` cold (an empty memo, no replay), warm along the tree,
    and, where its phase 2 takes two or more pivots, warm with the tree cut
    after the first, so that phase 2 leaves it after one followed pivot;
    every way gives the same bits.  Returns whether the third way ran."""
    with mock.patch.object(lp, "_replay", lambda *args: None):
        cold = solve_cold(prog)
    _assert_solved_alike(cold, cold, (0, 0))
    lp.solve_lp(prog)  # records phase 1
    lp.solve_lp(prog)  # records phase 2, seen twice
    followed = lp.solve_lp(prog)
    _assert_solved_alike(followed, cold, (cold.phase1_pivots, cold.phase2_pivots))
    if cold.phase2_pivots < 2:
        return False
    (tableau,) = lp._MEMO.tableaux.values()  # one phase 1 and one phase 2 recorded
    node = tableau.root
    while type(node) is not lp._End:
        node = node.kids[1]
    node.kids[1].kids[1].kids = ()  # the row after the first phase-2 pivot
    with mock.patch.object(lp, "_replayed_pivot", wraps=lp._replayed_pivot) as pivot:
        left = lp.solve_lp(prog)
    lp._MEMO.clear()  # its byte counts no longer match the cut tree
    assert pivot.call_count == cold.phase1_pivots + 1
    _assert_solved_alike(left, cold, (cold.phase1_pivots, 0))
    return True


@_settings(25)
@given(seed=seeds, n_nodes=st.integers(1, 4), n_steps=st.integers(1, 5),
       horizon=st.integers(2, 6), mode=st.sampled_from([SimMode.GRID_STORAGE,
                                                         SimMode.COALITIONAL]))
def test_one_member_programs_solve_alike_cold_followed_and_leaving_the_tree(
        seed, n_nodes, n_steps, horizon, mode):
    world = generate_synthetic_scenario(seed, n_nodes=n_nodes, n_steps=n_steps)
    for prog in _one_member_programs(world, SimConfig(mode=mode, horizon=horizon)):
        _solve_three_ways(prog)


def test_one_member_programs_of_a_generated_world_leave_the_tree_alike():
    world = generate_synthetic_scenario(11, n_nodes=4, n_steps=6)
    programs = list(_one_member_programs(world, SimConfig(mode=SimMode.GRID_STORAGE)))
    left = sum(_solve_three_ways(prog) for prog in programs)
    assert len(programs) == 24 and left >= 8


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _mutate_tree(data, doc) -> None:
    """Replace, delete or add one entry somewhere inside the parsed document."""
    target = doc
    while True:
        key = data.draw(st.sampled_from(list(target) if isinstance(target, dict)
                                        else range(len(target))))
        child = target[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        target = child
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        target[key] = data.draw(json_values)
    elif action == "delete":
        del target[key]
    elif isinstance(target, dict):
        target[data.draw(st.text(max_size=8))] = data.draw(json_values)
    else:
        target.insert(key, data.draw(json_values))


@_settings(500)
@given(seed=seeds, n_nodes=st.integers(1, 3), n_steps=st.integers(1, 4),
       edits=st.integers(1, 3), text_level=st.booleans(), data=st.data())
def test_fuzzed_documents_raise_only_scenario_errors(seed, n_nodes, n_steps, edits,
                                                     text_level, data):
    text = serialize_scenario(generate_synthetic_scenario(seed, n_nodes=n_nodes,
                                                          n_steps=n_steps))
    if text_level:
        for _ in range(edits):
            start = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 4))
            text = text[:start] + data.draw(st.text(max_size=3)) + text[start + cut:]
    else:
        doc = json.loads(text)
        for _ in range(edits):
            _mutate_tree(data, doc)
        text = json.dumps(doc)
    try:
        load_scenario(text)
    except ScenarioError:
        pass
