"""Property tests over generated worlds and fuzzed scenario documents.

Worlds come from ``generate_synthetic_scenario`` with 1-4 nodes and 1-4
steps (2-5 nodes and 1-6 steps for the pooled-program certificate and the
lexicographic plan); the
horizon, the re-formation period and the loss weight are drawn too.
Examples are derandomized, so every run checks the same cases.
"""

import json

import numpy as np
from helpers import split_pooled_plan, traces_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgrid.dispatch import coalition_value, mean_pairwise_distance
from coopgrid.errors import ScenarioError
from coopgrid.game import coalition_members
from coopgrid.oracles import lexicographic_pooled_levels, pooled_market_cost
from coopgrid.scenario import (generate_synthetic_scenario, load_scenario, serialize_scenario,
                               slice_horizon)
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
