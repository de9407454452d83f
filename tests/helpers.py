"""Shared construction helpers for the test suite."""

import hashlib

import numpy as np

from coopgrid import lp
from coopgrid.scenario import NodeProfile, Scenario


def make_node(node_id, demand, generation, buy, sell, cap=0.0, s0=0.0,
              position=None):
    if position is None:
        position = (0.5 * node_id, 0.0)
    return NodeProfile(
        node_id=node_id,
        position=position,
        storage_capacity=cap,
        storage_init=s0,
        demand=np.asarray(demand, dtype=float),
        generation=np.asarray(generation, dtype=float),
        buy_price=np.asarray(buy, dtype=float),
        sell_price=np.asarray(sell, dtype=float),
    )


def make_scenario(nodes, step_hours=1.0, start_hour=7.0):
    return Scenario(nodes=list(nodes), step_hours=step_hours, start_hour=start_hour)


def world_digest(scenario) -> str:
    """SHA-256 over a scenario's bytes: step length, start hour, and each
    node's id, position, storage limits and the bytes of its four series."""
    h = hashlib.sha256(np.array([scenario.step_hours, scenario.start_hour]).tobytes())
    for nd in scenario.nodes:
        h.update(np.array([nd.node_id, *nd.position, nd.storage_capacity,
                           nd.storage_init], dtype=float).tobytes())
        for arr in (nd.demand, nd.generation, nd.buy_price, nd.sell_price):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def surplus_deficit_pair(steps=1):
    """Node 0 has a 3 kWh surplus, node 1 a 3 kWh deficit, 0.5 km apart."""
    a = make_node(0, demand=[0.0] * steps, generation=[3.0] * steps,
                  buy=[0.1] * steps, sell=[0.05] * steps, position=(0.0, 0.0))
    b = make_node(1, demand=[3.0] * steps, generation=[0.0] * steps,
                  buy=[0.1] * steps, sell=[0.05] * steps, position=(0.5, 0.0))
    return make_scenario([a, b])


def traces_equal(a, b) -> bool:
    """Bitwise comparison of the applied flows, partitions and charges."""
    if a.n_agents != b.n_agents or len(a.steps) != len(b.steps):
        return False
    if not (np.array_equal(a.cumulative_costs, b.cumulative_costs)
            and np.array_equal(a.final_storage, b.final_storage)):
        return False
    for ra, rb in zip(a.steps, b.steps):
        if ra.partition.blocks != rb.partition.blocks:
            return False
        for field in ("grid_buy", "grid_sell", "coal_buy", "coal_sell",
                      "storage_delta", "storage_after", "charges"):
            if not np.array_equal(getattr(ra, field), getattr(rb, field)):
                return False
    return True


def assert_same_solution(got, want):
    """Same status, per-phase pivot counts, point bytes and objective bytes."""
    assert got.status is want.status
    assert (got.phase1_pivots, got.phase2_pivots) == (want.phase1_pivots, want.phase2_pivots)
    if want.point is None:
        assert got.point is None and got.objective_value is None
    else:
        # bytes, not values: -0.0 == 0.0, but reports print them differently
        assert got.point.tobytes() == want.point.tobytes()
        assert np.float64(got.objective_value).tobytes() == \
            np.float64(want.objective_value).tobytes()


def solve_cold(problem):
    """``solve_lp`` with no recorded phase-1 path to replay."""
    lp._MEMO.clear()
    return lp.solve_lp(problem)


def solve_recorded(problem):
    """``solve_cold``, then a second solve, which records the phase-1 path:
    the memo records a tableau the second time it sees it."""
    solve_cold(problem)
    return lp.solve_lp(problem)



def split_pooled_plan(slice_, storage_init, storage_cap, levels, loss_weight,
                      mean_distance) -> float:
    """v(S) of a pooled level path, split by the rule of MODEL.md section 5
    in plain loops: member levels by capacity share, the pooled purchase
    (sale) by the lowest-id member at the step's lowest buy (highest sell)
    price, each member's internal purchase the positive part of its need."""
    nm, h = len(slice_.node_ids), slice_.horizon
    capacity = sum(float(c) for c in storage_cap)
    member = [float(s) for s in storage_init]
    pooled = sum(member)
    money = squares = 0.0
    for t in range(h):
        net = [float(slice_.demand[i, t] - slice_.generation[i, t]) for i in range(nm)]
        trade = levels[t] - pooled + sum(net)  # bought if positive, sold if negative
        buy = [float(x) for x in slice_.buy_price[:, t]]
        sell = [float(x) for x in slice_.sell_price[:, t]]
        buyer, seller = buy.index(min(buy)), sell.index(max(sell))
        money += min(buy) * max(trade, 0.0) - max(sell) * max(-trade, 0.0)
        for i in range(nm):
            level = float(storage_cap[i]) / capacity * levels[t] if capacity else 0.0
            need = (net[i] + level - member[i] - (trade if i == buyer and trade > 0 else 0.0)
                    + (-trade if i == seller and trade < 0 else 0.0))
            squares += max(need, 0.0) ** 2
            member[i] = level
        pooled = levels[t]
    return money + loss_weight * mean_distance * squares
