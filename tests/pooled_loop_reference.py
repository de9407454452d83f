"""Loop reference for the pooled recursion of :mod:`coopgrid.dispatch`.

This is the recursion that priced one coalition of two or more members
per call, with the pooled sums and both passes in Python, kept as the
reference the batched recursion over all subsets of a block must match
bit for bit: every breakdown float and the bytes of the six plan arrays
(:func:`assert_same_pricing`).
"""

import numpy as np

from coopgrid.dispatch import (CoalitionValueBreakdown, DispatchSolution, _dispatch_failure,
                               _storage_bounds, evaluate_loss_cost, mean_pairwise_distance)
from coopgrid.lp import LpStatus
from coopgrid.scenario import HorizonSlice


def pooled_dispatch(slice_: HorizonSlice, storage_init, storage_cap) -> DispatchSolution:
    """Least-cost dispatch of two or more members as one pooled node
    (MODEL.md section 5), split among the members by capacity share.

    The pooled node has the members' summed need (demand minus generation),
    capacity C and level, and trades at the step's lowest member buy price
    p_t and highest member sell price q_t.  Its cost-to-go V_t over the
    level before step t is convex and piecewise linear on [0, C], kept as
    segment starts and right slopes; every slope is a price or 0, so every
    slope comparison is exact.  The forward pass takes the smallest
    minimizer at each step, which gives the lexicographically smallest
    least-cost level path.
    """
    ids = slice_.node_ids
    s0, caps = _storage_bounds(ids, storage_init, storage_cap)
    p = slice_.buy_price.min(axis=0)
    q = slice_.sell_price.max(axis=0)
    if (q >= p).any():
        raise _dispatch_failure(slice_, LpStatus.UNBOUNDED)
    net = slice_.demand - slice_.generation
    h = slice_.horizon
    # summed in member order: numpy reorders sums of eight or more terms
    capacity = level = 0.0
    need = [0.0] * h
    for cap, s, row in zip(caps.tolist(), s0.tolist(), net.tolist()):
        capacity += cap
        level += s
        for t in range(h):
            need[t] += row[t]

    # backward: a_t and b_t are the smallest levels where V_{t+1}'s right
    # slope reaches -p_t and -q_t (C if it never does); V_t is V_{t+1}
    # between them, with rays of slope -p_t below and -q_t above, at the
    # level less need_t, restricted to [0, C]
    starts, slopes = [0.0], [0.0]  # V_h = 0
    targets = [None] * h
    for t in reversed(range(h)):
        buy, sell = -float(p[t]), -float(q[t])
        k = next((i for i, m in enumerate(slopes) if m >= buy), len(slopes))
        j = next((i for i, m in enumerate(slopes) if m >= sell), len(slopes))
        a = starts[k] if k < len(slopes) else capacity
        b = starts[j] if j < len(slopes) else capacity
        targets[t] = a, b
        if t:
            kept = [(x, m) for x, m in zip(starts[k:j], slopes[k:j]) if m > buy]
            starts, slopes = [0.0], [buy]
            for x, m in kept + [(b, sell)]:
                x += need[t]
                if x <= 0.0:
                    slopes[0] = m
                elif x < capacity:
                    starts.append(x)
                    slopes.append(m)

    # forward: the smallest minimizer at each step
    path, bought, sold = [], [], []
    s = level
    for t, (a, b) in enumerate(targets):
        z = s - need[t]  # the level with no grid trade
        s = b if b < z else max(z, a)
        path.append(s)
        bought.append(max(0.0, s - z))
        sold.append(max(0.0, z - s))

    levels = np.zeros((len(ids), h))
    if capacity:
        levels[:] = (caps / capacity)[:, None] * path
    delta = np.diff(levels, axis=1, prepend=s0[:, None])
    steps = np.arange(h)
    grid_buy = np.zeros_like(levels)
    grid_buy[slice_.buy_price.argmin(axis=0), steps] = bought
    grid_sell = np.zeros_like(levels)
    grid_sell[slice_.sell_price.argmax(axis=0), steps] = sold
    member_need = net + delta + grid_sell - grid_buy
    return DispatchSolution(
        members=tuple(ids),
        storage_delta=delta,
        storage_level=levels,
        grid_buy=grid_buy,
        grid_sell=grid_sell,
        coal_buy=np.maximum(member_need, 0.0),
        coal_sell=np.maximum(-member_need, 0.0),
        market_cost=float((slice_.buy_price * grid_buy
                           - slice_.sell_price * grid_sell).sum()),
        programs=0, phase1_pivots=0, phase2_pivots=0, phase1_replayed=0, phase2_replayed=0,
    )


def pooled_value(members, storage_levels, scenario, slice_, loss_weight):
    """``(breakdown, plan)`` of two or more members by :func:`pooled_dispatch`,
    priced as ``coalition_value`` priced them: the loss evaluated on the
    plan at the members' mean pairwise distance."""
    members = tuple(members)
    storage = np.asarray(storage_levels, dtype=float)
    nodes = [scenario.nodes[i] for i in members]
    sol = pooled_dispatch(slice_.select(members), storage[list(members)],
                          [nd.storage_capacity for nd in nodes])
    r_hat = mean_pairwise_distance(tuple(tuple(nd.position) for nd in nodes))
    loss = evaluate_loss_cost(sol, r_hat, loss_weight)
    return CoalitionValueBreakdown(market_cost=sol.market_cost, loss_cost=loss,
                                   total=sol.market_cost + loss, mean_distance=r_hat), sol


def assert_same_pricing(got, want) -> None:
    """Every breakdown float to the bit (``float.hex``), the members, and the
    bytes and shapes of the six plan arrays."""
    (got_value, got_plan), (want_value, want_plan) = got, want
    for field in ("market_cost", "loss_cost", "total", "mean_distance"):
        assert float(getattr(got_value, field)).hex() == \
            float(getattr(want_value, field)).hex(), field
    assert got_plan.members == want_plan.members
    for field in ("storage_delta", "storage_level", "grid_buy", "grid_sell",
                  "coal_buy", "coal_sell"):
        got_array, want_array = getattr(got_plan, field), getattr(want_plan, field)
        assert got_array.shape == want_array.shape, field
        assert got_array.tobytes() == want_array.tobytes(), field
