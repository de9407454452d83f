"""The dispatch plans that price a coalition of prosumers.

A coalition of one is priced by its linear program: per horizon step the
decision variables are the storage increment, the resulting storage
level, and the energy bought from / sold to the grid.  A coalition of two
or more members is priced by an exact recursion on the members pooled
into one node, whose lexicographically smallest least-cost plan is split
among the members by capacity share (``_pooled_dispatch``; MODEL.md
sections 2 and 5).  Its linear program, where each member also buys from
/ sells to the coalition and those internal-market flows are tied
together by a zero-sum balance per step, is the second formulation that
tests and ``--oracle-check`` compare the recursion with.  Internal
transfers carry no price in that program; a tiny volume regularizer picks
the minimum-circulation optimum.  Transfer losses are charged after the
fact as ``loss_weight * mean_pair_distance * sum(coal_buy^2)`` on the
plan and added to the market cost to price a coalition in
``coalition_value``.

A run solves thousands of small one-member programs, and the equality
matrix of a program depends only on the member count and the horizon.
So each shape's matrix is built once, on first use, and every program of
that shape shares it (the bundled reference day's member counts make
eight shapes, about 0.5 MB in all; its runs build only the one-member
shape).  It is marked read-only: ``solve_lp`` only reads it (it copies it
into its own tableau, or compares it by content with the matrices of the
phase-1 paths it recorded), and a write through one program raises
instead of changing every other program.  The costs, bounds and
right-hand sides are filled per program, as (member, step, variable)
views.  A program's plan arrays are views of its point, and a one-member
plan's coalition flows are one shared read-only zero array.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DispatchError
from .lp import LinearProgram, LpStatus, solve_lp
from .scenario import HorizonSlice, Scenario, crossed_tariffs

# CU/kWh penalty on internal transfer volume; large enough to kill
# zero-cost circulation rays, far below any real tariff margin
TRANSFER_REG = 1e-9


@dataclass
class DispatchSolution:
    """Least-cost flows of one coalition; arrays are (n_members, horizon),
    views of the program's point for a program's plan, to be treated as
    read-only."""

    members: tuple[int, ...]
    storage_delta: np.ndarray
    storage_level: np.ndarray   # levels after each step, s(1..horizon)
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    coal_buy: np.ndarray
    coal_sell: np.ndarray
    market_cost: float          # grid money only, regularizer stripped
    programs: int               # linear programs solved for the plan: 1, or 0 when pooled
    phase1_pivots: int          # the program's pivots, as LpSolution counts them
    phase2_pivots: int
    phase1_replayed: int        # those replayed from a recorded path
    phase2_replayed: int


@dataclass(frozen=True)
class CoalitionValueBreakdown:
    """Cost of running a coalition: grid market cost plus transfer-loss cost."""

    market_cost: float
    loss_cost: float
    total: float
    mean_distance: float


@functools.lru_cache(maxsize=64)  # bounded: a matrix grows with the square of its shape
def _equality_matrix(n_members: int, horizon: int) -> np.ndarray:
    """The equality matrix shared by every program of this shape, read-only."""
    market = n_members > 1
    width = 6 if market else 4
    rows = 2 * n_members * horizon
    aeq = np.zeros((rows + (horizon if market else 0), width * n_members * horizon))
    # (member, step, row kind) x (member, step, variable)
    block = aeq[:rows].reshape(n_members, horizon, 2, n_members, horizon, width)
    for m in range(n_members):
        for t in range(horizon):
            recursion, balance = block[m, t, 0, m], block[m, t, 1, m]
            # storage recursion: s(t+1) - s(t) - delta(t) = 0
            recursion[t, 1] = 1.0
            recursion[t, 0] = -1.0
            if t:
                recursion[t - 1, 1] = -1.0
            # energy balance: delta + sell - buy (+ coal_sell - coal_buy) = generation - demand
            balance[t, 0] = 1.0
            balance[t, 3] = 1.0
            balance[t, 2] = -1.0
            if market:
                balance[t, 5] = 1.0
                balance[t, 4] = -1.0
    if market:
        # internal market clears at every step
        clearing = aeq[rows:].reshape(horizon, n_members, horizon, width)
        for t in range(horizon):
            clearing[t, :, t, 5] = 1.0
            clearing[t, :, t, 4] = -1.0
    aeq.flags.writeable = False
    return aeq


@functools.lru_cache(maxsize=None)
def _no_market(horizon: int) -> np.ndarray:
    """The internal-market flows of a one-member plan: zeros, shared and read-only."""
    zeros = np.zeros((1, horizon))
    zeros.flags.writeable = False
    return zeros


def _storage_bounds(ids, storage_init, storage_cap) -> tuple[np.ndarray, np.ndarray]:
    """The members' levels and capacities as arrays; a level outside
    ``[0, cap]`` raises ValueError naming the node."""
    s0 = np.asarray(storage_init, dtype=float).reshape(len(ids))
    caps = np.asarray(storage_cap, dtype=float).reshape(len(ids))
    outside = ~((0.0 <= s0) & (s0 <= caps))
    if outside.any():
        m = int(outside.argmax())
        raise ValueError(f"node {ids[m]}: storage_init {s0[m]} outside [0, {caps[m]}]")
    return s0, caps


def build_coalition_lp(slice_: HorizonSlice, storage_init, storage_cap) -> LinearProgram:
    """Market-cost program for the nodes of the slice over its horizon.

    Per member and step the variables are storage delta, storage level,
    grid buy and grid sell.  Equalities encode each member's storage
    recursion (seeded with its ``storage_init``) and energy balance;
    bounds keep flows nonnegative and storage levels within capacity.
    With two or more members every member-step also gets coalition buy
    and sell variables, a per-step equality forces the internal market to
    clear (total sold == total bought), and the objective adds
    ``TRANSFER_REG`` times internal volume.  One member has no internal
    market, so its program trades with the grid only.  The equality
    matrix is the shared, read-only one of the program's shape.
    """
    ids = slice_.node_ids
    nm = len(ids)
    if nm < 1:
        raise ValueError("coalition needs at least one member")
    s0, caps = _storage_bounds(ids, storage_init, storage_cap)
    h = slice_.horizon
    aeq = _equality_matrix(nm, h)
    width = 6 if nm > 1 else 4  # variables per member-step

    # (member, step, variable) views of the vectors
    cost = np.zeros((nm, h, width))
    cost[:, :, 2] = slice_.buy_price
    np.negative(slice_.sell_price, out=cost[:, :, 3])
    cost[:, :, 4:] = TRANSFER_REG
    lower = np.zeros((nm, h, width))
    np.negative(caps[:, None], out=lower[:, :, 0])
    upper = np.full((nm, h, width), np.inf)
    upper[:, :, :2] = caps[:, None, None]
    beq = np.zeros(aeq.shape[0])
    rhs = beq[:2 * nm * h].reshape(nm, h, 2)
    rhs[:, 0, 0] = s0
    np.subtract(slice_.generation, slice_.demand, out=rhs[:, :, 1])
    n = aeq.shape[1]
    return LinearProgram(objective=cost.reshape(n), eq_matrix=aeq, eq_rhs=beq,
                         ub_matrix=np.zeros((0, n)), ub_rhs=np.zeros(0),
                         lower=lower.reshape(n), upper=upper.reshape(n))


def build_individual_lp(slice_: HorizonSlice, storage_init: float,
                        storage_cap: float) -> LinearProgram:
    """Grid-only program for one node: the one-member coalition program."""
    return build_coalition_lp(slice_, [storage_init], [storage_cap])


def _dispatch_failure(slice_: HorizonSlice, status: LpStatus) -> DispatchError:
    if status is LpStatus.UNBOUNDED:
        crossed = crossed_tariffs(slice_.buy_price, slice_.sell_price, slice_.node_ids)
        if crossed:
            t, clash = crossed[0]
            return DispatchError(f"dispatch unbounded: tariff margin violated: "
                                 f"{clash} at horizon step {t}")
        return DispatchError("dispatch unbounded: tariff margin assumption violated")
    return DispatchError(
        f"dispatch infeasible for nodes {slice_.node_ids}: storage state "
        f"inconsistent with capacity bounds")


def solve_coalition_dispatch(slice_: HorizonSlice, storage_init,
                             storage_cap) -> DispatchSolution:
    solution = solve_lp(build_coalition_lp(slice_, storage_init, storage_cap))
    if solution.status is not LpStatus.OPTIMAL:
        raise _dispatch_failure(slice_, solution.status)
    nm = len(slice_.node_ids)
    h = slice_.horizon
    point = solution.point.reshape(nm, h, -1)
    grid_buy = point[:, :, 2]
    grid_sell = point[:, :, 3]
    # reported cost is the grid money alone, with the regularizer stripped
    market = float((slice_.buy_price * grid_buy - slice_.sell_price * grid_sell).sum())
    if nm > 1:
        coal_buy, coal_sell = point[:, :, 4], point[:, :, 5]
    else:
        coal_buy = coal_sell = _no_market(h)
    return DispatchSolution(
        members=tuple(slice_.node_ids),
        storage_delta=point[:, :, 0],
        storage_level=point[:, :, 1],
        grid_buy=grid_buy,
        grid_sell=grid_sell,
        coal_buy=coal_buy,
        coal_sell=coal_sell,
        market_cost=market,
        programs=1,
        phase1_pivots=solution.phase1_pivots,
        phase2_pivots=solution.phase2_pivots,
        phase1_replayed=solution.phase1_replayed,
        phase2_replayed=solution.phase2_replayed,
    )


def solve_individual_dispatch(slice_: HorizonSlice, storage_init: float,
                              storage_cap: float) -> DispatchSolution:
    """Grid-only dispatch of one node: the one-member coalition dispatch."""
    return solve_coalition_dispatch(slice_, [storage_init], [storage_cap])


def _pooled_dispatch(slice_: HorizonSlice, storage_init, storage_cap) -> DispatchSolution:
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


def mean_pairwise_distance(positions) -> float:
    """Mean Euclidean distance over all unordered pairs; 0 for a single point."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("need at least one position")
    if n == 1:
        return 0.0
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(np.hypot(pts[i + 1:, 0] - pts[i, 0],
                                       pts[i + 1:, 1] - pts[i, 1])))
    return total / (n * (n - 1) / 2)


@functools.lru_cache(maxsize=1024)  # the reference day has 247 sets of two or more
def _mean_distance(positions: tuple) -> float:
    """:func:`mean_pairwise_distance` of ``positions``, a tuple of (x, y)
    tuples, computed once per set of positions: a run asks for each
    coalition's again at every step, and positions never change."""
    return mean_pairwise_distance(positions)


def evaluate_loss_cost(solution: DispatchSolution, mean_distance: float,
                       loss_weight: float) -> float:
    """Transfer-loss cost: weight * distance * sum over members and steps of
    squared coalition purchases."""
    return float(loss_weight * mean_distance * np.sum(solution.coal_buy ** 2))


def coalition_value(members, storage_levels, scenario: Scenario, slice_: HorizonSlice,
                    loss_weight: float) -> tuple[CoalitionValueBreakdown, DispatchSolution]:
    """Price a coalition over the step's horizon slice: plan its dispatch
    (one member by its program, two or more by the pooled recursion) and
    add the transfer-loss cost (0 for one member, who has no internal
    market).  Returns the breakdown and the planned dispatch."""
    members = tuple(sorted(members))
    if not members:
        raise ValueError("coalition must be nonempty")
    for a, b in zip(members, members[1:]):
        if a == b:
            raise ValueError(f"coalition repeats member {a}")
    storage = np.asarray(storage_levels, dtype=float)
    hs = slice_.select(members)
    nodes = [scenario.nodes[i] for i in members]
    caps = [nd.storage_capacity for nd in nodes]
    if len(members) == 1:
        sol = solve_individual_dispatch(hs, float(storage[members[0]]), float(caps[0]))
        return CoalitionValueBreakdown(sol.market_cost, 0.0, sol.market_cost, 0.0), sol
    sol = _pooled_dispatch(hs, storage[list(members)], caps)
    r_hat = _mean_distance(tuple(tuple(nd.position) for nd in nodes))
    loss = evaluate_loss_cost(sol, r_hat, loss_weight)
    breakdown = CoalitionValueBreakdown(
        market_cost=sol.market_cost,
        loss_cost=loss,
        total=sol.market_cost + loss,
        mean_distance=r_hat,
    )
    return breakdown, sol
