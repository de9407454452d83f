"""The dispatch program that prices a coalition of prosumers.

One linear program serves every coalition.  Per member and horizon step
the decision variables are the storage increment, the resulting storage
level, and the energy bought from / sold to the grid.  With two or more
members each member also buys from / sells to the coalition, and those
internal-market flows are tied together by a zero-sum balance per step;
a coalition of one has no internal market and trades with the grid only.
Internal transfers carry no price in the objective; a tiny volume
regularizer picks the minimum-circulation optimum so transfer-dependent
loss costs are well defined.  Transfer losses are charged after the fact
as ``loss_weight * mean_pair_distance * sum(coal_buy^2)`` and added to
the market cost to price a coalition in ``coalition_value``.

A run prices thousands of small programs, and their equality matrix
depends only on the member count and the horizon.  So each shape's matrix
is built once, on first use, and every program of that shape shares it
(the bundled reference day has eight shapes, about 0.5 MB in all).  It is
marked read-only: ``solve_lp`` only reads it (it copies it into its own
tableau, or compares it by content with the matrices of the phase-1 paths
it recorded), and a write through one program raises instead of changing
every other program.  The costs, bounds and right-hand sides are filled
per program, as (member, step, variable) views.  A plan's arrays are
views of the program's point, and a one-member plan's coalition flows are
one shared read-only zero array.
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
    """Optimal flows for one program; arrays are (n_members, horizon) views
    of the program's point, to be treated as read-only."""

    members: tuple[int, ...]
    storage_delta: np.ndarray
    storage_level: np.ndarray   # levels after each step, s(1..horizon)
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    coal_buy: np.ndarray
    coal_sell: np.ndarray
    market_cost: float          # grid money only, regularizer stripped
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
    s0 = np.asarray(storage_init, dtype=float).reshape(nm)
    caps = np.asarray(storage_cap, dtype=float).reshape(nm)
    outside = ~((0.0 <= s0) & (s0 <= caps))
    if outside.any():
        m = int(outside.argmax())
        raise ValueError(f"node {ids[m]}: storage_init {s0[m]} outside [0, {caps[m]}]")
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
        phase1_pivots=solution.phase1_pivots,
        phase2_pivots=solution.phase2_pivots,
        phase1_replayed=solution.phase1_replayed,
        phase2_replayed=solution.phase2_replayed,
    )


def solve_individual_dispatch(slice_: HorizonSlice, storage_init: float,
                              storage_cap: float) -> DispatchSolution:
    """Grid-only dispatch of one node: the one-member coalition dispatch."""
    return solve_coalition_dispatch(slice_, [storage_init], [storage_cap])


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
    """Price a coalition over the step's horizon slice: solve its dispatch
    and add the transfer-loss cost (0 for one member, who has no internal
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
    sol = solve_coalition_dispatch(hs, storage[list(members)], caps)
    r_hat = _mean_distance(tuple(tuple(nd.position) for nd in nodes))
    loss = evaluate_loss_cost(sol, r_hat, loss_weight)
    breakdown = CoalitionValueBreakdown(
        market_cost=sol.market_cost,
        loss_cost=loss,
        total=sol.market_cost + loss,
        mean_distance=r_hat,
    )
    return breakdown, sol
