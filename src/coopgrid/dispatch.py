"""Dispatch programs for single prosumers and for coalitions.

The individual program trades with the grid only: per horizon step the
decision variables are the storage increment, the resulting storage
level, and the energy bought from / sold to the grid.  The coalition
program adds per-member internal-market flows (buy from / sell to the
coalition) tied together by a zero-sum balance per step.  Internal
transfers carry no price in the objective; a tiny volume regularizer
picks the minimum-circulation optimum so transfer-dependent loss costs
are well defined.  Transfer losses are charged after the fact as
``loss_weight * mean_pair_distance * sum(coal_buy^2)`` and added to the
market cost to price a coalition.  ``coalition_value`` prices every
coalition; one member alone goes through the individual program.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DispatchError
from .lp import LinearProgram, LpStatus, make_program, solve_lp
from .scenario import HorizonSlice, Scenario

# CU/kWh penalty on internal transfer volume; large enough to kill
# zero-cost circulation rays, far below any real tariff margin
DEFAULT_TRANSFER_REG = 1e-9


@dataclass
class DispatchSolution:
    """Optimal flows for one program; arrays are (n_members, horizon)."""

    members: tuple[int, ...]
    storage_delta: np.ndarray
    storage_level: np.ndarray   # levels after each step, s(1..horizon)
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    coal_buy: np.ndarray
    coal_sell: np.ndarray
    market_cost: float          # grid money only, regularizer stripped

    @property
    def horizon(self) -> int:
        return int(self.grid_buy.shape[1])


@dataclass(frozen=True)
class CoalitionValueBreakdown:
    """Cost of running a coalition: grid market cost plus transfer-loss cost."""

    market_cost: float
    loss_cost: float
    total: float
    mean_distance: float


def build_individual_lp(slice_: HorizonSlice, storage_init: float,
                        storage_cap: float) -> LinearProgram:
    """Grid-only program for one node over the slice horizon.

    Variables per step: storage delta, storage level, grid buy, grid sell.
    Equalities encode the storage recursion (seeded with ``storage_init``)
    and the node energy balance; bounds keep flows nonnegative and the
    storage level within capacity.
    """
    if len(slice_.node_ids) != 1:
        raise ValueError("individual program expects a single-node slice")
    if not 0.0 <= storage_init <= storage_cap:
        raise ValueError(f"storage_init {storage_init} outside [0, {storage_cap}]")
    h = slice_.horizon
    demand = slice_.demand[0]
    generation = slice_.generation[0]
    buy_price = slice_.buy_price[0]
    sell_price = slice_.sell_price[0]

    n = 4 * h
    cost = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    aeq = np.zeros((2 * h, n))
    beq = np.zeros(2 * h)
    names = []
    for t in range(h):
        i_ds, i_s, i_buy, i_sell = 4 * t, 4 * t + 1, 4 * t + 2, 4 * t + 3
        cost[i_buy] = buy_price[t]
        cost[i_sell] = -sell_price[t]
        lower[i_ds] = -storage_cap
        upper[i_ds] = storage_cap
        upper[i_s] = storage_cap
        # storage recursion: s(t+1) - s(t) - delta(t) = 0
        aeq[2 * t, i_s] = 1.0
        aeq[2 * t, i_ds] = -1.0
        if t == 0:
            beq[2 * t] = storage_init
        else:
            aeq[2 * t, i_s - 4] = -1.0
        # energy balance: delta + sell - buy = generation - demand
        aeq[2 * t + 1, i_ds] = 1.0
        aeq[2 * t + 1, i_sell] = 1.0
        aeq[2 * t + 1, i_buy] = -1.0
        beq[2 * t + 1] = generation[t] - demand[t]
        names += [f"storage_delta[{t}]", f"storage_level[{t + 1}]",
                  f"grid_buy[{t}]", f"grid_sell[{t}]"]
    return make_program(cost, aeq, beq, lower=lower, upper=upper, var_names=names)


def build_coalition_lp(slice_: HorizonSlice, storage_init, storage_cap,
                       transfer_reg: float = DEFAULT_TRANSFER_REG) -> LinearProgram:
    """Joint market-cost program for the nodes of the slice.

    Per member and step the variables are storage delta, storage level,
    grid buy/sell and coalition buy/sell; a per-step equality forces the
    internal market to clear (total sold == total bought).  The objective
    is the summed grid cost plus ``transfer_reg`` times internal volume.
    """
    ids = slice_.node_ids
    nm = len(ids)
    if nm < 1:
        raise ValueError("coalition needs at least one member")
    s0 = np.asarray(storage_init, dtype=float).reshape(nm)
    caps = np.asarray(storage_cap, dtype=float).reshape(nm)
    for m in range(nm):
        if not 0.0 <= s0[m] <= caps[m]:
            raise ValueError(f"node {ids[m]}: storage_init {s0[m]} outside [0, {caps[m]}]")
    h = slice_.horizon

    n = 6 * nm * h
    cost = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    aeq = np.zeros((2 * nm * h + h, n))
    beq = np.zeros(2 * nm * h + h)
    names = [""] * n
    for m in range(nm):
        for t in range(h):
            base = 6 * (m * h + t)
            i_ds, i_s, i_buy, i_sell, i_cbuy, i_csell = range(base, base + 6)
            cost[i_buy] = slice_.buy_price[m, t]
            cost[i_sell] = -slice_.sell_price[m, t]
            cost[i_cbuy] = transfer_reg
            cost[i_csell] = transfer_reg
            lower[i_ds] = -caps[m]
            upper[i_ds] = caps[m]
            upper[i_s] = caps[m]
            r = 2 * (m * h + t)
            aeq[r, i_s] = 1.0
            aeq[r, i_ds] = -1.0
            if t == 0:
                beq[r] = s0[m]
            else:
                aeq[r, i_s - 6] = -1.0
            aeq[r + 1, i_ds] = 1.0
            aeq[r + 1, i_sell] = 1.0
            aeq[r + 1, i_csell] = 1.0
            aeq[r + 1, i_buy] = -1.0
            aeq[r + 1, i_cbuy] = -1.0
            beq[r + 1] = slice_.generation[m, t] - slice_.demand[m, t]
            # internal market clears at every step
            aeq[2 * nm * h + t, i_csell] = 1.0
            aeq[2 * nm * h + t, i_cbuy] = -1.0
            nid = ids[m]
            names[base:base + 6] = [
                f"storage_delta[{nid}:{t}]", f"storage_level[{nid}:{t + 1}]",
                f"grid_buy[{nid}:{t}]", f"grid_sell[{nid}:{t}]",
                f"coal_buy[{nid}:{t}]", f"coal_sell[{nid}:{t}]",
            ]
    return make_program(cost, aeq, beq, lower=lower, upper=upper, var_names=names)


def _dispatch_failure(slice_: HorizonSlice, status: LpStatus) -> DispatchError:
    if status is LpStatus.UNBOUNDED:
        bad = np.argwhere(slice_.buy_price <= slice_.sell_price)
        if bad.size:
            m, t = bad[0]
            return DispatchError(
                f"dispatch unbounded: tariff margin violated (buy_price <= sell_price) "
                f"at node {slice_.node_ids[m]}, horizon step {t}")
        return DispatchError("dispatch unbounded: tariff margin assumption violated")
    return DispatchError(
        f"dispatch infeasible for nodes {slice_.node_ids}: storage state "
        f"inconsistent with capacity bounds")


def solve_individual_dispatch(slice_: HorizonSlice, storage_init: float,
                              storage_cap: float) -> DispatchSolution:
    solution = solve_lp(build_individual_lp(slice_, storage_init, storage_cap))
    if solution.status is not LpStatus.OPTIMAL:
        raise _dispatch_failure(slice_, solution.status)
    h = slice_.horizon
    point = solution.point.reshape(h, 4)
    grid_buy = point[:, 2].reshape(1, h)
    grid_sell = point[:, 3].reshape(1, h)
    market = float(np.sum(slice_.buy_price[0] * grid_buy[0]
                          - slice_.sell_price[0] * grid_sell[0]))
    zeros = np.zeros((1, h))
    return DispatchSolution(
        members=tuple(slice_.node_ids),
        storage_delta=point[:, 0].reshape(1, h),
        storage_level=point[:, 1].reshape(1, h),
        grid_buy=grid_buy,
        grid_sell=grid_sell,
        coal_buy=zeros,
        coal_sell=zeros.copy(),
        market_cost=market,
    )


def solve_coalition_dispatch(slice_: HorizonSlice, storage_init, storage_cap,
                             transfer_reg: float = DEFAULT_TRANSFER_REG) -> DispatchSolution:
    solution = solve_lp(build_coalition_lp(slice_, storage_init, storage_cap, transfer_reg))
    if solution.status is not LpStatus.OPTIMAL:
        raise _dispatch_failure(slice_, solution.status)
    nm = len(slice_.node_ids)
    h = slice_.horizon
    point = solution.point.reshape(nm, h, 6)
    grid_buy = point[:, :, 2]
    grid_sell = point[:, :, 3]
    # reported cost is the grid money alone, with the regularizer stripped
    market = float(np.sum(slice_.buy_price * grid_buy - slice_.sell_price * grid_sell))
    return DispatchSolution(
        members=tuple(slice_.node_ids),
        storage_delta=point[:, :, 0],
        storage_level=point[:, :, 1],
        grid_buy=grid_buy,
        grid_sell=grid_sell,
        coal_buy=point[:, :, 4],
        coal_sell=point[:, :, 5],
        market_cost=market,
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


def evaluate_loss_cost(solution: DispatchSolution, mean_distance: float,
                       loss_weight: float) -> float:
    """Transfer-loss cost: weight * distance * sum over members and steps of
    squared coalition purchases."""
    return float(loss_weight * mean_distance * np.sum(solution.coal_buy ** 2))


def coalition_value(members, storage_levels, scenario: Scenario, slice_: HorizonSlice,
                    loss_weight: float, transfer_reg: float = DEFAULT_TRANSFER_REG,
                    ) -> tuple[CoalitionValueBreakdown, DispatchSolution]:
    """Price a coalition over the step's horizon slice: solve its dispatch
    and add the transfer-loss cost (0 for one member, who has no internal
    market).  Returns the breakdown and the planned dispatch."""
    members = tuple(sorted(members))
    if not members:
        raise ValueError("coalition must be nonempty")
    storage = np.asarray(storage_levels, dtype=float)
    hs = slice_.select(members)
    nodes = [scenario.nodes[i] for i in members]
    caps = [nd.storage_capacity for nd in nodes]
    if len(members) == 1:
        sol = solve_individual_dispatch(hs, float(storage[members[0]]), float(caps[0]))
        return CoalitionValueBreakdown(sol.market_cost, 0.0, sol.market_cost, 0.0), sol
    sol = solve_coalition_dispatch(hs, storage[list(members)], caps, transfer_reg)
    r_hat = mean_pairwise_distance([nd.position for nd in nodes])
    loss = evaluate_loss_cost(sol, r_hat, loss_weight)
    breakdown = CoalitionValueBreakdown(
        market_cost=sol.market_cost,
        loss_cost=loss,
        total=sol.market_cost + loss,
        mean_distance=r_hat,
    )
    return breakdown, sol
