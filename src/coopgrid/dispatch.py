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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DispatchError
from .lp import LinearProgram, LpStatus, make_program, solve_lp
from .scenario import HorizonSlice, Scenario, crossed_tariffs

# CU/kWh penalty on internal transfer volume; large enough to kill
# zero-cost circulation rays, far below any real tariff margin
TRANSFER_REG = 1e-9


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
    market, so its program trades with the grid only.
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
    market = nm > 1
    width = 6 if market else 4  # variables per member-step

    n = width * nm * h
    cost = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    aeq = np.zeros((2 * nm * h + (h if market else 0), n))
    beq = np.zeros(aeq.shape[0])
    for m in range(nm):
        for t in range(h):
            base = width * (m * h + t)
            i_ds, i_s, i_buy, i_sell = range(base, base + 4)
            cost[i_buy] = slice_.buy_price[m, t]
            cost[i_sell] = -slice_.sell_price[m, t]
            lower[i_ds] = -caps[m]
            upper[i_ds] = caps[m]
            upper[i_s] = caps[m]
            # storage recursion: s(t+1) - s(t) - delta(t) = 0
            r = 2 * (m * h + t)
            aeq[r, i_s] = 1.0
            aeq[r, i_ds] = -1.0
            if t == 0:
                beq[r] = s0[m]
            else:
                aeq[r, i_s - width] = -1.0
            # energy balance: delta + sell - buy (+ coal_sell - coal_buy) = generation - demand
            aeq[r + 1, i_ds] = 1.0
            aeq[r + 1, i_sell] = 1.0
            aeq[r + 1, i_buy] = -1.0
            beq[r + 1] = slice_.generation[m, t] - slice_.demand[m, t]
            if market:
                i_cbuy, i_csell = base + 4, base + 5
                cost[i_cbuy] = TRANSFER_REG
                cost[i_csell] = TRANSFER_REG
                aeq[r + 1, i_csell] = 1.0
                aeq[r + 1, i_cbuy] = -1.0
                # internal market clears at every step
                aeq[2 * nm * h + t, i_csell] = 1.0
                aeq[2 * nm * h + t, i_cbuy] = -1.0
    return make_program(cost, aeq, beq, lower=lower, upper=upper)


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
    market = float(np.sum(slice_.buy_price * grid_buy - slice_.sell_price * grid_sell))
    if nm > 1:
        coal_buy, coal_sell = point[:, :, 4], point[:, :, 5]
    else:
        coal_buy, coal_sell = np.zeros((1, h)), np.zeros((1, h))
    return DispatchSolution(
        members=tuple(slice_.node_ids),
        storage_delta=point[:, :, 0],
        storage_level=point[:, :, 1],
        grid_buy=grid_buy,
        grid_sell=grid_sell,
        coal_buy=coal_buy,
        coal_sell=coal_sell,
        market_cost=market,
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
    storage = np.asarray(storage_levels, dtype=float)
    hs = slice_.select(members)
    nodes = [scenario.nodes[i] for i in members]
    caps = [nd.storage_capacity for nd in nodes]
    if len(members) == 1:
        sol = solve_individual_dispatch(hs, float(storage[members[0]]), float(caps[0]))
        return CoalitionValueBreakdown(sol.market_cost, 0.0, sol.market_cost, 0.0), sol
    sol = solve_coalition_dispatch(hs, storage[list(members)], caps)
    r_hat = mean_pairwise_distance([nd.position for nd in nodes])
    loss = evaluate_loss_cost(sol, r_hat, loss_weight)
    breakdown = CoalitionValueBreakdown(
        market_cost=sol.market_cost,
        loss_cost=loss,
        total=sol.market_cost + loss,
        mean_distance=r_hat,
    )
    return breakdown, sol
