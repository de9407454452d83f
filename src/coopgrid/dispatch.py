"""The dispatch plans that price a coalition of prosumers.

A coalition of one is priced by its linear program: per horizon step the
decision variables are the storage increment, the resulting storage
level, and the energy bought from / sold to the grid.  A coalition of two
or more members is priced by an exact recursion on the members pooled
into one node, whose lexicographically smallest least-cost plan is split
among the members by capacity share (MODEL.md sections 2 and 5).  The
coalition's linear program, where each member also buys from / sells to
the coalition and those internal-market flows are tied together by a
zero-sum balance per step, is the second formulation that tests and
``--oracle-check`` compare the recursion with.  Internal transfers carry
no price in that program; a tiny volume regularizer picks the
minimum-circulation optimum.  Transfer losses are charged after the fact
as ``loss_weight * mean_pair_distance * sum(coal_buy^2)`` on the plan and
added to the market cost.

The recursion prices every subset of two or more members of a block at
once (``_pooled_subsets``): each subset's pooled inputs are those of the
subset without its highest member plus that member, so one table per
input is built by doubling over the members, and both passes run over
all subsets as padded arrays.  It hands its v(S) and first-step costs
over as arrays (:class:`PooledRows`) and makes a subset's
``(breakdown, plan)`` only on demand.  ``game`` prices each block's
subsets so; ``coalition_value`` runs the passes on the row of the whole
coalition only.

A run solves thousands of small one-member programs, and the equality
matrix of a program depends only on the member count and the horizon.
So each shape's matrix is built once, on first use, and every program of
that shape shares it (the bundled reference day's member counts make
eight shapes, about 0.5 MB in all; its runs build only the one-member
shape).  It is marked read-only: ``solve_lp`` only reads it (it copies it
into its own tableau, or compares it by content with the matrices of the
phase-1 paths it recorded), and a write through one program raises
instead of changing every other program.  The bounds depend only on the
members' capacities and the horizon, so each set's are built once and
shared read-only too (``_bounds``, a bounded cache: a run of a world
needs one entry per node alone and horizon).
The costs and right-hand sides are filled per program, as (member, step,
variable) views.  A program's plan arrays are views of its point, and a
one-member plan's coalition flows are one shared read-only zero array.
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


@functools.lru_cache(maxsize=256)  # a run has one entry per member set and horizon
def _bounds(caps: bytes, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper bounds of every program of these member
    capacities (the bytes of their doubles, so -0.0 is not 0.0) and
    horizon, shared and read-only: storage deltas within ``[-cap, cap]``,
    levels within ``[0, cap]``, flows nonnegative."""
    cap = np.frombuffer(caps)[:, None]
    nm = len(cap)
    lower = np.zeros((nm, horizon, 6 if nm > 1 else 4))
    lower[:, :, 0] = -cap
    upper = np.full(lower.shape, np.inf)
    upper[:, :, :2] = cap[:, :, None]
    # flat copies, so a cache entry keeps no base arrays besides them
    lower, upper = lower.flatten(), upper.flatten()
    lower.flags.writeable = upper.flags.writeable = False
    return lower, upper


def _storage_bounds(ids, storage_init, storage_cap) -> tuple[np.ndarray, np.ndarray]:
    """The members' levels and capacities as arrays; a level outside
    ``[0, cap]`` raises ValueError naming the node."""
    s0 = np.asarray(storage_init, dtype=float).reshape(len(ids))
    caps = np.asarray(storage_cap, dtype=float).reshape(len(ids))
    for node, level, cap in zip(ids, s0.tolist(), caps.tolist()):
        if not 0.0 <= level <= cap:
            raise ValueError(f"node {node}: storage_init {level} outside [0, {cap}]")
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
    if nm > 1:
        cost[:, :, 4:] = TRANSFER_REG
    lower, upper = _bounds(caps.tobytes(), h)
    beq = np.zeros(aeq.shape[0])
    rhs = beq[:2 * nm * h].reshape(nm, h, 2)
    rhs[:, 0, 0] = s0
    np.subtract(slice_.generation, slice_.demand, out=rhs[:, :, 1])
    n = aeq.shape[1]
    return LinearProgram(objective=cost.reshape(n), eq_matrix=aeq, eq_rhs=beq,
                         ub_matrix=np.zeros((0, n)), ub_rhs=np.zeros(0),
                         lower=lower, upper=upper)


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


@dataclass
class PooledRows:
    """The subsets of two or more members of one block that
    ``_pooled_subsets`` priced, as arrays over its rows: ``index`` maps
    each subset's mask to its row, in increasing mask order.  Per row:
    the market cost, the loss cost, v(S) (``total``), the mean pairwise
    distance r(S), and the first-step cost that settlement splits, the grid
    money at step 0 plus ``rho * r(S) * sum_i cb[i,0]^2``.  ``crossed``
    lists the masks left out, whose tariffs cross.  :meth:`pricing` builds
    one subset's ``(breakdown, plan)`` on demand; its plan arrays are views
    of the batch's arrays for the subset's member count, to be treated as
    read-only."""

    members: tuple[int, ...]
    index: dict[int, int]
    market: np.ndarray
    loss: np.ndarray
    total: np.ndarray
    distance: np.ndarray
    first_step: np.ndarray
    crossed: list[int]
    plans: dict[int, tuple[np.ndarray, ...]]  # member count k -> (g, k, h) plan arrays
    count: np.ndarray  # each row's member count
    slot: np.ndarray   # and its index in that count's plan arrays

    def pricing(self, mask: int) -> tuple[CoalitionValueBreakdown, DispatchSolution]:
        """``(breakdown, plan)`` of the subset ``mask``; KeyError when the
        batch did not price it."""
        i = self.index[mask]
        j = int(self.slot[i])
        delta, levels, grid_buy, grid_sell, coal_buy, coal_sell = self.plans[int(self.count[i])]
        market = float(self.market[i])
        plan = DispatchSolution(
            members=tuple(a for a in self.members if mask >> a & 1),
            storage_delta=delta[j], storage_level=levels[j], grid_buy=grid_buy[j],
            grid_sell=grid_sell[j], coal_buy=coal_buy[j], coal_sell=coal_sell[j],
            market_cost=market, programs=0, phase1_pivots=0, phase2_pivots=0,
            phase1_replayed=0, phase2_replayed=0)
        return CoalitionValueBreakdown(
            market_cost=market, loss_cost=float(self.loss[i]), total=float(self.total[i]),
            mean_distance=float(self.distance[i])), plan


def _pooled_subsets(members, storage_levels, scenario: Scenario, slice_: HorizonSlice,
                    loss_weight: float, whole: bool = False) -> PooledRows:
    """Price every subset of two or more of ``members`` (sorted, distinct)
    as one pooled node, all subsets at once (MODEL.md sections 2 and 5);
    with ``whole``, only the subset of all the members (``coalition_value``).

    Bit i of a mask is set for agent i.  A subset whose tariffs cross at
    some step (``q_t >= p_t``) is left out; ``coalition_value`` raises its
    error.  The members' levels are the caller's to check: every subset
    holding a member is priced after that member alone, whose program
    refuses a level outside its capacity.

    Row r of the subset tables holds the members whose bits are set in r
    (bit j for ``members[j]``).  The rows with bit j as their highest are
    the rows below 2^j plus member j, so the summed need, capacity and level
    are the same additions, in member order, as a per-coalition loop makes,
    and the lowest buy and highest sell price keep their lowest-id holder.
    Both passes and the split then run on the rows priced only.  Each
    cost-to-go V_t is kept per row as segment starts and right slopes,
    padded with starts at C and slopes of +inf; every slope is a price or
    0, so every slope comparison is exact.  The forward pass takes the
    smallest minimizer at each step, which gives the lexicographically
    smallest least-cost level path, with Python's ``max`` tie rules.
    """
    ids = tuple(members)
    hs = slice_.select(ids)
    net = hs.demand - hs.generation
    s0 = np.asarray(storage_levels, dtype=float)[list(ids)]
    caps = np.array([scenario.nodes[i].storage_capacity for i in ids], dtype=float)
    n, h = len(ids), hs.horizon

    # subset tables, doubled over the members in increasing id
    size = 1 << n
    need = np.zeros((size, h))
    capacity = np.zeros(size)
    level = np.zeros(size)
    count = np.zeros(size, dtype=int)
    p = np.full((size, h), np.inf)   # lowest buy price
    buyer = np.zeros((size, h), dtype=int)  # its holder's slot among the row's members
    q = np.full((size, h), -np.inf)  # highest sell price
    seller = np.zeros((size, h), dtype=int)
    masks = [0]
    for j, agent in enumerate(ids):
        base, top = slice(0, 1 << j), slice(1 << j, 2 << j)
        need[top] = need[base] + net[j]
        capacity[top] = capacity[base] + caps[j]
        level[top] = level[base] + s0[j]
        count[top] = count[base] + 1
        cheaper = hs.buy_price[j] < p[base]
        p[top] = np.where(cheaper, hs.buy_price[j], p[base])
        buyer[top] = np.where(cheaper, count[base, None], buyer[base])
        dearer = hs.sell_price[j] > q[base]
        q[top] = np.where(dearer, hs.sell_price[j], q[base])
        seller[top] = np.where(dearer, count[base, None], seller[base])
        masks += [mask | 1 << agent for mask in masks]
    rows = np.array([size - 1]) if whole else np.flatnonzero(count >= 2)
    crossed = (q[rows] >= p[rows]).any(axis=1)
    left_out = [masks[r] for r in rows[crossed].tolist()]
    rows = rows[~crossed]
    need, capacity, level, count = need[rows], capacity[rows], level[rows], count[rows]
    p, q, buyer, seller = p[rows], q[rows], buyer[rows], seller[rows]
    m = len(rows)
    positions = tuple(tuple(scenario.nodes[i].position) for i in ids)
    distance = (np.full(m, _mean_distance(positions)) if whole
                else _subset_distances(positions)[rows])

    # backward: a_t and b_t are the smallest levels where V_{t+1}'s right
    # slope reaches -p_t and -q_t (C if it never does); V_t is V_{t+1}
    # between them, with rays of slope -p_t below and -q_t above, at the
    # level less need_t, restricted to [0, C].  V_t has at most 2h - 1
    # segments, so every row keeps a padded slot.
    width = 2 * h
    cols, each = np.arange(width), np.arange(m)
    starts = np.repeat(capacity[:, None], width, axis=1)
    starts[:, 0] = 0.0
    slopes = np.full((m, width), np.inf)
    slopes[:, 0] = 0.0  # V_h = 0
    a, b = np.empty((m, h)), np.empty((m, h))
    for t in reversed(range(h)):
        buy, sell = -p[:, t, None], -q[:, t, None]
        j = (slopes >= sell).argmax(axis=1)
        a[:, t] = starts[each, (slopes >= buy).argmax(axis=1)]
        b[:, t] = starts[each, j]
        if t:
            # candidates: the segments from the first with a slope above
            # -p_t up to b_t, which gets slope -q_t, at the level less need_t
            first = (slopes > buy).argmax(axis=1)
            x = starts + need[:, t, None]
            slope = slopes.copy()
            slope[each, j] = sell[:, 0]
            live = (cols >= first[:, None]) & (cols <= j[:, None])
            # both sets are prefixes of the candidates, as x is nondecreasing
            lo = first + (live & (x <= 0.0)).sum(axis=1)
            hi = first + (live & (x < capacity[:, None])).sum(axis=1)
            # V_t is [0] + candidates[lo:hi], its first slope the last one
            # cut off below 0, or -p_t
            src = lo[:, None] + cols[:-1]
            keep = src < hi[:, None]
            src = np.minimum(src, width - 1)
            starts = np.empty_like(starts)
            starts[:, 0] = 0.0
            starts[:, 1:] = np.where(keep, x[each[:, None], src], capacity[:, None])
            slopes = np.empty_like(slopes)
            slopes[:, 0] = np.where(lo > first, slope[each, np.maximum(lo - 1, 0)], buy[:, 0])
            slopes[:, 1:] = np.where(keep, slope[each[:, None], src], np.inf)

    # forward: the smallest minimizer at each step
    path, bought, sold = np.empty((m, h)), np.empty((m, h)), np.empty((m, h))
    s = level
    for t in range(h):
        z = s - need[:, t]  # the level with no grid trade
        s = np.where(b[:, t] < z, b[:, t], np.where(a[:, t] > z, a[:, t], z))
        path[:, t] = s
        d = s - z
        bought[:, t] = np.where(d > 0.0, d, 0.0)
        d = z - s
        sold[:, t] = np.where(d > 0.0, d, 0.0)

    # split and price, one group of rows per member count; each row's
    # sums over the horizon run over one contiguous (member, step) row,
    # and its first-step grid money member by member from 0.0, in member
    # order, as a per-coalition loop adds them
    market, squares, first_step = np.empty(m), np.empty(m), np.empty(m)
    slot = np.empty(m, dtype=int)
    plans = {}
    steps = np.arange(h)
    for k in range(2, n + 1):
        group = np.flatnonzero(count == k)
        if not len(group):
            continue
        g = len(group)
        slot[group] = np.arange(g)
        local = np.nonzero((rows[group, None] >> np.arange(n)) & 1)[1].reshape(g, k)
        pool = capacity[group, None]  # a pool of no capacity has levels 0 throughout
        share = np.divide(caps[local], pool, out=np.zeros((g, k)), where=pool != 0.0)
        levels = share[:, :, None] * path[group, None, :]
        delta = np.diff(levels, axis=2, prepend=s0[local][:, :, None])
        grid_buy = np.zeros_like(levels)
        grid_buy[np.arange(g)[:, None], buyer[group], steps] = bought[group]
        grid_sell = np.zeros_like(levels)
        grid_sell[np.arange(g)[:, None], seller[group], steps] = sold[group]
        member_need = net[local] + delta + grid_sell - grid_buy
        coal_buy = np.maximum(member_need, 0.0)
        coal_sell = np.maximum(-member_need, 0.0)
        market[group] = (hs.buy_price[local] * grid_buy
                         - hs.sell_price[local] * grid_sell).reshape(g, -1).sum(axis=1)
        squares[group] = (coal_buy ** 2).reshape(g, -1).sum(axis=1)
        money = (hs.buy_price[local, 0] * grid_buy[:, :, 0]
                 - hs.sell_price[local, 0] * grid_sell[:, :, 0])
        cost = np.zeros(g)
        for i in range(k):
            cost += money[:, i]
        if loss_weight:
            cost += loss_weight * distance[group] * (coal_buy[:, :, 0] ** 2).sum(axis=1)
        first_step[group] = cost
        plans[k] = delta, levels, grid_buy, grid_sell, coal_buy, coal_sell
    loss = loss_weight * distance * squares
    priced = [masks[r] for r in rows.tolist()]
    return PooledRows(members=ids, index=dict(zip(priced, range(m))), market=market,
                      loss=loss, total=market + loss, distance=distance,
                      first_step=first_step, crossed=left_out, plans=plans,
                      count=count, slot=slot)


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


@functools.lru_cache(maxsize=256)  # a block of n members keeps 2^n floats
def _subset_distances(positions: tuple) -> np.ndarray:
    """:func:`_mean_distance` of every subset of ``positions`` as one
    read-only array, row r for the positions whose bits are set in r (0
    below two), made once per block: runs price the same blocks again."""
    out = np.zeros(1 << len(positions))
    for r in range(len(out)):
        subset = tuple(place for j, place in enumerate(positions) if r >> j & 1)
        if len(subset) > 1:
            out[r] = _mean_distance(subset)
    out.flags.writeable = False
    return out


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
    caps = [scenario.nodes[i].storage_capacity for i in members]
    if len(members) == 1:
        sol = solve_individual_dispatch(slice_.select(members), float(storage[members[0]]),
                                        float(caps[0]))
        return CoalitionValueBreakdown(sol.market_cost, 0.0, sol.market_cost, 0.0), sol
    _storage_bounds(members, storage[list(members)], caps)
    # the batch over the coalition's subsets, on its full-mask row only
    priced = _pooled_subsets(members, storage, scenario, slice_, loss_weight, whole=True)
    if priced.crossed:
        raise _dispatch_failure(slice_.select(members), LpStatus.UNBOUNDED)
    return priced.pricing(sum(1 << i for i in members))
