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

One call of the recursion prices every subset of two or more members of
every block of a step (``_pooled_subsets``): a block's tables are built
by doubling over its members, and both passes and the split run once over
the rows of all blocks.  It hands v(S) and first-step costs over as
arrays (:class:`PooledRows`) and makes a subset's ``(breakdown, plan)``
only on demand; ``coalition_value`` runs it on the whole coalition only.
What depends only on the blocks is made once per blocks, not per step
(``_layout``): which subsets are rows, with their masks and member counts,
and the split's (row, member) pairs and per-count groups.  A run prices
the same blocks at step after step (the reference day's one block of
eight at all 17 steps), so a call is left with the step's arithmetic.
The subsets left out because their tariffs cross are part of the key, so
a world that fails validation takes the same path.  The cache is bounded
at 128 layouts; a layout of blocks B holds O(sum |B| 2^|B|) integers,
about 60 kB for one block of eight.

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
    """The subsets of two or more members of a step's blocks that
    ``_pooled_subsets`` priced: ``index`` maps each mask to its row.  Per
    row: market and loss cost, v(S) (``total``), the mean pairwise distance
    r(S), the first-step cost that settlement splits (grid money at step 0
    plus ``rho * r(S) * sum_i cb[i,0]^2``), the member count and its first
    (row, member) pair in ``plans``.  ``crossed`` lists the masks left out,
    whose tariffs cross.  Plans are views of ``plans``, and ``count`` and
    ``first`` are the cached layout's arrays: all are to be read only."""

    index: dict[int, int]
    market: np.ndarray
    loss: np.ndarray
    total: np.ndarray
    distance: np.ndarray
    first_step: np.ndarray
    count: np.ndarray
    first: np.ndarray
    plans: tuple[np.ndarray, ...]  # (pair, horizon): DispatchSolution's six arrays, in order
    crossed: list[int]

    def pricing(self, mask: int) -> tuple[CoalitionValueBreakdown, DispatchSolution]:
        """``(breakdown, plan)`` of the subset ``mask``; KeyError when the
        batch did not price it."""
        i = self.index[mask]
        pairs = slice(int(self.first[i]), int(self.first[i] + self.count[i]))
        members = tuple(a for a in range(mask.bit_length()) if mask >> a & 1)
        market = float(self.market[i])
        plan = DispatchSolution(members, *(a[pairs] for a in self.plans), market_cost=market,
                                programs=0, phase1_pivots=0, phase2_pivots=0,
                                phase1_replayed=0, phase2_replayed=0)
        return CoalitionValueBreakdown(
            market_cost=market, loss_cost=float(self.loss[i]), total=float(self.total[i]),
            mean_distance=float(self.distance[i])), plan


def _least_cost_paths(need, capacity, level, best) -> tuple[np.ndarray, ...]:
    """Each row's pooled level path, grid purchases and sales, from its
    need, capacity C, level and prices (``best``: p_t, then -q_t).  V_t is
    kept as segment starts and right slopes, padded with starts at C and
    slopes of +inf; every slope is a price or 0, so every comparison is
    exact.  The forward pass takes the smallest minimizer at each step: the
    lexicographically smallest least-cost path, with ``max``'s tie rules."""
    m, h = need.shape
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
        buy, sell = -best[:, t, None], best[:, h + t, None]
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
    return path, bought, sold


@dataclass(frozen=True)
class _Layout:
    """What a pooled batch takes from its blocks' structure alone, made once
    per key by :func:`_layout`; its arrays are read-only.  The rows are the
    subsets priced, blocks in order and masks increasing within a block;
    the (row, member) pairs are ordered by member count, then row, then
    member, so the rows of k members are one contiguous (rows, k) run."""

    masks: tuple[int, ...]  # each row's coalition mask
    index: dict[int, int]   # mask -> row; PooledRows gets a copy
    take: np.ndarray        # each row's slot among the stacked tables of every subset
    count: np.ndarray       # members per row
    first: np.ndarray       # each row's first pair
    row: np.ndarray         # per pair: its row
    member: np.ndarray      # per pair: the member's slot among the blocks' agents
    rank: np.ndarray        # per pair, a column: the member's slot among its row's
    widest: int             # the largest member count
    # per member count k that has rows: k, how many rows, which, and their pairs
    groups: tuple[tuple[int, int, np.ndarray, slice], ...]


@functools.lru_cache(maxsize=128)  # a layout of blocks B holds O(sum |B| 2^|B|) integers
def _layout(blocks: tuple[tuple[int, ...], ...], whole: bool,
            crossed: tuple[int, ...]) -> _Layout:
    """The rows and (row, member) pairs of a pooled batch over ``blocks``
    (sorted, disjoint, of two or more members): every subset of two or
    more members of each block, or with ``whole`` the one block's whole
    coalition, less the masks in ``crossed``, which the batch leaves out.
    A run prices the same blocks at step after step, so this is built once
    per blocks and subsets left out, not per step."""
    masks, take, local_rows, offsets, left_out = [], [], [], [], set(crossed)
    start = offset = 0  # the block's first stacked table row and first agent slot
    for block in blocks:
        local = [0]  # row r's mask, bit j of r for the block's j-th member
        for agent in block:
            local += [mask | 1 << agent for mask in local]
        size = len(local)
        rows = [size - 1] if whole else [r for r in range(size) if r.bit_count() > 1]
        rows = [r for r in rows if local[r] not in left_out]
        masks += [local[r] for r in rows]
        take += [start + r for r in rows]
        local_rows += rows
        offsets += [offset] * len(rows)
        start, offset = start + size, offset + len(block)
    m = len(masks)
    rows, offsets = np.array(local_rows, dtype=int), np.array(offsets, dtype=int)
    count = np.array([r.bit_count() for r in local_rows], dtype=int)
    widest = int(count.max(initial=0))
    counts = np.arange(widest + 1)[:, None] == count
    order = np.nonzero(counts)[1]
    first = np.empty(m, dtype=int)
    first[order] = np.cumsum(count[order]) - count[order]
    row, slot = np.nonzero((rows[order, None] >> np.arange(widest)) & 1)
    row = order[row]
    member = offsets[row] + slot
    rank = (np.arange(len(row)) - first[row])[:, None]
    take = np.array(take, dtype=int)
    for a in (take, count, first, row, member, rank, order):
        a.flags.writeable = False
    groups, lo, at = [], 0, 0
    for k, g in enumerate(counts.sum(axis=1).tolist()):
        if g:
            groups.append((k, g, order[lo:lo + g], slice(at, at + k * g)))
            lo, at = lo + g, at + k * g
    return _Layout(masks=tuple(masks), index=dict(zip(masks, range(m))), take=take,
                   count=count, first=first, row=row, member=member, rank=rank,
                   widest=widest, groups=tuple(groups))


def _pooled_subsets(blocks, storage_levels, scenario: Scenario, slice_: HorizonSlice,
                    loss_weight: float, whole: bool = False) -> PooledRows:
    """Price every subset of two or more members of each of ``blocks``
    (sorted, disjoint) as one pooled node, all at once (MODEL.md sections 2
    and 5); with ``whole``, only the one block's whole coalition.

    Bit i of a mask is set for agent i.  A subset whose tariffs cross at
    some step (``q_t >= p_t``) is left out; ``coalition_value`` raises its
    error.  The levels are the caller's to check: every subset holding a
    member is priced after that member alone, whose program refuses a
    level outside its capacity.

    Row r of a block's tables holds the members whose bits are set in r
    (bit j for its j-th member).  The rows with bit j as their highest are
    the rows below 2^j plus member j, so the summed need, capacity and
    level are the same additions, in member order, as a per-coalition loop
    makes, and the lowest buy and highest sell price keep their lowest-id
    holder.  The rows are stacked block after block; the passes and the
    split work row by row, so stacking changes no bit of a row.  Which rows
    are priced and how the split pairs them with members come from the
    blocks' cached :func:`_layout`.
    """
    # Python ints, as the blocks key the layout cache and make its masks
    blocks = tuple(tuple(int(i) for i in block) for block in blocks if len(block) > 1)
    ids = [i for block in blocks for i in block]
    hs = slice_.select(ids)
    net = hs.demand - hs.generation
    s0 = np.asarray(storage_levels, dtype=float)[ids]
    caps = np.array([scenario.nodes[i].storage_capacity for i in ids], dtype=float)
    h = hs.horizon

    # every subset's tables, doubled over each block's members in
    # increasing id and stacked block after block: per row the summed
    # need, capacity, level and member count, and p_t and -q_t, each with
    # its holder's slot among the row's members
    own = np.column_stack([net, caps, s0, np.ones(len(ids))])
    prices = np.concatenate([hs.buy_price, -hs.sell_price], axis=1)
    size = sum(1 << len(block) for block in blocks)
    sums = np.zeros((size, h + 3))
    best = np.full((size, 2 * h), np.inf)
    holder = np.zeros((size, 2 * h))
    distance, start, at = [], 0, 0
    for block in blocks:
        for j in range(len(block)):
            base, top = slice(start, start + (1 << j)), slice(start + (1 << j), start + (2 << j))
            sums[top] = sums[base] + own[at]
            better = prices[at] < best[base]
            best[top] = np.where(better, prices[at], best[base])
            holder[top] = np.where(better, sums[base, h + 2, None], holder[base])
            at += 1
        positions = tuple(tuple(scenario.nodes[i].position) for i in block)
        distance.append(np.full(1 << len(block), _mean_distance(positions)) if whole
                        else _subset_distances(positions))
        start += 1 << len(block)
    distance = np.concatenate(distance)
    layout = _layout(blocks, whole, ())  # no subset left out yet
    candidates = best[layout.take]
    crossed = (-candidates[:, h:] >= candidates[:, :h]).any(axis=1)
    left_out = [layout.masks[r] for r in np.flatnonzero(crossed).tolist()]
    if left_out:
        layout = _layout(blocks, whole, tuple(left_out))
    take = layout.take
    sums, best, holder, distance = sums[take], best[take], holder[take], distance[take]
    capacity, m = sums[:, h], len(take)
    path, bought, sold = _least_cost_paths(sums[:, :h], capacity, sums[:, h + 1], best)

    # split, on the layout's (row, member) pairs
    row, member, rank = layout.row, layout.member, layout.rank
    pool = capacity[row]  # a pool of no capacity has levels 0 throughout
    share = np.divide(caps[member], pool, out=np.zeros(len(row)), where=pool != 0.0)
    levels = share[:, None] * path[row]
    delta = np.diff(levels, axis=1, prepend=s0[member][:, None])
    grid_buy = np.where(rank == holder[row, :h], bought[row], 0.0)
    grid_sell = np.where(rank == holder[row, h:], sold[row], 0.0)
    member_need = net[member] + delta + grid_sell - grid_buy
    coal_sell = np.maximum(-member_need, 0.0)
    coal_buy = np.maximum(member_need, 0.0, out=member_need)
    money = hs.buy_price[member] * grid_buy - hs.sell_price[member] * grid_sell
    squared = coal_buy ** 2
    squared_now = squared[:, 0].copy()
    # each row's sums run over its contiguous (member, step) cells, and its
    # first-step coalition purchases over its k members, per member count
    market, squares, bought_now = np.empty(m), np.empty(m), np.empty(m)
    for k, g, group, pairs in layout.groups:
        market[group] = money[pairs].reshape(g, -1).sum(axis=1)
        squares[group] = squared[pairs].reshape(g, -1).sum(axis=1)
        bought_now[group] = squared_now[pairs].reshape(g, k).sum(axis=1)
    # the first-step grid money member by member from 0.0, in member order,
    # as a per-coalition loop adds them; +0.0 pads a row past its members
    table = np.zeros((layout.widest, m))
    table[rank[:, 0], row] = money[:, 0]
    first_step = sum(table, np.zeros(m))
    if loss_weight:
        first_step += loss_weight * distance * bought_now
    loss = loss_weight * distance * squares
    return PooledRows(index=dict(layout.index), market=market, loss=loss,
                      total=market + loss, distance=distance, first_step=first_step,
                      count=layout.count, first=layout.first,
                      plans=(delta, levels, grid_buy, grid_sell, coal_buy, coal_sell),
                      crossed=left_out)


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
    priced = _pooled_subsets([members], storage, scenario, slice_, loss_weight, whole=True)
    if priced.crossed:
        raise _dispatch_failure(slice_.select(members), LpStatus.UNBOUNDED)
    return priced.pricing(sum(1 << i for i in members))
