"""Independent checkers for the numerical core.

The brute-force oracles share no code with the implementations they
audit: the LP oracle enumerates candidate vertices directly, the Shapley
oracle averages marginal contributions over every join order, and the
structure oracle enumerates partitions by recursive insertion rather than
growth strings.  They only scale to toy sizes, which is the point.

The pooled-program oracle shares the LP solver but not the formulation:
it prices a coalition's grid money on one pooled node instead of the
per-member dispatch program, so agreement certifies that the coalition
program's answer is optimal, not merely reproducible.  The lexicographic
oracle goes the other way: it finds the least-cost pooled level path on
the per-member program, which the pooled recursion of
``dispatch.coalition_value`` never solves.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from .dispatch import build_coalition_lp
from .lp import LinearProgram, LpSolution, LpStatus, make_program, solve_lp
from .scenario import HorizonSlice, Scenario

_ORACLE_FEAS_TOL = 1e-9


def brute_force_lp(problem: LinearProgram) -> LpSolution:
    """Minimize by enumerating basic points of a fully box-bounded program.

    Every candidate point is the solution of ``n`` active constraints
    chosen among the equality rows (always active), the <= rows, and the
    variable bounds.  Requires finite bounds on every variable so the
    feasible set is a polytope and the optimum sits on a vertex.
    """
    c = np.asarray(problem.objective, dtype=float)
    n = c.size
    lo = np.asarray(problem.lower, dtype=float)
    hi = np.asarray(problem.upper, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("vertex enumeration needs finite bounds on all variables")
    aeq = np.asarray(problem.eq_matrix, dtype=float)
    beq = np.asarray(problem.eq_rhs, dtype=float)
    aub = np.asarray(problem.ub_matrix, dtype=float)
    bub = np.asarray(problem.ub_rhs, dtype=float)
    me = aeq.shape[0]

    candidates: list[tuple[np.ndarray, float]] = []
    for i in range(aub.shape[0]):
        candidates.append((aub[i], float(bub[i])))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        candidates.append((e, float(lo[j])))
        candidates.append((e.copy(), float(hi[j])))

    def feasible(x: np.ndarray) -> bool:
        if np.any(x < lo - _ORACLE_FEAS_TOL) or np.any(x > hi + _ORACLE_FEAS_TOL):
            return False
        if me and np.max(np.abs(aeq @ x - beq)) > _ORACLE_FEAS_TOL:
            return False
        if aub.shape[0] and np.max(aub @ x - bub) > _ORACLE_FEAS_TOL:
            return False
        return True

    need = n - me
    best_obj = None
    best_x = None
    if need < 0:
        return LpSolution(LpStatus.INFEASIBLE, None, None)
    for chosen in itertools.combinations(range(len(candidates)), need):
        rows = [aeq[i] for i in range(me)] + [candidates[i][0] for i in chosen]
        rhs = [beq[i] for i in range(me)] + [candidates[i][1] for i in chosen]
        mat = np.array(rows, dtype=float).reshape(n, n)
        try:
            x = np.linalg.solve(mat, np.array(rhs, dtype=float))
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not feasible(x):
            continue
        obj = float(c @ x)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_x = x
    if best_obj is None:
        return LpSolution(LpStatus.INFEASIBLE, None, None)
    return LpSolution(LpStatus.OPTIMAL, best_x, best_obj)


def pooled_market_cost(members, storage, scenario: Scenario, slice_: HorizonSlice) -> float:
    """Grid money of a coalition over the slice, priced as one pooled node.

    Internal transfers are free and every sell price stays below every buy
    price, so at an optimum the coalition buys at the step's lowest member
    buy price and sells at its highest member sell price, and any pooled
    storage path within the summed capacity splits into member paths.  The
    program has one storage level, purchase and sale per step, with the
    members' summed demand, generation, capacity and initial level
    (``storage`` holds every node's level); the level bounds imply the
    per-step storage change bounds.
    """
    members = sorted(members)
    hs = slice_.select(members)
    h = hs.horizon
    cap = sum(scenario.nodes[i].storage_capacity for i in members)
    s0 = float(np.sum(np.asarray(storage, dtype=float)[members]))
    # per step t: level s_t, purchase, sale, with
    # s_t - s_{t-1} - purchase + sale = generation - demand
    cost = np.zeros(3 * h)
    cost[1::3] = hs.buy_price.min(axis=0)
    cost[2::3] = -hs.sell_price.max(axis=0)
    aeq = np.zeros((h, 3 * h))
    for t in range(h):
        aeq[t, 3 * t:3 * t + 3] = (1.0, -1.0, 1.0)
        if t:
            aeq[t, 3 * (t - 1)] = -1.0
    beq = hs.generation.sum(axis=0) - hs.demand.sum(axis=0)
    beq[0] += s0
    upper = np.full(3 * h, np.inf)
    upper[0::3] = cap
    sol = solve_lp(make_program(cost, aeq, beq, lower=np.zeros(3 * h), upper=upper))
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"pooled program for {tuple(members)} is {sol.status.value}")
    return sol.objective_value


def lexicographic_pooled_levels(slice_: HorizonSlice, storage_init,
                                storage_cap) -> tuple[float, list[float]]:
    """A coalition's least grid money and, among its least-cost plans, the
    lexicographically smallest path of summed member levels, on the
    per-member dispatch program.

    ``dispatch.build_coalition_lp`` without its volume regularizer is
    solved for the least grid money.  Then, with the grid money held at
    that least and each earlier step's summed level at the least found for
    it, each step's summed level is minimized in turn: h + 1 programs.
    The held values are the bounds themselves, so the solver's feasibility
    tolerance is the only slack; a relative slack of 1e-14 on the grid
    money makes Bland's rule cycle on some reference coalitions.
    """
    problem = build_coalition_lp(slice_, storage_init, storage_cap)
    shape = (len(slice_.node_ids), slice_.horizon, -1)
    money = problem.objective.reshape(shape).copy()
    money[:, :, 4:] = 0.0  # the internal-market flows carry no grid money
    money = money.reshape(-1)
    least = _solved(replace(problem, objective=money))
    rows, bounds, levels = [money], [least], []
    for t in range(slice_.horizon):
        summed = np.zeros_like(problem.objective).reshape(shape)
        summed[:, t, 1] = 1.0  # the members' levels after step t
        summed = summed.reshape(-1)
        levels.append(_solved(replace(problem, objective=summed, ub_matrix=np.array(rows),
                                      ub_rhs=np.array(bounds))))
        rows.append(summed)
        bounds.append(levels[-1])
    return least, levels


def _solved(problem: LinearProgram) -> float:
    sol = solve_lp(problem)
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"lexicographic program is {sol.status.value}")
    return sol.objective_value


def permutation_shapley(values, members) -> np.ndarray:
    """Shapley shares as the plain average of marginal costs over all join
    orders; the empty coalition is worth 0."""
    members = tuple(sorted(members))
    m = len(members)
    shares = {i: 0.0 for i in members}
    for order in itertools.permutations(members):
        mask = 0
        prev = 0.0
        for agent in order:
            mask |= 1 << agent
            cur = values[mask]
            shares[agent] += cur - prev
            prev = cur
    total = math.factorial(m)
    return np.array([shares[i] / total for i in members])


def _partitions_by_insertion(items: list[int]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions_by_insertion(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def best_partition_by_enumeration(values, n: int) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Cheapest coalition structure by direct enumeration (insertion method).

    Returns the canonical block tuple and its aggregate cost.
    """
    best_value = None
    best_blocks = None
    for part in _partitions_by_insertion(list(range(n))):
        total = 0.0
        for block in part:
            mask = 0
            for i in block:
                mask |= 1 << i
            total += values[mask]
        if best_value is None or total < best_value:
            best_value = total
            blocks = tuple(sorted(tuple(sorted(b)) for b in part))
            best_blocks = blocks
    return best_blocks, best_value


def random_box_lp(rng: np.random.Generator, max_vars: int = 4,
                  max_eq: int = 2, max_ub: int = 4) -> LinearProgram:
    """Random fully-bounded program for oracle comparisons.

    Constraints are anchored on a random interior point so most instances
    are feasible, with a fraction left intentionally infeasible.
    """
    n = int(rng.integers(1, max_vars + 1))
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 4.0, n)
    c = rng.uniform(-2.0, 2.0, n)
    anchor = rng.uniform(lo, hi)

    me = int(rng.integers(0, min(max_eq, n - 1) + 1)) if n > 1 else 0
    aeq = rng.uniform(-1.0, 1.0, (me, n))
    if rng.uniform() < 0.85:
        beq = aeq @ anchor
    else:
        beq = rng.uniform(-3.0, 3.0, me)

    mu = int(rng.integers(0, max_ub + 1))
    aub = rng.uniform(-1.0, 1.0, (mu, n))
    slack = rng.uniform(0.0, 2.0, mu)
    if rng.uniform() < 0.9:
        bub = aub @ anchor + slack
    else:
        bub = aub @ anchor - rng.uniform(0.5, 2.0, mu)

    return make_program(c, aeq, beq, aub, bub, lower=lo, upper=hi)


def random_cost_game(rng: np.random.Generator, n: int) -> dict[int, float]:
    """Random characteristic cost function over all nonempty subsets of n agents."""
    return {mask: float(rng.uniform(-5.0, 5.0)) for mask in range(1, 1 << n)}
