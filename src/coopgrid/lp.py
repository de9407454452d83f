"""Dense linear programming in canonical form.

The canonical shape used throughout this package is: minimize ``c @ x``
subject to ``A_eq @ x == b_eq``, ``A_ub @ x <= b_ub`` and box bounds
``lower <= x <= upper``.  Upper bounds may be ``+inf``; lower bounds must
be finite.

The solver is a two-phase primal simplex on a dense tableau with Bland's
smallest-index pivoting rule.  Bland's rule needs more pivots than the
usual heuristics, but it cannot cycle and it makes every solve bitwise
reproducible, which the simulation layer relies on.  Problem sizes here
stay in the low hundreds of variables, where dense tableau updates are
cheap.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import LpValidationError

PIVOT_TOL = 1e-10  # pivot / reduced-cost eligibility threshold
FEAS_TOL = 1e-8    # phase-1 residual above which the program is declared infeasible


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """Canonical-form program; treat instances as immutable once built."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def n_vars(self) -> int:
        return int(np.asarray(self.objective).size)


@dataclass
class LpSolution:
    """Solve outcome; ``point`` and ``objective_value`` are None unless optimal."""

    status: LpStatus
    point: np.ndarray | None
    objective_value: float | None


def _as_matrix(m, n: int) -> np.ndarray:
    if m is None:
        return np.zeros((0, n))
    arr = np.asarray(m, dtype=float)
    if arr.size == 0:
        return np.zeros((0, n))
    return np.atleast_2d(arr)


def _as_vector(v) -> np.ndarray:
    if v is None:
        return np.zeros(0)
    return np.asarray(v, dtype=float).reshape(-1)


def make_program(objective, eq_matrix=None, eq_rhs=None, ub_matrix=None,
                 ub_rhs=None, lower=None, upper=None) -> LinearProgram:
    """Assemble a :class:`LinearProgram` from array-likes, filling empty parts.

    ``lower`` defaults to 0 and ``upper`` to +inf for every variable.
    """
    c = np.asarray(objective, dtype=float).reshape(-1)
    n = c.size
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).reshape(-1)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).reshape(-1)
    return LinearProgram(
        objective=c,
        eq_matrix=_as_matrix(eq_matrix, n),
        eq_rhs=_as_vector(eq_rhs),
        ub_matrix=_as_matrix(ub_matrix, n),
        ub_rhs=_as_vector(ub_rhs),
        lower=lo,
        upper=hi,
    )


def validate_lp(problem: LinearProgram) -> list[str]:
    """Return a list of structural violations; empty when the program is well formed."""
    issues: list[str] = []
    c = np.asarray(problem.objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        issues.append("objective must be a nonempty 1-d vector")
        return issues
    n = c.size
    if not np.all(np.isfinite(c)):
        issues.append("objective contains non-finite entries")

    for label, mat, rhs in (("eq", problem.eq_matrix, problem.eq_rhs),
                            ("ub", problem.ub_matrix, problem.ub_rhs)):
        m = np.asarray(mat, dtype=float)
        r = np.asarray(rhs, dtype=float)
        if m.ndim != 2:
            issues.append(f"{label}_matrix must be 2-d")
            continue
        if m.shape[0] and m.shape[1] != n:
            issues.append(f"{label}_matrix has {m.shape[1]} columns, expected {n}")
        if r.ndim != 1 or r.size != m.shape[0]:
            issues.append(f"{label}_rhs length {r.size} does not match "
                          f"{label}_matrix row count {m.shape[0]}")
        if m.size and not np.all(np.isfinite(m)):
            issues.append(f"{label}_matrix contains non-finite entries")
        if r.size and not np.all(np.isfinite(r)):
            issues.append(f"{label}_rhs contains non-finite entries")

    lo = np.asarray(problem.lower, dtype=float)
    hi = np.asarray(problem.upper, dtype=float)
    if lo.size != n:
        issues.append(f"lower bound length {lo.size} does not match {n} variables")
    if hi.size != n:
        issues.append(f"upper bound length {hi.size} does not match {n} variables")
    if lo.size == n and hi.size == n:
        if not np.all(np.isfinite(lo)):
            issues.append("lower bounds must all be finite")
        if np.any(np.isnan(hi)) or np.any(np.isneginf(hi)):
            issues.append("upper bounds must be finite or +inf")
        crossed = np.flatnonzero(lo > hi)
        for j in crossed:
            issues.append(f"crossed bounds at variable {j}: lower {lo[j]} > upper {hi[j]}")
    return issues


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int,
           buf: np.ndarray) -> None:
    t[row, :] /= t[row, col]
    np.multiply(t[:, col:col + 1], t[row:row + 1, :], out=buf)
    buf[row, :] = 0.0
    t -= buf
    # keep the basic column an exact unit vector to limit drift
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def _pivot_until_optimal(t: np.ndarray, basis: np.ndarray, limit: int,
                         buf: np.ndarray) -> str:
    """Run Bland-rule pivots until no reduced cost is negative.

    ``limit`` is the number of leftmost columns eligible to enter (it
    excludes the rhs column).
    """
    m = t.shape[0] - 1
    max_iter = 2000 + 200 * (m + limit)
    for _ in range(max_iter):
        neg = np.flatnonzero(t[m, :limit] < -PIVOT_TOL)
        if neg.size == 0:
            return "optimal"
        enter = int(neg[0])  # Bland: smallest eligible index
        col = t[:m, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded"
        ratios = t[rows, -1] / col[rows]
        rmin = ratios.min()
        tie = rows[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        leave = int(tie[np.argmin(basis[tie])])  # Bland tie-break: smallest basic index
        _pivot(t, basis, leave, enter, buf)
    raise ArithmeticError("simplex iteration limit exceeded")


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve a canonical-form program.

    Returns INFEASIBLE / UNBOUNDED statuses instead of raising; malformed
    dimensions raise :class:`LpValidationError` before any arithmetic.
    Identical inputs produce bitwise-identical outputs.
    """
    issues = validate_lp(problem)
    if issues:
        raise LpValidationError("invalid linear program: " + "; ".join(issues))

    c = np.asarray(problem.objective, dtype=float)
    n = c.size
    lo = np.asarray(problem.lower, dtype=float)
    hi = np.asarray(problem.upper, dtype=float)
    aeq = np.asarray(problem.eq_matrix, dtype=float)
    beq = np.asarray(problem.eq_rhs, dtype=float)
    aub = np.asarray(problem.ub_matrix, dtype=float)
    bub = np.asarray(problem.ub_rhs, dtype=float)
    me, mu = aeq.shape[0], aub.shape[0]

    # shift to y = x - lower >= 0; finite upper bounds become extra rows
    span = hi - lo
    bounded = np.flatnonzero(np.isfinite(span))
    nb = bounded.size
    m = me + mu + nb
    ncols = n + mu + nb

    a = np.zeros((m, ncols))
    b = np.zeros(m)
    if me:
        a[:me, :n] = aeq
        b[:me] = beq - aeq @ lo
    if mu:
        a[me:me + mu, :n] = aub
        a[me:me + mu, n:n + mu] = np.eye(mu)
        b[me:me + mu] = bub - aub @ lo
    for r, j in enumerate(bounded):
        a[me + mu + r, j] = 1.0
        a[me + mu + r, n + mu + r] = 1.0
        b[me + mu + r] = span[j]

    negative = b < 0
    if np.any(negative):
        a[negative] = -a[negative]
        b[negative] = -b[negative]

    # crash basis: any column whose only nonzero entry is positive can seed
    # its row's basis after scaling that row (slack columns are the common
    # case, one-sided flow variables the useful one); artificials elsewhere
    basis = np.full(m, -1, dtype=np.int64)
    singleton = np.flatnonzero((a != 0.0).sum(axis=0) == 1)
    for j in singleton:
        i = int(np.flatnonzero(a[:, j])[0])
        if basis[i] == -1 and a[i, j] > 0.0:
            if a[i, j] != 1.0:
                b[i] /= a[i, j]
                a[i, :] /= a[i, j]
            basis[i] = j
    art_rows = [i for i in range(m) if basis[i] == -1]
    nart = len(art_rows)

    t = np.zeros((m + 1, ncols + nart + 1))
    t[:m, :ncols] = a
    t[:m, -1] = b
    for pos, i in enumerate(art_rows):
        t[i, ncols + pos] = 1.0
        basis[i] = ncols + pos

    if nart:
        # phase 1: minimize the sum of artificial variables
        buf = np.empty_like(t)
        t[m, ncols:ncols + nart] = 1.0
        for i in art_rows:
            t[m, :] -= t[i, :]
        if _pivot_until_optimal(t, basis, ncols + nart, buf) == "unbounded":
            # the phase-1 objective is bounded below by zero
            raise ArithmeticError("phase-1 simplex reported an unbounded ray")
        if -t[m, -1] > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None)
        for i in range(m):
            if basis[i] >= ncols:
                nz = np.flatnonzero(np.abs(t[i, :ncols]) > PIVOT_TOL)
                if nz.size:
                    _pivot(t, basis, i, int(nz[0]), buf)

    # rows still carrying an artificial basic are redundant; drop them and
    # rebuild the tableau with the real objective for phase 2
    keep = [i for i in range(m) if basis[i] < ncols]
    t2 = np.zeros((len(keep) + 1, ncols + 1))
    t2[:-1, :ncols] = t[keep, :ncols]
    t2[:-1, -1] = t[keep, -1]
    basis2 = basis[keep].copy()

    cost = np.zeros(ncols)
    cost[:n] = c
    t2[-1, :ncols] = cost
    for i, bi in enumerate(basis2):
        cb = cost[bi]
        if cb != 0.0:
            t2[-1, :] -= cb * t2[i, :]

    if _pivot_until_optimal(t2, basis2, ncols, np.empty_like(t2)) == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None)

    y = np.zeros(ncols)
    y[basis2] = t2[:-1, -1]
    x = lo + y[:n]
    return LpSolution(LpStatus.OPTIMAL, x, float(c @ x))
