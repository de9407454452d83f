"""Dense-tableau reference for :func:`coopgrid.lp.solve_lp`.

This is the two-phase Bland simplex that rewrote the whole tableau on every
pivot, kept as the reference the row-sparse solver must match bit for bit:
same statuses, points, objectives and pivot counts.  The only change to it
is that it counts pivots the way :class:`coopgrid.lp.LpSolution` reports
them.
"""

import numpy as np

from coopgrid.errors import LpValidationError
from coopgrid.lp import (FEAS_TOL, PIVOT_TOL, LinearProgram, LpSolution, LpStatus,
                         validate_lp)


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
                         buf: np.ndarray) -> tuple[str, int]:
    """Run Bland-rule pivots until no reduced cost is negative.

    ``limit`` is the number of leftmost columns eligible to enter (it
    excludes the rhs column).  Returns the outcome and the pivot count.
    """
    m = t.shape[0] - 1
    max_iter = 2000 + 200 * (m + limit)
    for pivots in range(max_iter):
        neg = np.flatnonzero(t[m, :limit] < -PIVOT_TOL)
        if neg.size == 0:
            return "optimal", pivots
        enter = int(neg[0])  # Bland: smallest eligible index
        col = t[:m, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", pivots
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

    phase1 = 0
    if nart:
        # phase 1: minimize the sum of artificial variables
        buf = np.empty_like(t)
        t[m, ncols:ncols + nart] = 1.0
        for i in art_rows:
            t[m, :] -= t[i, :]
        outcome, phase1 = _pivot_until_optimal(t, basis, ncols + nart, buf)
        if outcome == "unbounded":
            # the phase-1 objective is bounded below by zero
            raise ArithmeticError("phase-1 simplex reported an unbounded ray")
        if -t[m, -1] > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None, phase1)
        for i in range(m):
            if basis[i] >= ncols:
                nz = np.flatnonzero(np.abs(t[i, :ncols]) > PIVOT_TOL)
                if nz.size:
                    _pivot(t, basis, i, int(nz[0]), buf)
                    phase1 += 1

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

    outcome, phase2 = _pivot_until_optimal(t2, basis2, ncols, np.empty_like(t2))
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, phase1, phase2)

    y = np.zeros(ncols)
    y[basis2] = t2[:-1, -1]
    x = lo + y[:n]
    return LpSolution(LpStatus.OPTIMAL, x, float(c @ x), phase1, phase2)
