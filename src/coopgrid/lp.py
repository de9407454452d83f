"""Linear programming in canonical form.

The canonical shape used throughout this package is: minimize ``c @ x``
subject to ``A_eq @ x == b_eq``, ``A_ub @ x <= b_ub`` and box bounds
``lower <= x <= upper``.  Upper bounds may be ``+inf``; lower bounds must
be finite.

The solver is a two-phase primal simplex on a dense tableau with Bland's
smallest-index pivoting rule.  Bland's rule needs more pivots than the
usual heuristics, but it cannot cycle and it makes every solve bitwise
reproducible, which the simulation layer relies on.  Each pivot scans the
entering column once and eliminates only the rows where that column is
nonzero (about a tenth of them in the dispatch programs).  A full-tableau
update would only subtract ±0 from the rows it skips, which leaves every
nonzero entry as it is, so pivot choices, points and objectives are those
of the full update.

A pivot leaves its column an exact unit vector without rewriting it: the
scaled pivot row holds ``p / p``, which is 1.0 in IEEE 754, every
eliminated row holds ``x - x * 1.0``, which is +0.0, and the rows the
update skips already hold a zero.  Such a zero may be -0.0 where a
rewrite would store +0.0.  The sign of a zero never changes which entries
are nonzero, the value of a nonzero entry, or the rhs column, so the
pivots, points and objectives stay the same.

The ratio test runs on Python floats over the entering column's few
nonzero rows instead of on numpy arrays.  Python's float ``/``, ``<``,
``<=``, ``abs`` and ``min`` are the same IEEE 754 double operations as
numpy's, and no ratio is NaN (every divisor passed ``> PIVOT_TOL``), so
the ratios, the tie cut ``rmin + 1e-12 * max(1.0, |rmin|)`` and the
chosen row are those of the array version.  Where ``rmin`` is a zero, its
sign may differ between ``min`` and ``np.minimum``, but the cut is the
same for either sign.  Among the tied rows ``min`` takes the smallest
basic index, and basic indices are distinct.

The phase-1 objective row and the phase-2 reduced costs are each one
``np.subtract.reduce`` over stacked rows.  A reduction along the first
axis subtracts the rows one at a time, left to right, so it rounds
exactly as a loop of row subtractions in the same order.
"""

import math
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
    """Solve outcome; ``point`` and ``objective_value`` are None unless optimal.

    ``phase1_pivots`` counts the pivots that minimize the artificial
    variables plus those that drive zero-valued artificials out of the
    basis; ``phase2_pivots`` counts the pivots on the real objective.
    """

    status: LpStatus
    point: np.ndarray | None
    objective_value: float | None
    phase1_pivots: int = 0
    phase2_pivots: int = 0


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


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite.  A NaN or infinite entry makes the sum
    NaN or infinite, so a finite sum settles it in one pass without a
    temporary; only a sum that overflows needs the entry-wise check."""
    return not arr.size or math.isfinite(arr.sum()) or bool(np.isfinite(arr).all())


def validate_lp(problem: LinearProgram) -> list[str]:
    """Return a list of structural violations; empty when the program is well formed.

    Every check is one pass over its array; messages are built only for the
    checks that fail.
    """
    issues: list[str] = []
    c = np.asarray(problem.objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        issues.append("objective must be a nonempty 1-d vector")
        return issues
    n = c.size
    if not _finite(c):
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
        if not _finite(m):
            issues.append(f"{label}_matrix contains non-finite entries")
        if not _finite(r):
            issues.append(f"{label}_rhs contains non-finite entries")

    lo = np.asarray(problem.lower, dtype=float)
    hi = np.asarray(problem.upper, dtype=float)
    if lo.size != n:
        issues.append(f"lower bound length {lo.size} does not match {n} variables")
    if hi.size != n:
        issues.append(f"upper bound length {hi.size} does not match {n} variables")
    if lo.size == n and hi.size == n:
        lo_finite = _finite(lo)
        if not lo_finite:
            issues.append("lower bounds must all be finite")
        # with every lower bound finite, lo <= hi fails exactly where an
        # upper bound is NaN or -inf or the bounds cross
        if not (lo_finite and (lo <= hi).all()):
            if np.isnan(hi).any() or np.isneginf(hi).any():
                issues.append("upper bounds must be finite or +inf")
            for j in np.flatnonzero(lo > hi):
                issues.append(f"crossed bounds at variable {j}: lower {lo[j]} > upper {hi[j]}")
    return issues


def _eliminate(t: np.ndarray, basis: np.ndarray, row: int, col: int,
               rows: np.ndarray, entries: np.ndarray) -> None:
    """Pivot on ``t[row, col]``.  ``rows`` are the rows whose entry in
    ``col`` is nonzero, ``row`` among them, and ``entries`` those entries.

    The pivot column comes out an exact unit vector: ``p / p`` is 1.0 and
    every other eliminated entry is ``x - x * 1.0``, +0.0.
    """
    prow = t[row] / t[row, col]
    t[rows] -= entries[:, None] * prow
    t[row] = prow
    basis[row] = col


def _pivot_until_optimal(t: np.ndarray, basis: np.ndarray, limit: int) -> tuple[str, int]:
    """Run Bland-rule pivots until no reduced cost is negative.

    ``limit`` is the number of leftmost columns eligible to enter (it
    excludes the rhs column).  Returns the outcome and the pivot count.
    """
    m = t.shape[0] - 1
    obj = t[m, :limit]
    columns = t.T
    rhs = columns[-1]
    max_iter = 2000 + 200 * (m + limit)
    for pivots in range(max_iter):
        eligible = obj < -PIVOT_TOL
        enter = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[enter]:
            return "optimal", pivots
        column = columns[enter]
        nz = column.nonzero()[0]
        entries = column[nz]
        # ratio test on Python floats over the few nonzero rows; the
        # objective row is among them, but its entry is negative, so it
        # never passes
        ratios = [(b / e, r) for r, e, b in zip(nz.tolist(), entries.tolist(),
                                                rhs[nz].tolist()) if e > PIVOT_TOL]
        if not ratios:
            return "unbounded", pivots
        if len(ratios) == 1:  # one pivot in seven in dispatch programs
            leave = ratios[0][1]
        else:
            rmin = min(ratio for ratio, _ in ratios)
            cut = rmin + 1e-12 * max(1.0, abs(rmin))
            # Bland tie-break: smallest basic index
            leave = min((r for ratio, r in ratios if ratio <= cut), key=basis.__getitem__)
        _eliminate(t, basis, leave, enter, nz, entries)
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
    bounded = np.isfinite(span).nonzero()[0]
    nb = bounded.size
    m = me + mu + nb
    ncols = n + mu + nb

    # one buffer holds both phases' tableaux, so neither the constraint rows
    # nor the phase-2 rows are copied into a fresh array: m constraint rows
    # and the objective row; the real columns, room for up to m artificial
    # columns and the rhs column, which moves next to the artificials once
    # their number is known
    full = np.zeros((m + 1, ncols + m + 1))
    a = full[:m, :ncols]
    b = np.empty(m)
    if me:
        a[:me, :n] = aeq
        np.subtract(beq, aeq @ lo, out=b[:me])
    if mu:
        a[me:me + mu, :n] = aub
        np.subtract(bub, aub @ lo, out=b[me:me + mu])
    # the slack columns of the <= rows and of the bound rows are one
    # identity block, the diagonal that starts at (me, n)
    width = full.shape[1]
    full.reshape(-1)[me * width + n::width + 1][:mu + nb] = 1.0
    a[np.arange(me + mu, m), bounded] = 1.0
    b[me + mu:] = span[bounded]

    negative = (b < 0).nonzero()[0]
    if negative.size:
        a[negative] = -a[negative]
        b[negative] = -b[negative]

    # crash basis: any column whose only nonzero entry is positive can seed
    # its row's basis after scaling that row (slack columns are the common
    # case, one-sided flow variables the useful one); in each row the
    # smallest such column wins, and the other rows get artificials.  In
    # the dispatch programs every seed pivot is already 1.0
    seeds = a > 0.0
    seeds &= (a != 0.0).sum(axis=0) == 1
    basis = np.where(seeds.any(axis=1), seeds.argmax(axis=1), -1)
    seeded = (basis >= 0).nonzero()[0]
    piv = a[seeded, basis[seeded]]
    scale = piv != 1.0
    if scale.any():
        rows, piv = seeded[scale], piv[scale]
        b[rows] /= piv
        a[rows, :] /= piv[:, None]
    art_rows = (basis == -1).nonzero()[0]
    nart = art_rows.size

    t = full[:, :ncols + nart + 1]
    t[:m, -1] = b
    art_cols = ncols + np.arange(nart)
    t[art_rows, art_cols] = 1.0
    basis[art_rows] = art_cols

    phase1 = 0
    if nart:
        # phase 1: minimize the sum of artificial variables; the objective
        # row starts as the artificials' costs and subtracts each artificial
        # row in turn, in one ordered reduction
        t[m, ncols:ncols + nart] = 1.0
        t[m] = np.subtract.reduce(t[np.concatenate(([m], art_rows))], axis=0)
        outcome, phase1 = _pivot_until_optimal(t, basis, ncols + nart)
        if outcome == "unbounded":
            # the phase-1 objective is bounded below by zero
            raise ArithmeticError("phase-1 simplex reported an unbounded ray")
        if -t[m, -1] > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None, phase1)
        # drive artificials still basic (at zero) out where a real column can
        # replace them; a pivot only changes the basis of its own row
        for i in (basis >= ncols).nonzero()[0]:
            nz = (np.abs(t[i, :ncols]) > PIVOT_TOL).nonzero()[0]
            if nz.size:
                j = int(nz[0])
                rows = t[:, j].nonzero()[0]
                _eliminate(t, basis, i, j, rows, t[rows, j])
                phase1 += 1

    # phase 2 drops the artificial columns, moving the rhs into the first
    # one, and the rows still carrying an artificial basic, which are
    # redundant; its objective row is rebuilt with the real costs
    keep = (basis < ncols).nonzero()[0]
    full[:, ncols] = t[:, -1]
    t2 = full[:, :ncols + 1]
    basis2 = basis
    if keep.size < m:
        t2 = t2[np.append(keep, m)]
        basis2 = basis[keep]

    # reduced costs: the cost row (a zero under the rhs) minus each priced
    # basic row in turn, in one ordered reduction
    cost = np.zeros(ncols + 1)
    cost[:n] = c
    basic_cost = cost[basis2]
    priced = basic_cost.nonzero()[0]
    terms = np.empty((priced.size + 1, ncols + 1))
    terms[0] = cost
    np.multiply(basic_cost[priced, None], t2[priced], out=terms[1:])
    t2[-1] = np.subtract.reduce(terms, axis=0)

    outcome, phase2 = _pivot_until_optimal(t2, basis2, ncols)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, phase1, phase2)

    y = np.zeros(ncols)
    y[basis2] = t2[:-1, -1]
    x = y[:n]  # a view; y + lo rounds as lo + y
    x += lo
    return LpSolution(LpStatus.OPTIMAL, x, float(c @ x), phase1, phase2)
