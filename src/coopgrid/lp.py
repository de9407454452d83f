"""Linear programming in canonical form.

The canonical shape used throughout this package is: minimize ``c @ x``
subject to ``A_eq @ x == b_eq``, ``A_ub @ x <= b_ub`` and box bounds
``lower <= x <= upper``.  Upper bounds may be ``+inf``; lower bounds must
be finite.

The solver is a two-phase primal simplex on a dense tableau with Bland's
smallest-index pivoting rule, which cannot cycle and makes every solve
bitwise reproducible, as the simulation layer needs.  Each pivot
eliminates only the rows where the entering column is nonzero (a tenth
of them in the dispatch programs); a full update only subtracts ±0 from
the others.  A pivot leaves its column an exact
unit vector without rewriting it: ``p / p`` is 1.0 and ``x - x * 1.0``
is +0.0, and a skipped row already holds a zero, perhaps -0.0 where a
rewrite would store +0.0.  The sign of a zero never changes which
entries are nonzero, a nonzero entry or the rhs column.

The ratio test runs on Python floats, whose ``/``, ``<=``, ``abs`` and
``min`` are numpy's IEEE 754 double operations; no ratio is NaN (every
divisor is ``> PIVOT_TOL``), so the ratios, the tie cut ``rmin + 1e-12 *
max(1.0, |rmin|)`` (the same for either sign of a zero ``rmin``) and the
chosen row, ties going to the distinct smallest basic index, are those
of an array version, in any order of the rows.  The phase-1 objective
row and the phase-2 reduced costs are each one ``np.subtract.reduce``
over stacked rows, which subtracts them left to right, as a loop would.

Pivots are often replayed rather than run.  Programs with equal matrices
(compared by content), bounded variables and negated rows share their
tableau up to the rhs column, and the memo keeps one prefix tree of the
pivots recorded on it.  A phase is replayed whole or solved on the
tableau: a program steps down the tree by its own choices, updating only
its rhs, as ``rhs[r] - e * (rhs[leave] / p)`` like :func:`_eliminate`,
and in phase 2 its objective row, as ``obj[j] - e * prow[j]``; where a
choice has no child it solves the phase on the untouched rows, and its
pivots join the tree (a phase 2 the second time it is taken).  A phase 1
that ends infeasible is solved on the tableau too, which records nothing,
so a replay only ever returns a phase-2 start.  So the tree holds only
ratio-tested pivots on unscaled rows that end at an optimum, and
drive-out pivots, scaled seed rows and unbounded phase 2s are never
recorded.  A phase-1 node is a pivot's entering column: its
nonzero rows, those whose entry passes the ratio test first, their
entries, and a child per leaving row.  The last node holds the rows
phase 2 starts from and a phase-2 tree: a child per entering column,
then per leaving row, with the pivot row's nonzero cells.  The pivots
and bits are those of the full solve: an elimination updates each column
from that column and the pivot column only, so the tableau without its
rhs column depends on the pivots taken, not on the rhs or the objective;
equal pivots so far thus give equal phase-1 entering columns (read off
the rhs-free objective row), entries and rows eligible to leave, and the
carried objective row has the full update's nonzero entries (a cell
where the pivot row is zero only loses a zero); and the rhs and the
objective row are updated from nonzero entries only, so the signs of
zeros never reach a choice.

Stored values convert back to the same doubles.  The matrices and the
phase-2 rows are kept as nonzero cells (uint8 or uint16 where they fit)
and values (int8 where all are integers in [-128, 127], as in the
dispatch programs): a small integer converts to its double exactly, and
a nonzero integral double has one bit pattern.  A tableau stores each
distinct tuple of rows or entries once.  The memo holds about
``_MEMO_BYTES`` of heap, least recently used tableau first out; a
tableau that would not fit alone is not stored, and a tree stops growing
where it would not fit.
"""

import math
import sys
import threading
from collections import OrderedDict
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
    ``phase1_replayed`` / ``phase2_replayed`` count those of each phase
    replayed from a recorded path without tableau updates: all of them or
    none.
    """

    status: LpStatus
    point: np.ndarray | None
    objective_value: float | None
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    phase1_replayed: int = 0
    phase2_replayed: int = 0


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


def _leaving_row(ratios: list, basis) -> int:
    """Bland's ratio test on Python floats: of ``ratios``, the (rhs / entry,
    row) pairs of the rows whose entering-column entry is ``> PIVOT_TOL``,
    the row with the least ratio, ties within ``1e-12`` (relative) going to
    the smallest basic index; -1 when no entry passes."""
    if len(ratios) < 2:  # one pivot in seven in dispatch programs has one
        return ratios[0][1] if ratios else -1
    rmin = min(ratios)[0]
    cut = rmin + 1e-12 * max(1.0, abs(rmin))
    tied = [r for ratio, r in ratios if ratio <= cut]
    return tied[0] if len(tied) == 1 else min(tied, key=basis.__getitem__)


def _pivot_until_optimal(t: np.ndarray, basis: np.ndarray, limit: int, pairs: list,
                         entering: list | None = None) -> str:
    """Run Bland-rule pivots until no reduced cost is negative.

    ``limit`` is the number of leftmost columns eligible to enter (it
    excludes the rhs column).  Returns the outcome.  Each pivot's entering
    column and leaving row are appended to ``pairs``; the rows nonzero in
    its entering column and their entries go to ``entering``, when given
    (not in phase 2: holding every pivot's arrays to the end of the solve
    slows the reference day's phase 2 by about 6%).
    """
    m = t.shape[0] - 1
    obj = t[m, :limit]
    columns = t.T
    rhs = columns[-1]
    max_iter = 2000 + 200 * (m + limit)
    for _ in range(max_iter):
        eligible = obj < -PIVOT_TOL
        enter = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[enter]:
            return "optimal"
        column = columns[enter]
        nz = column.nonzero()[0]
        entries = column[nz]
        # the objective row is among the nonzero rows, but its entry is
        # negative, so it never passes the ratio test
        leave = _leaving_row([(v / e, r) for r, v, e in zip(nz.tolist(), rhs[nz].tolist(),
                                                             entries.tolist())
                              if e > PIVOT_TOL], basis)
        if leave < 0:
            return "unbounded"
        pairs.append((enter, leave))
        if entering is not None:
            entering.append((nz, entries))
        _eliminate(t, basis, leave, enter, nz, entries)
    raise ArithmeticError("simplex iteration limit exceeded")


# --- pivot path memo ------------------------------------------------------------

# About the heap bytes the memo may hold (BENCH_16.json, "memo").
_MEMO_BYTES = 1 << 19
# The workloads have 7 / 58 / 25 keys.  A tableau, and a phase 2 from a
# phase-1 end, is recorded the second time it is seen among the last this
# many sightings, so programs that never repeat one do not pay for recording.
_SIGHTINGS = 256
# Grid phase 2s take at most 11 pivots.  Longer ones seldom repeat and cost
# their pivots again to record: on the reference day every length re-derives
# 11,364 pivots to replay 3,422, and leaves phase 1 less room; at most 16,
# 245 to replay 290.  On reform-mixed 3,400 to replay 3,023, or 795 to 2,733.
_PHASE2_PIVOTS = 16


def _compact(cells: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions as uint8 or uint16 where all fit, and their nonzero
    doubles as int8 where all are integers in [-128, 127]."""
    top = int(cells.max(initial=0))
    cells = cells.astype(np.uint8 if top < 256 else np.uint16) if top < 65536 else cells
    if values.size and -128.0 <= values.min() and values.max() <= 127.0:
        small = values.astype(np.int8)
        values = small if np.array_equal(small, values) else values
    return cells, values


def _nonzeros(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flat = mat.reshape(-1)
    cells = flat.nonzero()[0]
    return _compact(cells, flat[cells])


def _holds(mat: np.ndarray, nonzeros: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether ``mat`` has exactly the recorded nonzero cells and values (its
    shape is part of the memo key)."""
    cells, values = nonzeros
    # counting a boolean array is faster than counting nonzero floats
    return (np.count_nonzero(mat != 0.0) == cells.size
            and np.array_equal(mat.reshape(-1)[cells], values))


def _held(*parts) -> int:
    """About the heap bytes of ``parts``: their own sizes, and those of the
    floats in the tuples among them."""
    return sum(map(sys.getsizeof, parts)) + 24 * sum(
        type(v) is float for part in parts if type(part) is tuple for v in part)


class _Node:
    """A node of a tree of recorded pivots, with its children and the choices
    that lead to them as ``kids``: ``(choice, node, choice, node, ...)``.
    Its tuples named in ``shared`` are the tableau's, and count there."""

    __slots__ = ()
    shared = ()

    def held(self) -> int:
        return _held(self, self.kids)


class _Column(_Node):
    """A recorded pivot's entering column ``enter``: its nonzero ``rows``
    and their ``entries``, the ``passing`` rows, whose entry is ``>
    PIVOT_TOL``, first; children by leaving row."""

    __slots__ = ("enter", "passing", "rows", "entries", "kids")
    shared = ("rows", "entries")

    def __init__(self, enter: int, rows: np.ndarray, entries: np.ndarray):
        rows, entries = rows.tolist(), entries.tolist()
        order = sorted(range(len(rows)), key=lambda i: not entries[i] > PIVOT_TOL)
        self.enter, self.passing = enter, sum(e > PIVOT_TOL for e in entries)
        self.rows = tuple([rows[i] for i in order])
        self.entries, self.kids = tuple([entries[i] for i in order]), ()


class _Row(_Node):
    """The pivot row of a recorded phase-2 pivot, divided by its pivot:
    ``values`` at ``cols``, zeros elsewhere; children by entering column."""

    __slots__ = ("cols", "values", "kids")
    shared = ("cols", "values")

    def __init__(self, cols: np.ndarray, values: np.ndarray):
        self.cols, self.values, self.kids = tuple(cols.tolist()), tuple(values.tolist()), ()


class _End(_Node):
    """The optimum of a recorded phase 1: the tableau of the rows phase 2
    keeps, those whose basic column is a real one, without the rhs and the
    objective row, as ``values`` at the flat positions ``cells``; and
    phase-2 children by entering column."""

    __slots__ = ("cells", "values", "kids")

    def __init__(self, t2: np.ndarray):
        cell_rows, cell_cols = t2[:-1, :-1].nonzero()
        self.kids = ()
        self.cells, self.values = _compact(cell_rows * t2.shape[1] + cell_cols,
                                           t2[cell_rows, cell_cols])

    def held(self) -> int:
        return _held(self, self.cells, self.values, self.kids)

    def rows(self, shape: tuple) -> np.ndarray:
        """The recorded rows in a tableau of ``shape`` whose rhs column and
        objective row are zeros."""
        t = np.zeros(shape)
        t.reshape(-1)[self.cells] = self.values
        return t


class _Tableau:
    """What every program of one memo key, its seed pivots all 1.0, shares
    before phase 1: the matrices' nonzeros, for the content check; the
    crash basis; the artificial rows, in the order the phase-1 objective
    row subtracts them; the ``root`` of the tree of recorded pivots; each
    distinct tuple of indices and of floats its nodes hold, once, apart
    (``(1, 2) == (1.0, 2.0)``); and ``nbytes``, about the heap bytes of all
    of it."""

    __slots__ = ("eq", "ub", "basis", "art_rows", "root", "tuples", "nbytes")

    def __init__(self, aeq: np.ndarray, aub: np.ndarray, basis: np.ndarray,
                 art_rows: np.ndarray):
        self.eq, self.ub = _nonzeros(aeq), _nonzeros(aub)
        self.basis, self.art_rows = tuple(basis.tolist()), tuple(art_rows.tolist())
        self.root, self.tuples = None, ({}, {})
        self.nbytes = self.held()

    def held(self) -> int:
        """About the heap bytes of the tableau without the nodes of its tree."""
        return _held(self, self.eq, *self.eq, self.ub, *self.ub, self.basis,
                     self.art_rows) + _stored(*self.tuples)


def _stored(*tables: dict) -> int:
    """About the heap bytes of the tuples in ``tables`` and their dict entries."""
    return sum(_held(*table) + 48 * len(table) for table in tables)  # 48: about an entry


def _kid(kids: tuple, choice: int):
    """The node after ``choice`` in ``kids``, or None."""
    for i in range(0, len(kids), 2):
        if kids[i] == choice:
            return kids[i + 1]
    return None


def _phase1_chain(tableau: _Tableau, pairs: list, columns: list, t2: np.ndarray) -> list | None:
    """The pivots ``pairs`` of a phase 1 that ``tableau``'s tree lacks, with
    the ``columns`` they entered, as new nodes ending at the rows ``t2``:
    (owner, choice, node) links, the first where they hang in the tree; or
    None."""
    owner = choice = None
    node, k = tableau.root, 0
    while node is not None and k < len(pairs):
        owner, choice = node, pairs[k][1]
        node = _kid(owner.kids, choice)
        k += 1
    if node is not None:
        return None
    nodes = [_Column(pairs[j][0], *columns[j]) for j in range(k, len(pairs))]
    nodes.append(_End(t2))
    return [(owner, choice, nodes[0])] + [
        (column, pairs[j][1], node)
        for j, column, node in zip(range(k, len(pairs)), nodes, nodes[1:])]


def _phase2_chain(end: _End, pairs: tuple, shape: tuple) -> list | None:
    """The pivots ``pairs`` of a phase 2 from ``end`` that its tree lacks,
    re-derived on the rows of ``end``, of ``shape``, without the rhs column,
    which no other column reads; as :func:`_phase1_chain` returns them."""
    owner, k, column = end, 0, None
    while k < len(pairs):
        column = _kid(owner.kids, pairs[k][0])
        row = None if column is None else _kid(column.kids, pairs[k][1])
        if row is None:
            break
        owner, k, column = row, k + 1, None
    if k == len(pairs):
        return None
    t = end.rows(shape)[:-1, :-1]
    basis = np.empty(shape[0] - 1, dtype=np.intp)
    links = []
    for j, (enter, leave) in enumerate(pairs):
        nz = t[:, enter].nonzero()[0]
        if j > k or (j == k and column is None):
            column = _Column(enter, nz, t[nz, enter])
            links.append((owner, enter, column))
        _eliminate(t, basis, leave, enter, nz, t[nz, enter])
        if j >= k:
            cols = t[leave].nonzero()[0]
            owner = _Row(cols, t[leave, cols])
            links.append((column, leave, owner))
    return links


class _PathMemo:
    """Trees of recorded pivots by tableau key, least recently used first,
    holding about ``_MEMO_BYTES`` at most.  Nodes are only ever added, and a
    lock keeps the memo and its byte counts whole on several threads."""

    def __init__(self):
        self.tableaux: OrderedDict[tuple, _Tableau] = OrderedDict()
        self.nbytes = 0
        self.seen: OrderedDict[int, None] = OrderedDict()
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.tableaux.clear()
            self.nbytes = 0
            self.seen.clear()

    def seen_before(self, *sighting) -> bool:
        """Whether ``sighting`` was seen before among the last
        ``_SIGHTINGS``; it is remembered either way."""
        seen = hash(sighting)
        with self.lock:
            known = seen in self.seen
            self.seen[seen] = None
            self.seen.move_to_end(seen)
            if len(self.seen) > _SIGHTINGS:
                self.seen.popitem(last=False)
        return known

    def find(self, key: tuple, aeq: np.ndarray, aub: np.ndarray) -> _Tableau | None:
        with self.lock:
            tableau = self.tableaux.get(key)
            if tableau is not None:
                self.tableaux.move_to_end(key)
        if tableau is None or not (_holds(aeq, tableau.eq) and _holds(aub, tableau.ub)):
            return None
        return tableau

    def add(self, key: tuple, tableau: _Tableau, links: list) -> bool:
        """Link new nodes, as (owner, choice, node) ``links``, the first on a
        node of ``tableau``, the stored tableau of ``key``, or, with owner
        None, as its root, storing it; whether they were.  Their tuples
        become the tableau's.  Nothing is added where the tableau would
        outgrow the memo alone, is no longer stored, or has that child."""
        (owner, choice, _), nodes = links[0], [node for _, _, node in links]
        for link_owner, link_choice, node in links[1:]:
            link_owner.kids = (link_choice, node)
        with self.lock:
            if owner is not None and (self.tableaux.get(key) is not tableau
                                      or _kid(owner.kids, choice) is not None):
                return False
            new = ({}, {})
            for node in nodes:
                for stored, table, name in zip(tableau.tuples, new, node.shared):
                    values = getattr(node, name)
                    if values not in stored:
                        table.setdefault(values, values)
            # 16: the two items ``owner.kids`` gains
            nbytes = sum(node.held() for node in nodes) + _stored(*new) + 16 * (owner is not None)
            if tableau.nbytes + nbytes > _MEMO_BYTES:
                return False  # it would push out every other tableau, then itself
            for stored, table in zip(tableau.tuples, new):
                stored.update(table)
            for node in nodes:
                for stored, name in zip(tableau.tuples, node.shared):
                    setattr(node, name, stored[getattr(node, name)])
            if owner is None:
                tableau.root = nodes[0]
                old = self.tableaux.pop(key, None)
                self.nbytes += tableau.nbytes - (0 if old is None else old.nbytes)
                self.tableaux[key] = tableau
            else:
                owner.kids = (*owner.kids, choice, nodes[0])
                self.tableaux.move_to_end(key)
            tableau.nbytes += nbytes
            self.nbytes += nbytes
            while self.nbytes > _MEMO_BYTES:
                self.nbytes -= self.tableaux.popitem(last=False)[1].nbytes
        return True

    def sight(self, key: tuple, tableau: _Tableau, end: _End, pairs: tuple,
              shape: tuple) -> None:
        """Note a phase 2 that took the pivots ``pairs`` from ``end``, whose
        rows' tableau has ``shape``; the second time from rows of the same
        key and nonzero cells (whatever end holds them), add it to the tree."""
        if self.seen_before(key, end.cells.tobytes(), pairs):
            chain = _phase2_chain(end, pairs, shape)
            if chain is not None:
                self.add(key, tableau, chain)


_MEMO = _PathMemo()


def _replayed_pivot(column: _Column, rhs: list, basis: list) -> int:
    """Take a recorded pivot on ``rhs`` and ``basis`` alone, entering
    ``column``: :func:`_leaving_row` (a lone passing row leaves), then the
    rhs column of :func:`_eliminate` on Python floats, then the basis
    entry.  Returns the leaving row."""
    rows, entries, n = column.rows, column.entries, column.passing
    leave = rows[0] if n == 1 else _leaving_row(
        [(rhs[r] / e, r) for r, e in zip(rows, entries[:n])], basis)
    q = rhs[leave] / entries[rows.index(leave)]
    for r, e in zip(rows, entries):
        rhs[r] -= e * q
    rhs[leave] = q
    basis[leave] = column.enter
    return leave


def _replay(tableau: _Tableau, b: np.ndarray, ncols: int) -> tuple | None:
    """Phase 1 along the recorded tree of ``tableau`` on the rhs ``b``: the
    phase-2 rows (an objective row of zeros), their basis, the pivot count
    and the :class:`_End` reached; or None where the ratio test picks a row
    the tree has no child for, or where the phase 1 ends infeasible."""
    rhs = b.tolist()
    objective = 0.0  # the phase-1 objective row's rhs, as its ordered reduction
    for r in tableau.art_rows:
        objective -= rhs[r]
    rhs.append(objective)
    basis = list(tableau.basis)
    node, k = tableau.root, 0
    while type(node) is _Column:
        node = _kid(node.kids, _replayed_pivot(node, rhs, basis))
        k += 1
    if node is None or -rhs[-1] > FEAS_TOL:
        return None

    keep = [i for i, j in enumerate(basis) if j < ncols]
    t2 = node.rows((len(keep) + 1, ncols + 1))
    t2[:-1, -1] = [rhs[i] for i in keep]
    return t2, np.array([basis[i] for i in keep], dtype=np.intp), k, node


def _follow(kids: tuple, obj: list, rhs: list, basis: list) -> int | None:
    """Take phase-2 pivots along the recorded tree from ``kids`` on ``obj``,
    ``rhs`` and ``basis`` alone, updating them as a full pivot does: Bland's
    choice on ``obj``, then the ratio test's on ``rhs``, whose child holds
    this program's rows and entries, as the pivots so far fix the tableau.
    Returns the number of pivots to the optimum, or None where a choice has
    no child."""
    # the eligible columns change only where a pivot row is nonzero
    eligible = {j for j, cost in enumerate(obj) if cost < -PIVOT_TOL}
    pivots = 0
    while eligible:
        enter = min(eligible)
        column = _kid(kids, enter)
        if column is None:
            return None
        # every recorded column has a row that passes the ratio test
        row = _kid(column.kids, _replayed_pivot(column, rhs, basis))
        if row is None:
            return None
        e = obj[enter]
        for j, v in zip(row.cols, row.values):
            cost = obj[j] = obj[j] - e * v
            if cost < -PIVOT_TOL:
                eligible.add(j)
            else:
                eligible.discard(j)
        pivots += 1
        kids = row.kids
    return pivots


def _phase2(t2: np.ndarray, basis2: np.ndarray, c: np.ndarray, lo: np.ndarray,
            phase1: int, phase1_replayed: int, kids: tuple) -> tuple[LpSolution, tuple]:
    """Phase 2 on the kept constraint rows of ``t2``, whose last row becomes
    the reduced costs of the real objective ``c``: followed along the
    recorded tree from ``kids`` to an optimum, or else solved on ``t2``.
    Returns the solution and the (entering, leaving) pairs of its pivots
    when it was solved on ``t2`` to an optimum in at most
    ``_PHASE2_PIVOTS``; else ()."""
    n = c.size
    ncols = t2.shape[1] - 1
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

    if kids:
        obj, rhs, basis = t2[-1, :ncols].tolist(), t2[:-1, -1].tolist(), basis2.tolist()
        followed = _follow(kids, obj, rhs, basis)
        if followed is not None:
            return _solution("optimal", c, lo, ncols, basis, rhs, phase1, followed,
                             phase1_replayed, followed), ()
        # no child for a choice: the pivots followed so far touched lists
        # alone, so phase 2 starts over on the rows and reduced costs
    pairs = []
    outcome = _pivot_until_optimal(t2, basis2, ncols, pairs)
    solution = _solution(outcome, c, lo, ncols, basis2, t2[:-1, -1], phase1, len(pairs),
                         phase1_replayed, 0)
    recorded = outcome == "optimal" and len(pairs) <= _PHASE2_PIVOTS
    return solution, tuple(pairs) if recorded else ()


def _solution(outcome: str, c: np.ndarray, lo: np.ndarray, ncols: int, basis, rhs,
              *counts: int) -> LpSolution:
    """The phase-2 ``outcome`` as a solution with the pivot ``counts`` (in
    :class:`LpSolution`'s order); an optimal point is read off the rhs of
    the basic rows."""
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, *counts)
    n = c.size
    y = np.zeros(ncols)
    y[basis] = rhs
    x = y[:n]  # a view; y + lo rounds as lo + y
    x += lo
    return LpSolution(LpStatus.OPTIMAL, x, float(c @ x), *counts)


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve a canonical-form program.

    Returns INFEASIBLE / UNBOUNDED statuses instead of raising; malformed
    dimensions raise :class:`LpValidationError` before any arithmetic.
    Identical inputs produce bitwise-identical outputs, whether phase 1 is
    replayed or run.
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
    b = np.empty(m)
    if me:
        np.subtract(beq, aeq @ lo, out=b[:me])
    if mu:
        np.subtract(bub, aub @ lo, out=b[me:me + mu])
    b[me + mu:] = span[bounded]
    negative = (b < 0).nonzero()[0]
    if negative.size:
        b[negative] = -b[negative]

    # the matrices, the bounded variables and the negated rows fix the
    # tableau up to its rhs column
    key = (n, aeq.shape, aub.shape, bounded.tobytes(), negative.tobytes())
    # phase 1 is replayed along the recorded tree or solved on the tableau;
    # either way one phase 2 starts from its rows
    tableau = _MEMO.find(key, aeq, aub)
    start = None if tableau is None else _replay(tableau, b, ncols)
    if start is not None:
        t2, basis2, phase1, end = start
    else:
        # one buffer holds both phases' tableaux, so neither the constraint rows
        # nor the phase-2 rows are copied into a fresh array: m constraint rows
        # and the objective row; the real columns, room for up to m artificial
        # columns and the rhs column, which moves next to the artificials once
        # their number is known
        full = np.zeros((m + 1, ncols + m + 1))
        a = full[:m, :ncols]
        if me:
            a[:me, :n] = aeq
        if mu:
            a[me:me + mu, :n] = aub
        # the slack columns of the <= rows and of the bound rows are one
        # identity block, the diagonal that starts at (me, n)
        width = full.shape[1]
        full.reshape(-1)[me * width + n::width + 1][:mu + nb] = 1.0
        a[np.arange(me + mu, m), bounded] = 1.0
        if negative.size:
            a[negative] = -a[negative]

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
        scaled, piv = seeded[scale], piv[scale]
        if scaled.size:
            b[scaled] /= piv
            a[scaled, :] /= piv[:, None]
        art_rows = (basis == -1).nonzero()[0]
        nart = art_rows.size

        t = full[:, :ncols + nart + 1]
        t[:m, -1] = b
        art_cols = ncols + np.arange(nart)
        t[art_rows, art_cols] = 1.0
        basis[art_rows] = art_cols

        phase1 = 0
        # a tableau is recorded by the second program that has it, unless a
        # seed row was scaled, which a replay of the rhs alone does not do
        recording = nart and not scaled.size and (
            tableau or _MEMO.seen_before(key, aeq.tobytes(), aub.tobytes()))
        if nart:
            crash_basis = basis.copy()
            # phase 1: minimize the sum of artificial variables; the objective
            # row starts as the artificials' costs and subtracts each artificial
            # row in turn, in one ordered reduction
            t[m, ncols:ncols + nart] = 1.0
            t[m] = np.subtract.reduce(t[np.concatenate(([m], art_rows))], axis=0)
            pairs, columns = [], ([] if recording else None)
            if _pivot_until_optimal(t, basis, ncols + nart, pairs, columns) == "unbounded":
                # the phase-1 objective is bounded below by zero
                raise ArithmeticError("phase-1 simplex reported an unbounded ray")
            phase1 = len(pairs)
            if -t[m, -1] > FEAS_TOL:
                return LpSolution(LpStatus.INFEASIBLE, None, None, phase1)
            # drive artificials still basic (at zero) out where a real column can
            # replace them; a pivot only changes the basis of its own row.  A
            # replay has no such pivots, so this phase 1 is not recorded
            for i in (basis >= ncols).nonzero()[0]:
                nz = (np.abs(t[i, :ncols]) > PIVOT_TOL).nonzero()[0]
                if nz.size:
                    j = int(nz[0])
                    rows = t[:, j].nonzero()[0]
                    _eliminate(t, basis, i, j, rows, t[rows, j])
                    recording = False
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
        end = None
        if recording:
            # the rows are recorded before phase 2 pivots on them
            tableau = tableau or _Tableau(aeq, aub, crash_basis, art_rows)
            chain = _phase1_chain(tableau, pairs, columns, t2)
            if chain is not None and _MEMO.add(key, tableau, chain):
                end = chain[-1][2]  # phase 2s hang only on ends in the tree
    solution, pairs = _phase2(t2, basis2, c, lo, phase1, 0 if start is None else phase1,
                              () if end is None else end.kids)
    if end is not None and pairs:
        _MEMO.sight(key, tableau, end, pairs, t2.shape)
    return solution
