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

Pivots are often replayed rather than run.  Programs with equal
matrices (compared by content), the same bounded variables and the same
negated rows start from the same tableau except for its rhs column, and
their phase-1 pivots repeat.  So a solve records its phase-1 path: each
pivot's entering column, the nonzero rows and entries of that column
and the leaving row, then the nonzero entries of the constraint rows it
leaves to phase 2.  A later program with the same key replays a
recorded path on its rhs alone, in Python floats: at every pivot it
reruns the ratio test through the same :func:`_leaving_row` and updates
each eliminated row's rhs as ``rhs[r] - e * (rhs[leave] / p)``, the
operations :func:`_eliminate` performs on that column.  Phase 2 starts
from the rows a phase-1 path leaves, so its paths hang off that path; a
phase-2 path also stores each pivot row's nonzero entries.  Following
one, a program carries its own objective row, updated as ``obj[j] - e *
prow[j]`` on the pivot row's nonzero cells, and checks Bland's entering
choice on it at every pivot.  A phase-2 path is recorded the second
time a phase 2 takes it, re-derived from the stored rows.  Where a
choice leaves the path followed, a recorded path with the same pivots
so far is followed instead; where none is, phase 1 is solved from the
untouched tableau and phase 2 on the rows after the pivots replayed.
The pivots and bits are those of the full solve:

* an elimination updates each column from that column and the pivot
  column only, so the tableau without its rhs column depends on the
  pivots taken, not on the rhs or the objective;
* phase-1 entering choices read only the rhs-free part of the objective
  row, so equal pivots so far give equal entering columns, equal
  column entries and an equal set of rows eligible to leave; phase-2
  entering choices read the carried objective row, whose nonzero
  entries are those of the full update, which changes a cell where the
  pivot row holds a zero only by subtracting a zero;
* the rhs column and the objective row are updated only from nonzero
  entries, so the signs of zeros, which may differ between the stored
  rows and the full solve's, never reach a choice.

The memo is bounded: at most ``_PATHS_PER_TABLEAU`` phase-1 paths a
key, ``_PHASE2_PATHS`` phase-2 paths of at most ``_PHASE2_PIVOTS``
pivots a phase-1 path, and ``_MEMO_BYTES`` of arrays in all, least
recently used tableau first out.  A tableau that would not fit alone is
not stored.
"""

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


def _leaving_row(rows: list, entries: list, rhs: list, basis) -> int:
    """Bland's ratio test on Python floats: of ``rows``, whose entering-column
    ``entries`` are given, the row with an entry ``> PIVOT_TOL`` and the
    least ratio to its value in the rhs column ``rhs``, ties within
    ``1e-12`` (relative) going to the smallest basic index; -1 when no
    entry passes."""
    ratios = [(rhs[r] / e, r) for r, e in zip(rows, entries) if e > PIVOT_TOL]
    if len(ratios) < 2:  # one pivot in seven in dispatch programs has one
        return ratios[0][1] if ratios else -1
    rmin = min(ratios)[0]
    cut = rmin + 1e-12 * max(1.0, abs(rmin))
    tied = [r for ratio, r in ratios if ratio <= cut]
    return tied[0] if len(tied) == 1 else min(tied, key=basis.__getitem__)


def _pivot_until_optimal(t: np.ndarray, basis: np.ndarray, limit: int, pairs: list,
                         entering: list | None = None, pivots_done: int = 0) -> tuple[str, int]:
    """Run Bland-rule pivots until no reduced cost is negative.

    ``limit`` is the number of leftmost columns eligible to enter (it
    excludes the rhs column).  Returns the outcome and the pivot count,
    the ``pivots_done`` before the call included.  Each pivot's entering
    column and leaving row are appended to ``pairs``, and so is an
    unbounded column, with -1; the rows nonzero in its entering column and
    their entries go to ``entering``, when given (not in phase 2: holding
    every pivot's arrays to the end of the solve slows the reference day's
    phase 2 by about 6%).
    """
    m = t.shape[0] - 1
    obj = t[m, :limit]
    columns = t.T
    rhs = columns[-1]
    max_iter = 2000 + 200 * (m + limit)
    for pivots in range(pivots_done, max_iter):
        eligible = obj < -PIVOT_TOL
        enter = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[enter]:
            return "optimal", pivots
        column = columns[enter]
        nz = column.nonzero()[0]
        entries = column[nz]
        # the objective row is among the nonzero rows, but its entry is
        # negative, so it never passes the ratio test
        leave = _leaving_row(nz.tolist(), entries.tolist(), rhs.tolist(), basis)
        pairs.append((enter, leave))
        if entering is not None:
            entering.append((nz, entries))
        if leave < 0:
            return "unbounded", pivots
        _eliminate(t, basis, leave, enter, nz, entries)
    raise ArithmeticError("simplex iteration limit exceeded")


# --- pivot path memo ------------------------------------------------------------

# Both bounds are sized from the benchmark workloads (BENCH_13.json,
# "memo_sizing").  The bytes are those of the memo's arrays, all tableaux and
# paths together.  The Python objects around them add about a fifth (0.58 MiB
# on the heap for 0.49 MiB counted, reference day), and a full memo raises
# the benchmark's peak resident memory by 1.4-1.7 MiB.
_MEMO_BYTES = 1 << 19
# Keys with up to 192 distinct phase-1 paths occur.  With one path a key the
# ratio test leaves it on 20% of the grid-storage-wide programs, 37% of the
# reference day's and 49% of reform-mixed's; with 16, on 0.8%, 10% and 25%.
# 32 or 64 move these by under a point either way, as the byte bound then
# holds fewer keys.  One grid key has 18 paths: at 16 two of them push each
# other out on every repetition, and the phase-2 paths on them are recorded
# again (18 phase-1 and 65 phase-2 recordings a repetition, and a peak
# resident memory that grows with each); at 20 none are.
_PATHS_PER_TABLEAU = 20
# The workloads have 7 / 58 / 25 keys; a tableau is recorded the second time
# it is seen, so programs that never repeat one do not pay for recording.
_SEEN_TABLEAUX = 256
# Phase 2s are sized from the same seed-1 streams (BENCH_14.json,
# "phase2_sizing").  Grid-storage-wide phase-1 paths carry up to 19 recorded
# phase 2s; 32 paths and as many sightings a path replay 2,868 of its
# programs' phase 2s, 16 replay 2,848.
_PHASE2_PATHS = 32
# Grid phase 2s take at most 11 pivots.  Longer ones seldom repeat and cost
# their pivots again to record: on the reference day every length re-derives
# 11,364 pivots to replay 3,422, and leaves phase 1 less room; at most 16,
# 245 to replay 290.  On reform-mixed 3,400 to replay 3,023, or 795 to 2,733.
_PHASE2_PIVOTS = 16


def _nonzeros(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flat = mat.reshape(-1)
    cells = flat.nonzero()[0]
    return cells, flat[cells]


def _holds(mat: np.ndarray, nonzeros: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether ``mat`` has exactly the recorded nonzero cells and values (its
    shape is part of the memo key)."""
    cells, values = nonzeros
    # counting a boolean array is faster than counting nonzero floats
    return (np.count_nonzero(mat != 0.0) == cells.size
            and np.array_equal(mat.reshape(-1)[cells], values))


def _packed(parts: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``parts`` end to end as one array of ``dtype``, and where each starts
    (and the last ends).  A tableau of 2**31 cells would take 16 GiB, so
    int32 indices do."""
    bounds = np.cumsum([0] + [part.size for part in parts], dtype=np.int32)
    return bounds, (np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype))


class _Phase2Path(NamedTuple):
    """One recorded phase 2 from the rows a phase-1 path leaves.

    Pivot ``k`` is ``pairs[k]``, its entering column and leaving row; a
    path that ended on an unbounded column ends with that column and -1.
    The constraint rows nonzero in the entering column are
    ``rows[bounds[k]:bounds[k + 1]]``, with ``entries`` in that column, and
    the pivot row, divided by its pivot, holds ``values[starts[k]:starts[k
    + 1]]`` at the columns ``cols[...]`` and zeros elsewhere.
    """

    pairs: tuple
    bounds: np.ndarray
    rows: np.ndarray
    entries: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    nbytes: int

    @classmethod
    def derive(cls, start: "_Phase1Path", pairs: tuple, shape: tuple) -> "_Phase2Path":
        """The path ``pairs`` takes from the phase-2 rows of ``start``, whose
        tableau has ``shape``, re-derived by taking its pivots on those rows
        without the rhs column, which no other column reads."""
        t = np.zeros(shape)
        t.reshape(-1)[start.cells] = start.values
        t = t[:-1, :-1]
        basis = np.empty(shape[0] - 1, dtype=np.intp)
        rows, entries, cols, values = [], [], [], []
        for enter, leave in pairs:
            nz = t[:, enter].nonzero()[0]
            rows.append(nz)
            entries.append(t[nz, enter])
            if leave >= 0:
                _eliminate(t, basis, leave, enter, nz, entries[-1])
                cols.append(t[leave].nonzero()[0])
                values.append(t[leave, cols[-1]])
        arrays = (*_packed(rows, np.int32), np.concatenate(entries),
                  *_packed(cols, np.int32), _packed(values, float)[1])
        return cls(pairs, *arrays, sum(a.nbytes for a in arrays))


class _Phase1Path(NamedTuple):
    """One recorded phase 1 and the constraint rows it leaves to phase 2.

    Pivot ``k`` makes row ``leaves[k]`` basic in column ``enters[k]`` and
    eliminates rows ``rows[bounds[k]:bounds[k + 1]]``, whose entries in
    that column were ``entries[bounds[k]:bounds[k + 1]]``.  The first
    ``ratio_tested`` pivots minimize the artificials, the rest drive
    artificials out.  Phase 2 keeps the rows whose basic column is a real
    one; its tableau, without the rhs and the objective row, holds
    ``values`` at the flat positions ``cells`` and zeros elsewhere.
    ``phase2`` holds the recorded phase-2 paths from those rows, newest
    first, and ``sightings`` the hashes of the (entering, leaving) pairs
    of phase 2s taken once and not recorded.  ``own_bytes`` counts the
    bytes of the arrays, those of the phase-2 paths left out.
    """

    leaves: tuple
    ratio_tested: int
    enters: np.ndarray
    bounds: np.ndarray
    rows: np.ndarray
    entries: np.ndarray
    cells: np.ndarray
    values: np.ndarray
    own_bytes: int
    phase2: tuple = ()
    sightings: tuple = ()

    @classmethod
    def record(cls, pairs: list, columns: list, ratio_tested: int,
               t2: np.ndarray) -> "_Phase1Path":
        cell_rows, cell_cols = t2[:-1, :-1].nonzero()
        bounds, rows = _packed([rows for rows, _ in columns], np.int32)
        arrays = (
            np.array([enter for enter, _ in pairs], dtype=np.int32),
            bounds, rows,
            np.concatenate([entries for _, entries in columns]),
            (cell_rows * t2.shape[1] + cell_cols).astype(np.int32),
            t2[cell_rows, cell_cols],
        )
        return cls(tuple(leave for _, leave in pairs), ratio_tested, *arrays,
                   sum(a.nbytes for a in arrays))

    @property
    def nbytes(self) -> int:
        return self.own_bytes + sum(path.nbytes for path in self.phase2)

    def sighted(self, pairs: tuple, shape: tuple) -> "_Phase1Path":
        """This path, with a phase 2 from its rows that took ``pairs`` noted:
        recorded the second time, remembered as a sighting the first."""
        seen = hash(pairs)
        if seen not in self.sightings:
            return self._replace(sightings=(seen, *self.sightings[:_PHASE2_PATHS - 1]))
        return self._replace(
            phase2=(_Phase2Path.derive(self, pairs, shape), *self.phase2[:_PHASE2_PATHS - 1]),
            sightings=tuple(s for s in self.sightings if s != seen))


class _Tableau(NamedTuple):
    """What every program of one memo key shares before phase 1.

    The matrices as their nonzero cells and values, for the content check;
    the rows divided by their seed pivot and those pivots; the crash basis
    with its artificial columns and the artificial rows, in the order the
    phase-1 objective row subtracts them; and the recorded phase-1 paths,
    newest first.  ``own_bytes`` counts the bytes of the arrays, those of
    the paths left out.
    """

    eq: tuple[np.ndarray, np.ndarray]
    ub: tuple[np.ndarray, np.ndarray]
    scaled_rows: np.ndarray
    seed_pivots: np.ndarray
    basis: np.ndarray
    art_rows: np.ndarray
    paths: tuple
    own_bytes: int

    @classmethod
    def start(cls, aeq: np.ndarray, aub: np.ndarray, *crash: np.ndarray) -> "_Tableau":
        """The tableau of ``aeq`` and ``aub`` with its crash arrays (scaled
        rows, seed pivots, basis, artificial rows) and no paths yet."""
        eq, ub = _nonzeros(aeq), _nonzeros(aub)
        return cls(eq, ub, *crash, (), sum(a.nbytes for a in (*eq, *ub, *crash)))

    @property
    def nbytes(self) -> int:
        return self.own_bytes + sum(path.nbytes for path in self.paths)


class _PathMemo:
    """Recorded pivot paths by tableau key, least recently used first,
    holding at most ``_MEMO_BYTES`` and ``_PATHS_PER_TABLEAU`` phase-1 paths
    a key.  A stored tableau is never changed, only replaced, and a lock
    keeps the memo whole when programs are solved on several threads."""

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

    def seen_before(self, key: tuple, aeq: np.ndarray, aub: np.ndarray) -> bool:
        """Whether a tableau of ``key`` with these matrices was seen before
        among the last ``_SEEN_TABLEAUX``; it is remembered either way."""
        seen = hash((key, aeq.tobytes(), aub.tobytes()))
        with self.lock:
            known = seen in self.seen
            self.seen[seen] = None
            self.seen.move_to_end(seen)
            if len(self.seen) > _SEEN_TABLEAUX:
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

    def record(self, key: tuple, tableau: _Tableau, path: _Phase1Path) -> None:
        """Store ``tableau`` with ``path`` added as the tableau of ``key``."""
        self.store(key, tableau._replace(paths=(path, *tableau.paths[:_PATHS_PER_TABLEAU - 1])))

    def replace(self, key: tuple, tableau: _Tableau, old: _Phase1Path,
                new: _Phase1Path) -> None:
        """Store ``tableau`` with its path ``old`` replaced by ``new``."""
        self.store(key, tableau._replace(
            paths=tuple(new if path is old else path for path in tableau.paths)))

    def store(self, key: tuple, tableau: _Tableau) -> None:
        """Store ``tableau`` as the tableau of ``key``, unless it alone would
        exceed the memo's bytes."""
        nbytes = tableau.nbytes
        if nbytes > _MEMO_BYTES:
            return  # storing it would push out every other tableau, then itself
        with self.lock:
            old = self.tableaux.pop(key, None)
            if old is not None:
                self.nbytes -= old.nbytes
            self.tableaux[key] = tableau
            self.nbytes += nbytes
            while self.nbytes > _MEMO_BYTES:
                self.nbytes -= self.tableaux.popitem(last=False)[1].nbytes


_MEMO = _PathMemo()


def _pivot_rhs(rhs: list, rows: list, entries: list, leave: int) -> None:
    """The rhs column of :func:`_eliminate`, on Python floats."""
    q = rhs[leave] / entries[rows.index(leave)]
    for r, e in zip(rows, entries):
        rhs[r] -= e * q
    rhs[leave] = q


def _replay(key: tuple, tableau: _Tableau, b: np.ndarray, c: np.ndarray, lo: np.ndarray,
            ncols: int) -> LpSolution | None:
    """Solve from a recorded phase-1 path of ``tableau`` on the rhs ``b``,
    or return None when the ratio test leaves every recorded path."""
    rhs = b.tolist()
    for r, p in zip(tableau.scaled_rows.tolist(), tableau.seed_pivots.tolist()):
        rhs[r] /= p
    objective = 0.0  # the phase-1 objective row's rhs, as its ordered reduction
    for r in tableau.art_rows.tolist():
        objective -= rhs[r]
    rhs.append(objective)
    basis = tableau.basis.tolist()
    paths = tableau.paths
    path = paths[0]
    enters, bounds = path.enters.tolist(), path.bounds.tolist()
    rows, entries = path.rows.tolist(), path.entries.tolist()
    k = 0
    while k < path.ratio_tested:
        pivot_rows = rows[bounds[k]:bounds[k + 1]]
        pivot_entries = entries[bounds[k]:bounds[k + 1]]
        leave = _leaving_row(pivot_rows, pivot_entries, rhs, basis)
        if leave != path.leaves[k]:
            # a path with the same pivots so far has the same tableau here
            prefix = path.leaves[:k] + (leave,)
            path = next((p for p in paths if p.leaves[:k + 1] == prefix), None)
            if path is None:
                return None
            enters, bounds = path.enters.tolist(), path.bounds.tolist()
            rows, entries = path.rows.tolist(), path.entries.tolist()
        _pivot_rhs(rhs, pivot_rows, pivot_entries, leave)
        basis[leave] = enters[k]
        k += 1
    if -rhs[-1] > FEAS_TOL:
        return LpSolution(LpStatus.INFEASIBLE, None, None, k, phase1_replayed=k)
    for k in range(path.ratio_tested, len(path.leaves)):
        leave = path.leaves[k]
        _pivot_rhs(rhs, rows[bounds[k]:bounds[k + 1]], entries[bounds[k]:bounds[k + 1]], leave)
        basis[leave] = enters[k]

    keep = [i for i, j in enumerate(basis) if j < ncols]
    t2 = np.zeros((len(keep) + 1, ncols + 1))
    t2.reshape(-1)[path.cells] = path.values
    t2[:-1, -1] = [rhs[i] for i in keep]
    phase1 = len(path.leaves)
    solution, pairs = _phase2(t2, np.array([basis[i] for i in keep], dtype=np.intp), c, lo,
                              phase1, phase1, path.phase2)
    if pairs:
        _MEMO.replace(key, tableau, path, path.sighted(pairs, t2.shape))
    return solution


def _branch(paths: tuple, prefix: tuple, pivot: tuple):
    """The newest of the phase-2 ``paths`` that starts with the pivots
    ``prefix`` and then ``pivot``, an entering column or an entering column
    and leaving row; None when no path does."""
    k = len(prefix)
    return next((p for p in paths if p.pairs[:k] == prefix and len(p.pairs) > k
                 and p.pairs[k][:len(pivot)] == pivot), None)


def _follow(paths: tuple, obj: list, rhs: list, basis: list) -> tuple:
    """Take phase-2 pivots along the recorded ``paths`` on the objective row
    ``obj``, ``rhs`` and ``basis`` alone, updating them as a full pivot does.

    Each entering column is Bland's choice on ``obj`` and each leaving row
    the ratio test's on ``rhs``.  Where either leaves the path followed, a
    path with the same pivots so far and this choice is followed instead:
    those pivots fix the tableau, so that path holds this program's rows
    and entries too.  Returns the outcome ("optimal", "unbounded", or None
    when the choices leave every path), the pivots taken and a path that
    holds them.
    """
    # the eligible columns change only where a pivot row is nonzero
    eligible = {j for j, cost in enumerate(obj) if cost < -PIVOT_TOL}
    path = paths[0]
    pairs = path.pairs
    bounds, rows, entries, starts, cols, values = _lists(path)
    k = 0
    while eligible:
        enter = min(eligible)
        if k == len(pairs) or pairs[k][0] != enter:
            other = _branch(paths, pairs[:k], (enter,))
            if other is None:
                return None, k, path
            path, pairs = other, other.pairs
            bounds, rows, entries, starts, cols, values = _lists(path)
        pivot_rows = rows[bounds[k]:bounds[k + 1]]
        pivot_entries = entries[bounds[k]:bounds[k + 1]]
        leave = _leaving_row(pivot_rows, pivot_entries, rhs, basis)
        if pairs[k][1] != leave:
            other = _branch(paths, pairs[:k], (enter, leave))
            if other is None:
                return None, k, path
            path, pairs = other, other.pairs
            bounds, rows, entries, starts, cols, values = _lists(path)
        if leave < 0:
            return "unbounded", k, path
        _pivot_rhs(rhs, pivot_rows, pivot_entries, leave)
        e = obj[enter]
        for j, v in zip(cols[starts[k]:starts[k + 1]], values[starts[k]:starts[k + 1]]):
            cost = obj[j] = obj[j] - e * v
            if cost < -PIVOT_TOL:
                eligible.add(j)
            else:
                eligible.discard(j)
        basis[leave] = enter
        k += 1
    return "optimal", k, path


def _lists(path: _Phase2Path) -> list:
    return [a.tolist() for a in (path.bounds, path.rows, path.entries, path.starts,
                                 path.cols, path.values)]


def _phase2(t2: np.ndarray, basis2: np.ndarray, c: np.ndarray, lo: np.ndarray,
            phase1: int, phase1_replayed: int, paths: tuple) -> tuple[LpSolution, tuple]:
    """Phase 2 on the kept constraint rows of ``t2``, whose last row becomes
    the reduced costs of the real objective ``c``, followed along the
    recorded phase-2 ``paths`` while they hold its pivots.  Returns the
    solution and the (entering, leaving) pairs of its pivots when some were
    taken on the tableau's rows, and at most ``_PHASE2_PIVOTS``; else ()."""
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

    taken = ()
    if paths:
        obj, rhs, basis = t2[-1, :ncols].tolist(), t2[:-1, -1].tolist(), basis2.tolist()
        outcome, phase2, path = _follow(paths, obj, rhs, basis)
        if outcome is not None:
            return _solution(outcome, c, lo, ncols, basis, rhs, phase1, phase2,
                             phase1_replayed, phase2), ()
        # left every path: its pivots so far, taken on the rows, give the
        # tableau the full solve has here, and the objective row is carried
        t2[-1, :ncols] = obj
        taken = path.pairs[:phase2]
        for k, (enter, leave) in enumerate(taken):
            bounds = slice(path.bounds[k], path.bounds[k + 1])
            _eliminate(t2[:-1], basis2, leave, enter, path.rows[bounds], path.entries[bounds])
    pairs = list(taken)
    outcome, phase2 = _pivot_until_optimal(t2, basis2, ncols, pairs, None, len(taken))
    solution = _solution(outcome, c, lo, ncols, basis2, t2[:-1, -1], phase1, phase2,
                         phase1_replayed, 0)
    return solution, tuple(pairs) if len(pairs) <= _PHASE2_PIVOTS else ()


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
    tableau = _MEMO.find(key, aeq, aub)
    if tableau is not None:
        solution = _replay(key, tableau, b, c, lo, ncols)
        if solution is not None:
            return solution

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
    # a tableau is recorded by the second program that has it
    recording = nart and (tableau is not None or _MEMO.seen_before(key, aeq, aub))
    if nart:
        crash_basis = basis.copy()
        # phase 1: minimize the sum of artificial variables; the objective
        # row starts as the artificials' costs and subtracts each artificial
        # row in turn, in one ordered reduction
        t[m, ncols:ncols + nart] = 1.0
        t[m] = np.subtract.reduce(t[np.concatenate(([m], art_rows))], axis=0)
        pairs, columns = [], ([] if recording else None)
        outcome, phase1 = _pivot_until_optimal(t, basis, ncols + nart, pairs, columns)
        if outcome == "unbounded":
            # the phase-1 objective is bounded below by zero
            raise ArithmeticError("phase-1 simplex reported an unbounded ray")
        if -t[m, -1] > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None, phase1)
        ratio_tested = phase1
        # drive artificials still basic (at zero) out where a real column can
        # replace them; a pivot only changes the basis of its own row
        for i in (basis >= ncols).nonzero()[0]:
            nz = (np.abs(t[i, :ncols]) > PIVOT_TOL).nonzero()[0]
            if nz.size:
                j = int(nz[0])
                rows = t[:, j].nonzero()[0]
                entries = t[rows, j]
                _eliminate(t, basis, i, j, rows, entries)
                pairs.append((j, int(i)))
                if recording:
                    columns.append((rows, entries))
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
    path = None
    if recording:
        if tableau is None:
            tableau = _Tableau.start(aeq, aub, scaled, piv, crash_basis, art_rows)
        # a stored tableau fits the memo; a new one that does not is not recorded
        if tableau.paths or tableau.nbytes <= _MEMO_BYTES:
            # before phase 2 pivots on t2
            path = _Phase1Path.record(pairs, columns, ratio_tested, t2)
    solution, pairs = _phase2(t2, basis2, c, lo, phase1, 0, ())
    if path is not None:
        _MEMO.record(key, tableau, path.sighted(pairs, t2.shape) if pairs else path)
    return solution
