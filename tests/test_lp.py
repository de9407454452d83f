import dataclasses
import sys
import threading
import time

import lp_dense_reference
import numpy as np
import pytest
from helpers import assert_same_solution, solve_cold, solve_recorded

from coopgrid import lp
from coopgrid.dispatch import build_coalition_lp
from coopgrid.errors import LpValidationError
from coopgrid.game import coalition_members
from coopgrid.lp import PIVOT_TOL, LpStatus, make_program, solve_lp, validate_lp
from coopgrid.oracles import brute_force_lp, random_box_lp
from coopgrid.scenario import generate_synthetic_scenario, slice_horizon
from coopgrid.sim import SimConfig, SimMode, run


def test_bound_active_minimum():
    prog = make_program([1.0], lower=[3.0], upper=[10.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.point[0] == pytest.approx(3.0, abs=1e-10)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-10)


def test_unbounded_ray():
    prog = make_program([-1.0], lower=[0.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.point is None and sol.objective_value is None


def test_equality_and_inequality_mix():
    # min x0 + x1 s.t. x0 + x1 = 2, x0 - x1 <= 0, 0 <= x <= 3
    prog = make_program([1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[2.0],
                        ub_matrix=[[1.0, -1.0]], ub_rhs=[0.0],
                        lower=[0.0, 0.0], upper=[3.0, 3.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
    assert sol.point[0] <= sol.point[1] + 1e-9


def test_infeasible_detected():
    prog = make_program([1.0], eq_matrix=[[1.0]], eq_rhs=[5.0],
                        lower=[0.0], upper=[1.0])
    assert solve_lp(prog).status is LpStatus.INFEASIBLE


def test_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(7)
    n_optimal = 0
    for _ in range(300):
        prog = random_box_lp(rng)
        got = solve_lp(prog)
        want = brute_force_lp(prog)
        assert got.status is want.status
        if got.status is LpStatus.OPTIMAL:
            n_optimal += 1
            tol = 1e-8 * max(1.0, abs(want.objective_value))
            assert abs(got.objective_value - want.objective_value) <= tol
    assert n_optimal > 200  # the generator must mostly produce feasible programs


def test_returned_point_is_feasible():
    rng = np.random.default_rng(11)
    for _ in range(200):
        prog = random_box_lp(rng)
        sol = solve_lp(prog)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        x = sol.point
        assert np.all(x >= prog.lower - 1e-10)
        assert np.all(x <= prog.upper + 1e-10)
        if prog.eq_matrix.shape[0]:
            assert np.max(np.abs(prog.eq_matrix @ x - prog.eq_rhs)) <= 1e-8
        if prog.ub_matrix.shape[0]:
            assert np.max(prog.ub_matrix @ x - prog.ub_rhs) <= 1e-8


def test_determinism_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(25):
        prog = random_box_lp(rng)
        first = solve_lp(prog)
        second = solve_lp(prog)
        assert first.status is second.status
        if first.status is LpStatus.OPTIMAL:
            assert first.objective_value == second.objective_value
            assert np.array_equal(first.point, second.point)


def test_validate_well_formed():
    prog = make_program([1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    assert validate_lp(prog) == []


def test_validate_rhs_length_mismatch():
    prog = make_program([1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    prog.eq_rhs = np.array([1.0, 2.0])
    issues = validate_lp(prog)
    assert len(issues) == 1
    assert "eq_rhs" in issues[0]


def test_validate_crossed_bounds():
    prog = make_program([1.0], lower=[1.0], upper=[0.0])
    issues = validate_lp(prog)
    assert len(issues) == 1
    assert "crossed bounds" in issues[0]


def _malformed_variants():
    base = make_program([1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0],
                        ub_matrix=[[1.0, -1.0]], ub_rhs=[0.5],
                        lower=[0.0, -1.0], upper=[3.0, np.inf])
    yield base
    for field in ("objective", "eq_matrix", "eq_rhs", "ub_matrix", "ub_rhs",
                  "lower", "upper"):
        for bad in (np.nan, np.inf, -np.inf):
            arr = getattr(base, field).copy()
            arr.flat[0] = bad
            yield dataclasses.replace(base, **{field: arr})
    for field, value in (("objective", np.zeros(0)), ("objective", np.ones((1, 2))),
                         ("eq_rhs", np.ones(2)), ("ub_matrix", np.ones((1, 3))),
                         ("ub_matrix", np.ones(2)), ("lower", np.zeros(1)),
                         ("upper", np.ones(3)), ("lower", np.array([4.0, 0.0]))):
        yield dataclasses.replace(base, **{field: value})


def test_validate_reports_every_malformed_field():
    programs = list(_malformed_variants())
    flagged = [bool(validate_lp(prog)) for prog in programs]
    # all but the base program and the one whose first upper bound is +inf
    assert flagged.count(False) == 2 and not flagged[0]
    for prog, bad in zip(programs, flagged):
        if bad:
            with pytest.raises(LpValidationError):
                solve_lp(prog)


def test_solve_rejects_malformed():
    prog = make_program([1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    prog.eq_rhs = np.array([1.0, 2.0])
    with pytest.raises(LpValidationError):
        solve_lp(prog)


# --- the row-sparse solver against the dense-tableau reference ---------------

def _degenerate_lp(rng):
    """Small-integer program whose <= rows mostly have rhs 0, so ratio tests
    tie often and Bland's smallest-basic-index tie-break decides the pivot."""
    n = int(rng.integers(2, 7))
    me = int(rng.integers(0, 3))
    mu = int(rng.integers(2, 8))
    anchor = rng.integers(0, 3, n).astype(float)
    aeq = rng.integers(-2, 3, (me, n)).astype(float)
    aub = rng.integers(-2, 3, (mu, n)).astype(float)
    bub = np.where(rng.uniform(size=mu) < 0.7, 0.0, rng.integers(1, 3, mu).astype(float))
    upper = np.where(rng.uniform(size=n) < 0.3, np.inf, rng.integers(1, 4, n).astype(float))
    return make_program(rng.integers(-3, 4, n).astype(float), aeq, aeq @ anchor,
                        aub, bub, lower=np.zeros(n), upper=upper)


@pytest.mark.parametrize("seed", [7, 11, 23, 102, 20240917])
def test_matches_dense_reference_on_random_programs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        prog = random_box_lp(rng)
        assert_same_solution(solve_lp(prog), lp_dense_reference.solve_lp(prog))
    for _ in range(50):
        prog = random_box_lp(rng, max_vars=12, max_eq=5, max_ub=10)
        assert_same_solution(solve_lp(prog), lp_dense_reference.solve_lp(prog))


def test_matches_dense_reference_on_ratio_ties(monkeypatch):
    broken = {"ties": 0, "later_row": 0}
    real_pivot = lp_dense_reference._pivot

    def watching_pivot(t, basis, row, col, buf):
        # recompute the reference's ratio test to see which pivots it tie-broke
        m = t.shape[0] - 1
        rows = np.flatnonzero(t[:m, col] > PIVOT_TOL)
        if rows.size:
            ratios = t[rows, -1] / t[rows, col]
            rmin = ratios.min()
            tie = rows[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
            if tie.size > 1 and row in tie:
                broken["ties"] += 1
                broken["later_row"] += int(row != tie[0])
        real_pivot(t, basis, row, col, buf)

    monkeypatch.setattr(lp_dense_reference, "_pivot", watching_pivot)
    rng = np.random.default_rng(41)
    statuses = set()
    for _ in range(400):
        prog = _degenerate_lp(rng)
        want = lp_dense_reference.solve_lp(prog)
        assert_same_solution(solve_lp(prog), want)
        statuses.add(want.status)
    assert statuses == set(LpStatus)
    # the tie-break must have picked a row other than the first tied one
    assert broken["later_row"] > 0, broken


def _coalition_programs(hs, storage, caps):
    """The dispatch program of every coalition of the slice's nodes."""
    for mask in range(1, 1 << len(hs.node_ids)):
        members = list(coalition_members(mask))
        yield build_coalition_lp(hs.select(members), storage[members], caps[members])


def test_matches_dense_reference_on_reference_step_zero(ref_scenario):
    hs = slice_horizon(ref_scenario, 0, 5)
    phase1 = 0
    for prog in _coalition_programs(hs, ref_scenario.storage_init,
                                    ref_scenario.storage_capacities):
        got = solve_lp(prog)
        assert_same_solution(got, lp_dense_reference.solve_lp(prog))
        assert got.status is LpStatus.OPTIMAL
        phase1 += got.phase1_pivots
    assert phase1 > 0


def test_matches_dense_reference_on_zero_capacity_programs(ref_scenario):
    hs = slice_horizon(ref_scenario, 0, 5)
    zero = np.zeros(ref_scenario.n_nodes)
    negative_zero_bounds = 0
    for prog in _coalition_programs(hs, zero, zero):
        negative_zero_bounds += int(np.signbit(prog.lower).sum())
        got = solve_lp(prog)
        assert_same_solution(got, lp_dense_reference.solve_lp(prog))
        assert got.status is LpStatus.OPTIMAL
    # the storage-delta lower bound -capacity is -0.0
    assert negative_zero_bounds > 0


def test_matches_dense_reference_on_generated_world_every_step():
    world = generate_synthetic_scenario(17, n_nodes=5, n_steps=8)
    config = SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-4)
    trace = run(world, config)
    storage = world.storage_init
    for res in trace.steps:
        hs = slice_horizon(world, res.step, config.horizon)
        for prog in _coalition_programs(hs, storage, world.storage_capacities):
            assert_same_solution(solve_lp(prog), lp_dense_reference.solve_lp(prog))
        storage = res.storage_after


# --- crash basis ---------------------------------------------------------------

@pytest.mark.parametrize("objective, status", [([1.0, 2.0], LpStatus.OPTIMAL),
                                               ([1.0, -1.0], LpStatus.UNBOUNDED)])
def test_no_constraint_rows(objective, status):
    prog = make_program(objective, lower=[1.0, -2.0])
    sol = solve_lp(prog)
    assert sol.status is status
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
    assert_same_solution(sol, lp_dense_reference.solve_lp(prog))
    if status is LpStatus.OPTIMAL:
        assert np.array_equal(sol.point, [1.0, -2.0])


def test_crash_basis_seeds_smaller_singleton_column():
    # x0 and x1 both appear only in the one row; with a zero objective the
    # crash basis is already optimal, so the point shows which column seeded
    prog = make_program([0.0, 0.0], eq_matrix=[[2.0, 4.0]], eq_rhs=[6.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.OPTIMAL
    assert np.array_equal(sol.point, [3.0, 0.0])
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
    assert_same_solution(sol, lp_dense_reference.solve_lp(prog))


def test_crash_basis_skips_negative_singleton_column():
    # x0 appears only in row 0, with a negative entry, so row 0 needs an
    # artificial; x2 seeds row 1
    prog = make_program([1.0, 0.0, 0.0], eq_matrix=[[-1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                        eq_rhs=[1.0, 5.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.OPTIMAL
    assert np.array_equal(sol.point, [0.0, 1.0, 4.0])
    assert sol.phase1_pivots == 1
    assert_same_solution(sol, lp_dense_reference.solve_lp(prog))


# --- phase-1 replay --------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 41])
def test_programs_solved_twice_match_dense_reference(seed, replays):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        for prog in (random_box_lp(rng), _degenerate_lp(rng)):
            want = lp_dense_reference.solve_lp(prog)
            # the first solve sees the program's tableau, the second records it
            assert_same_solution(solve_lp(prog), want)
            assert_same_solution(solve_lp(prog), want)
            attempts = len(replays)
            assert_same_solution(solve_lp(prog), want)
            # a solve that finds the program's tableau replays its own path
            assert replays[attempts:] in ([], [True])
    assert replays.count(True) >= 50


def _shared_tableau_lp(eq_rhs, ub_rhs):
    """Programs with one tableau key: the same matrices, bounds and rhs signs."""
    return make_program([3.0, -1.0, 0.0, 0.0],
                        [[2.0, 2.0, 2.0, -1.0], [0.0, 0.0, 2.0, 2.0]], eq_rhs,
                        [[0.0, 2.0, 1.0, 1.0], [1.0, 2.0, 2.0, 0.0]], ub_rhs,
                        upper=np.full(4, 3.0))


def _phase1_paths(node, leaves=()) -> list:
    """The leaving rows of every phase 1 recorded in the tree from ``node``,
    in the order they were recorded."""
    if type(node) is lp._End:
        return [leaves]
    kids = node.kids
    return [path for i in range(0, len(kids), 2)
            for path in _phase1_paths(kids[i + 1], leaves + (kids[i],))]


def test_replay_falls_back_where_the_ratio_test_leaves_the_path(replays):
    first = _shared_tableau_lp([1.0, 1.0], [2.0, 1.0])
    second = _shared_tableau_lp([1.0, 1.0], [1.0, 2.0])
    cold = [solve_cold(first), solve_cold(second)]
    for prog, want in zip((first, second), cold):
        assert_same_solution(want, lp_dense_reference.solve_lp(prog))
    replays.clear()
    assert_same_solution(solve_recorded(first), cold[0])
    assert_same_solution(solve_lp(second), cold[1])
    assert replays == [False]
    # the second program followed the first one's path for two pivots
    (tableau,) = lp._MEMO.tableaux.values()
    old, new = _phase1_paths(tableau.root)
    assert new[:2] == old[:2] and new[2] != old[2]
    # with both paths recorded, each program replays its own
    assert_same_solution(solve_lp(first), cold[0])
    assert_same_solution(solve_lp(second), cold[1])
    assert replays == [False, True, True]


def test_tree_that_would_outgrow_the_memo_stops_growing(monkeypatch, replays):
    first = _shared_tableau_lp([1.0, 1.0], [2.0, 1.0])
    second = _shared_tableau_lp([1.0, 1.0], [1.0, 2.0])
    cold = [solve_cold(first), solve_cold(second)]
    solve_recorded(first)
    (tableau,) = lp._MEMO.tableaux.values()
    monkeypatch.setattr(lp, "_MEMO_BYTES", tableau.nbytes + 1)
    replays.clear()
    # the second program leaves the recorded path, and its phase 1 would not
    # fit, so it is solved on the tableau every time
    assert_same_solution(solve_lp(second), cold[1])
    assert_same_solution(solve_lp(second), cold[1])
    assert replays == [False, False]
    assert len(_phase1_paths(tableau.root)) == 1
    assert [t is tableau for t in lp._MEMO.tableaux.values()] == [True]
    assert lp._MEMO.nbytes == tableau.nbytes == tableau.held() + _tree_bytes(tableau.root)
    assert_same_solution(solve_lp(first), cold[0])
    assert replays == [False, False, True]


def test_matrix_changed_in_place_is_not_replayed(replays):
    prog = _shared_tableau_lp([1.0, 1.0], [2.0, 1.0])
    lp._MEMO.clear()
    before = solve_lp(prog)
    # same shapes, bounds and rhs signs: only the content tells the tableaux apart
    prog.eq_matrix[0, 1] = 3.0
    want = lp_dense_reference.solve_lp(prog)
    assert want.point.tobytes() != before.point.tobytes()
    got = solve_lp(prog)
    assert replays == []
    assert_same_solution(got, want)
    assert_same_solution(got, solve_cold(prog))


def test_infeasible_program_replays_a_feasible_path(replays):
    def program(b):
        # x0 + x1 = 1 and x0 + x1 = b: at b = 1 the ratio test ties, and
        # Bland's rule makes row 0 leave, as at b = 2, which is infeasible;
        # at b = 1 row 1 is redundant, so no artificial is driven out
        return make_program([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, b])

    feasible, infeasible = program(1.0), program(2.0)
    want = lp_dense_reference.solve_lp(infeasible)
    assert want.status is LpStatus.INFEASIBLE and want.phase1_pivots == 1
    assert_same_solution(solve_cold(infeasible), want)
    assert_same_solution(solve_recorded(feasible), lp_dense_reference.solve_lp(feasible))
    nbytes = lp._MEMO.nbytes
    # the replay follows the feasible path to its end, finds the phase 1
    # infeasible there and returns no start: the tableau solves it, and
    # records nothing
    solution = solve_lp(infeasible)
    assert_same_solution(solution, want)
    assert solution.phase1_replayed == 0
    assert replays == [False]
    assert lp._MEMO.nbytes == nbytes


def test_tableau_too_big_for_the_memo_is_not_stored(monkeypatch, replays):
    small = _shared_tableau_lp([1.0, 1.0], [2.0, 1.0])
    # independent copies of the small program, enough for the big tableau
    # alone to outweigh the small one with its tree (20 do, by 28 bytes on
    # CPython 3.11; 24 by about 500)
    blocks = np.eye(24)
    big = make_program(np.tile(small.objective, 24), np.kron(blocks, small.eq_matrix),
                       np.tile(small.eq_rhs, 24), np.kron(blocks, small.ub_matrix),
                       np.tile(small.ub_rhs, 24), upper=np.full(96, 3.0))
    want = lp_dense_reference.solve_lp(big)
    offered = []  # the bytes of each tableau offered a phase 1, before it
    add = lp._MEMO.add
    monkeypatch.setattr(lp._MEMO, "add", lambda key, tableau, links: offered.append(
        tableau.nbytes) or add(key, tableau, links))
    solve_recorded(big)
    (whole,) = lp._MEMO.tableaux.values()
    alone = offered[-1]
    small_cold = solve_recorded(small)
    (kept,) = lp._MEMO.tableaux.values()
    offered.clear()
    budgets = (alone - 1, whole.nbytes - 1)
    monkeypatch.setattr(lp, "_MEMO_BYTES", budgets[0])
    assert_same_solution(solve_lp(big), want)  # seen, so from now on it would be recorded
    # the big tableau outgrows the memo alone, then only with its path;
    # either way its path is offered and refused
    for budget in budgets:
        assert kept.nbytes <= budget
        monkeypatch.setattr(lp, "_MEMO_BYTES", budget)
        assert_same_solution(solve_lp(big), want)
        # not stored, and nothing pushed out to make room for it
        assert [t is kept for t in lp._MEMO.tableaux.values()] == [True]
        assert lp._MEMO.nbytes == kept.nbytes
    assert offered == [alone, alone]
    assert_same_solution(solve_lp(small), small_cold)
    assert replays == [True]


def _on_threads(work, seeds) -> list:
    """Run ``work(seed)`` on one thread per seed, more threads than cores and
    switching often; return the exceptions they raised."""
    failures = []

    def run(seed):
        try:
            work(seed)
        except Exception as exc:  # reported by the calling thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return failures


def _tree_bytes(node) -> int:
    """The bytes the nodes of the tree from ``node`` hold, counted afresh."""
    kids = node.kids
    return node.held() + sum(_tree_bytes(kids[i]) for i in range(1, len(kids), 2))


def _assert_memo_whole(bound: int) -> None:
    """The memo counts the bytes its tableaux and trees hold, within ``bound``."""
    tableaux = list(lp._MEMO.tableaux.values())
    assert tableaux and lp._MEMO.nbytes == sum(t.nbytes for t in tableaux) <= bound
    for tableau in tableaux:
        assert tableau.nbytes == tableau.held() + _tree_bytes(tableau.root)


def test_solves_on_threads_match_cold_solves():
    rng = np.random.default_rng(5)
    programs = [_degenerate_lp(rng) for _ in range(30)]
    programs += [_shared_tableau_lp(rng.integers(1, 5, 2).astype(float),
                                    rng.integers(1, 5, 2).astype(float)) for _ in range(30)]
    want = [solve_cold(prog) for prog in programs]
    lp._MEMO.clear()

    def solve_all(seed):
        for i in np.random.default_rng(seed).permutation(60).tolist() * 3:
            assert_same_solution(solve_lp(programs[i]), want[i])

    failures = _on_threads(solve_all, range(6))
    assert not failures, failures[0]
    _assert_memo_whole(lp._MEMO_BYTES)
    # the programs of one tableau grew one tree of several phase 1s
    assert max(len(_phase1_paths(t.root)) for t in lp._MEMO.tableaux.values()) > 1


def test_memo_stays_whole_under_threads(monkeypatch):
    # tableaux, phase 1s and phase 2s recorded by threads into one memo
    # small enough to evict all the time
    rng = np.random.default_rng(5)
    programs = [_degenerate_lp(rng) for _ in range(40)]
    programs += [_one_start_lp(costs) for costs in (
        [-2.0, -2.0, 0.0, 0.0, -2.0, -1.0], [-2.0, 1.0, -2.0, 2.0, 2.0, -2.0],
        [-2.0, -1.0, -1.0, 2.0, -2.0, -2.0])] * 10
    want = [solve_cold(prog) for prog in programs]
    lp._MEMO.clear()
    monkeypatch.setattr(lp, "_MEMO_BYTES", 30_000)

    def solve_all(seed):
        if seed < 0:  # a watcher: the counts hold whenever the lock is free
            for _ in range(300):
                with lp._MEMO.lock:
                    counts = [t.nbytes for t in lp._MEMO.tableaux.values()]
                    assert lp._MEMO.nbytes == sum(counts) <= 30_000
                time.sleep(1e-4)
            return
        for i in np.random.default_rng(seed).integers(0, len(programs), 1000).tolist():
            assert_same_solution(solve_lp(programs[i]), want[i])

    failures = _on_threads(solve_all, [-1, *range(6)])
    assert not failures, failures[0]
    # a lost update would leave the byte counts off the trees they count
    _assert_memo_whole(30_000)
    assert any(end.kids for t in lp._MEMO.tableaux.values() for end in _ends(t.root))


def _ends(node) -> list:
    """The phase-1 ends of the tree from ``node``."""
    if type(node) is lp._End:
        return [node]
    kids = node.kids
    return [end for i in range(1, len(kids), 2) for end in _ends(kids[i])]


def test_non_integral_program_keeps_float64_storage(replays):
    rng = np.random.default_rng(19)
    prog = next(p for p in (random_box_lp(rng, max_vars=6) for _ in range(100))
                if p.eq_matrix.shape[0] and lp_dense_reference.solve_lp(p).phase1_pivots > 1)
    want = lp_dense_reference.solve_lp(prog)
    assert_same_solution(solve_recorded(prog), want)
    (tableau,) = lp._MEMO.tableaux.values()
    (end,) = _ends(tableau.root)
    assert tableau.eq[1].dtype == end.values.dtype == np.float64
    assert_same_solution(solve_lp(prog), want)
    assert replays == [True]


def test_dispatch_programs_are_stored_in_small_integers(ref_scenario, replays):
    hs = slice_horizon(ref_scenario, 0, 5)
    progs = list(_coalition_programs(hs, ref_scenario.storage_init,
                                     ref_scenario.storage_capacities))
    grand = progs[-1]
    want = lp_dense_reference.solve_lp(grand)
    assert_same_solution(solve_recorded(grand), want)
    (tableau,) = lp._MEMO.tableaux.values()
    (end,) = _ends(tableau.root)
    assert tableau.eq[1].dtype == end.values.dtype == np.int8
    assert tableau.eq[0].dtype == np.uint16 and end.cells.dtype == np.uint16
    # every node holds the tableau's stored tuples
    rows, entries = tableau.tuples
    node = tableau.root
    while type(node) is lp._Column:
        assert node.rows is rows[node.rows] and node.entries is entries[node.entries]
        node = node.kids[1]
    assert_same_solution(solve_lp(grand), want)
    assert replays == [True]


# --- phase-2 replay --------------------------------------------------------------

def _one_start_lp(objective, eq_rhs=(1.0, 2.0), ub_rhs=(3.0, 5.0, 4.0)):
    """Programs with one tableau key whose phase 1 takes one path at these
    rhs, so that their phase 2s start from the same rows."""
    return make_program(objective, [[-1.0, 1.0, -1.0, 0.0, 2.0, -1.0],
                                    [1.0, 0.0, 0.0, 2.0, -1.0, 2.0]], list(eq_rhs),
                        [[2.0, 0.0, 2.0, 0.0, 0.0, 0.0], [2.0, 2.0, 0.0, 1.0, 1.0, 0.0],
                         [1.0, 2.0, 0.0, 2.0, 0.0, 0.0]], list(ub_rhs),
                        upper=[np.inf, 4.0, np.inf, np.inf, 4.0, 4.0])


def _solved(*programs) -> list:
    """``solve_lp`` of each program in turn, each checked against the dense reference."""
    solutions = []
    for prog in programs:
        solutions.append(solve_lp(prog))
        assert_same_solution(solutions[-1], lp_dense_reference.solve_lp(prog))
    return solutions


def _seen(prog) -> None:
    """Leave an empty memo that has seen the tableau of ``prog``, so that the
    next program with that tableau records its phase-1 path."""
    solve_cold(prog)


def _phase2_replayed(solutions) -> list:
    return [sol.phase2_replayed for sol in solutions]


def _phase2_paths(kids=None, pairs=()) -> list:
    """The (entering, leaving) pairs of every phase 2 recorded in the tree
    from ``kids``, by default that of the one phase 1 recorded, in the order
    they were recorded."""
    if kids is None:
        (tableau,) = lp._MEMO.tableaux.values()
        (pairs_of_phase1,) = _phase1_paths(tableau.root)
        end = tableau.root
        for leave in pairs_of_phase1:
            end = lp._kid(end.kids, leave)
        kids = end.kids
    paths = []
    for i in range(0, len(kids), 2):
        enter, column = kids[i], kids[i + 1]
        for j in range(0, len(column.kids), 2):
            leave, row = column.kids[j], column.kids[j + 1]
            paths += _phase2_paths(row.kids, pairs + ((enter, leave),)) or [
                pairs + ((enter, leave),)]
    return paths


def test_phase2_path_recorded_the_second_time_is_replayed_the_third():
    prog = _one_start_lp([-2.0, -1.0, -1.0, 2.0, -2.0, -2.0])
    _seen(prog)
    solutions = _solved(prog, prog, prog)
    assert [sol.phase2_pivots for sol in solutions] == [8, 8, 8]
    # phase 1 is recorded by the first solve after the tableau was seen,
    # phase 2 by the second
    assert [sol.phase1_replayed for sol in solutions] == [0, 4, 4]
    assert _phase2_replayed(solutions) == [0, 0, 8]


def test_phase2_replay_switches_paths_where_the_entering_column_differs():
    first = _one_start_lp([-2.0, -2.0, 0.0, 0.0, -2.0, -1.0])
    second = _one_start_lp([-2.0, 1.0, -2.0, 2.0, 2.0, -2.0])
    _seen(first)
    _solved(first, first)
    # the second program follows the first one's path for five pivots, then
    # enters another column, so it is solved on the tableau and recorded
    assert _phase2_replayed(_solved(second, second)) == [0, 0]
    old, new = _phase2_paths()
    assert new[:5] == old[:5] and new[5][0] != old[5][0]
    # each program replays its own path, switching at pivot 5 where it differs
    assert _phase2_replayed(_solved(first, second, first)) == [6, 6, 6]


def test_phase2_replay_switches_paths_where_the_leaving_row_differs():
    costs = [-2.0, -1.0, -1.0, 2.0, -2.0, -2.0]
    first, second = _one_start_lp(costs), _one_start_lp(costs, (1.0, 1.0), (2.0, 4.0, 3.0))
    _seen(first)
    _solved(first, first, second, second)
    old, new = _phase2_paths()
    assert new[:2] == old[:2]
    assert new[2][0] == old[2][0] and new[2][1] != old[2][1]
    assert _phase2_replayed(_solved(first, second, first)) == [8, 5, 8]


def test_phase2_replay_stops_where_the_program_is_optimal():
    short = _one_start_lp([-2.0, -2.0, -2.0, -2.0, -2.0, -2.0])
    long = _one_start_lp([-2.0, -1.0, -1.0, 1.0, -2.0, -2.0])
    _seen(long)
    _solved(long, long)
    (path,) = _phase2_paths()
    assert len(path) == 7
    # optimal after the first four pivots of the recorded path
    assert _phase2_replayed(_solved(short)) == [4]


def test_phase2_replay_past_the_end_of_its_path_is_solved_on_the_tableau():
    short = _one_start_lp([-2.0, -2.0, -2.0, -2.0, -2.0, -2.0])
    long = _one_start_lp([-2.0, -1.0, -1.0, 1.0, -2.0, -2.0])
    _seen(short)
    _solved(short, short)
    # the recorded four pivots are the long program's first four; a reduced
    # cost is still negative after them, so it takes three more on the tableau
    (solution,) = _solved(long)
    assert (solution.phase2_pivots, solution.phase2_replayed) == (7, 0)
    assert _phase2_replayed(_solved(long, long)) == [0, 7]


def test_phase2_that_leaves_the_tree_is_solved_on_its_rows(monkeypatch):
    first = _one_start_lp([-2.0, -2.0, 0.0, 0.0, -2.0, -1.0])
    second = _one_start_lp([-2.0, 1.0, -2.0, 2.0, 2.0, -2.0])
    cold = solve_cold(second)
    _seen(first)
    _solved(first, first)
    rhs_updates = []  # the replayed phase-1 pivots and the followed phase-2 pivots
    replayed_pivot = lp._replayed_pivot
    monkeypatch.setattr(lp, "_replayed_pivot", lambda *args: rhs_updates.append(args[0]) or
                        replayed_pivot(*args))
    for _ in range(2):
        rhs_updates.clear()
        solution = solve_lp(second)
        assert_same_solution(solution, cold)
        # phase 1 replayed, then five recorded phase-2 pivots followed before
        # the tree had no child; phase 2 was then solved on the rows whole
        assert len(rhs_updates) == solution.phase1_replayed + 5
        assert solution.phase2_replayed == 0
    # taken twice, the phase 2 joined the tree, and the next solve replays it
    old, new = _phase2_paths()
    assert new[:5] == old[:5] and new[5] != old[5]
    solution = solve_lp(second)
    assert_same_solution(solution, cold)
    assert solution.phase2_replayed == solution.phase2_pivots == len(new)


@pytest.mark.parametrize("prog, phase1_recorded", [
    # x0 + x1 = 1 and x0 + x1 <= 1 tie, and the <= row leaves: the
    # artificial stays basic at zero and is driven out
    (make_program([1.0, 1.0], [[1.0, 1.0]], [1.0], [[1.0, 1.0]], [1.0]), False),
    # x2 seeds row 0 with a pivot of 2.0, which scales the row
    (make_program([1.0, 1.0, 0.0], [[1.0, 1.0, 2.0], [1.0, -1.0, 0.0]], [4.0, 1.0]), False),
    # phase 1 ends at an optimum and is recorded; phase 2 is unbounded
    (make_program([-1.0, 1.0, -1.0, -1.0], [[-1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, -1.0]],
                  [2.0, 3.0], [[0.0, -1.0, 2.0, 1.0]], [4.0]), True),
], ids=["drive-out", "scaled-seed-row", "unbounded-phase-2"])
def test_phase_outside_the_replay_rule_is_not_recorded(prog, phase1_recorded, replays):
    want = lp_dense_reference.solve_lp(prog)
    assert want.phase1_pivots > 0
    solve_recorded(prog)  # a phase 1 inside the rule is recorded by now
    nbytes = lp._MEMO.nbytes
    assert (nbytes > 0) == phase1_recorded
    replays.clear()
    solutions = [solve_lp(prog) for _ in range(3)]
    for solution in solutions:
        assert_same_solution(solution, want)
    assert replays == ([True] * 3 if phase1_recorded else [])
    assert _phase2_replayed(solutions) == [0, 0, 0]
    assert lp._MEMO.nbytes == nbytes
