import dataclasses

import lp_dense_reference
import numpy as np
import pytest

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

def _assert_same_solution(got, want):
    assert got.status is want.status
    assert (got.phase1_pivots, got.phase2_pivots) == (want.phase1_pivots, want.phase2_pivots)
    if want.point is None:
        assert got.point is None and got.objective_value is None
    else:
        # bytes, not values: -0.0 == 0.0, but reports print them differently
        assert got.point.tobytes() == want.point.tobytes()
        assert np.float64(got.objective_value).tobytes() == \
            np.float64(want.objective_value).tobytes()


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
        _assert_same_solution(solve_lp(prog), lp_dense_reference.solve_lp(prog))
    for _ in range(50):
        prog = random_box_lp(rng, max_vars=12, max_eq=5, max_ub=10)
        _assert_same_solution(solve_lp(prog), lp_dense_reference.solve_lp(prog))


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
        _assert_same_solution(solve_lp(prog), want)
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
        _assert_same_solution(got, lp_dense_reference.solve_lp(prog))
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
        _assert_same_solution(got, lp_dense_reference.solve_lp(prog))
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
            _assert_same_solution(solve_lp(prog), lp_dense_reference.solve_lp(prog))
        storage = res.storage_after


# --- crash basis ---------------------------------------------------------------

@pytest.mark.parametrize("objective, status", [([1.0, 2.0], LpStatus.OPTIMAL),
                                               ([1.0, -1.0], LpStatus.UNBOUNDED)])
def test_no_constraint_rows(objective, status):
    prog = make_program(objective, lower=[1.0, -2.0])
    sol = solve_lp(prog)
    assert sol.status is status
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
    _assert_same_solution(sol, lp_dense_reference.solve_lp(prog))
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
    _assert_same_solution(sol, lp_dense_reference.solve_lp(prog))


def test_crash_basis_skips_negative_singleton_column():
    # x0 appears only in row 0, with a negative entry, so row 0 needs an
    # artificial; x2 seeds row 1
    prog = make_program([1.0, 0.0, 0.0], eq_matrix=[[-1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                        eq_rhs=[1.0, 5.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.OPTIMAL
    assert np.array_equal(sol.point, [0.0, 1.0, 4.0])
    assert sol.phase1_pivots == 1
    _assert_same_solution(sol, lp_dense_reference.solve_lp(prog))
