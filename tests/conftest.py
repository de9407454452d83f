import pytest

from coopgrid import dispatch, lp
from coopgrid.scenario import reference_scenario


@pytest.fixture(scope="session")
def ref_scenario():
    return reference_scenario()


@pytest.fixture(autouse=True)
def empty_module_state():
    """Every test starts from an empty pivot memo and empty ``dispatch``
    caches: both are module state, and a test must not depend on the paths
    or entries earlier tests left."""
    lp._MEMO.clear()
    for cache in (dispatch._mean_distance, dispatch._subset_distances, dispatch._bounds,
                  dispatch._equality_matrix, dispatch._no_market):
        cache.cache_clear()


@pytest.fixture
def replays(monkeypatch):
    """Each phase-1 replay ``solve_lp`` attempts: True when it followed a
    recorded path to a feasible end and returned a phase-2 start (the kept
    rows' rhs and basis as lists, the pivot count and the end reached),
    False when it fell back to a full solve (a choice the tree has no
    child for, or a phase 1 that ends infeasible)."""
    outcomes = []
    replay = lp._replay

    def spy(*args):
        start = replay(*args)
        outcomes.append(start is not None)
        if start is not None:  # lists for phase 2 to follow, and no tableau
            rhs, basis, _, end = start
            assert type(rhs) is list and type(basis) is list and type(end) is lp._End
            assert len(rhs) == len(basis) == len(end.cols)
        return start

    monkeypatch.setattr(lp, "_replay", spy)
    return outcomes
