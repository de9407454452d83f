import sys

import pytest

from coopgrid import lp
from coopgrid.scenario import reference_scenario


@pytest.fixture(scope="session")
def ref_scenario():
    return reference_scenario()


@pytest.fixture(autouse=True)
def empty_module_state():
    """Every test starts from an empty pivot memo and with every
    ``functools`` cache of every ``coopgrid`` module empty, each found by
    its ``cache_clear``: both are module state, and a test must not depend
    on the paths or entries earlier tests left."""
    lp._MEMO.clear()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coopgrid":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


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
