import pytest

from coopgrid import lp
from coopgrid.scenario import reference_scenario


@pytest.fixture(scope="session")
def ref_scenario():
    return reference_scenario()


@pytest.fixture
def replays(monkeypatch):
    """Each phase-1 replay ``solve_lp`` attempts: True when it followed a
    recorded path to a feasible end and returned a phase-2 start, False
    when it fell back to a full solve (a choice the tree has no child for,
    or a phase 1 that ends infeasible)."""
    outcomes = []
    replay = lp._replay

    def spy(*args):
        start = replay(*args)
        outcomes.append(start is not None)
        return start

    monkeypatch.setattr(lp, "_replay", spy)
    return outcomes
