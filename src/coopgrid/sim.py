"""Rolling-horizon closed loop: price coalitions, form a partition,
dispatch, apply the first-step inputs, settle charges, advance storage.

Per step the horizon is sliced once.  In coalitional mode every nonempty
coalition is priced over it, Shapley shares build the payoff map, the
partition is formed (or retained between re-formation steps, pricing only
the subsets of its blocks), each block's priced plan is applied for one
step, and realized money is settled inside each block with a one-step
Shapley allocation built from the first-step costs of the same priced plans.
The step keeps one table of priced coalitions
(``game.CharacteristicFunction``): v(S) and the first-step cost of every
mask, read off the arrays of one batched pooled recursion per step for
coalitions of two or more members (``game._price_subsets``), and the
program's plan of each member alone.  The settlement reads the first-step
costs; a ``DispatchSolution`` is made only for each applied block, from the
batch's arrays.  No program is solved for a pooled coalition, so
``StepResult.lp_programs`` and the pivot counters sum over the one-member
coalitions only.
Grid-only and grid-with-storage modes run the same loop on singleton
blocks; grid-only runs on a copy of the scenario without storage.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DispatchError, ScenarioError
from .formation import Partition, form_partition
from .game import (PayoffMap, _price_subsets, characteristic_function, coalition_mask,
                   payoff_map, shapley_value)
from .scenario import Scenario, slice_horizon, validate_scenario

STORAGE_DRIFT_TOL = 1e-8
# the plan flows a step applies, as StepResult names them
_FLOWS = ("grid_buy", "grid_sell", "coal_buy", "coal_sell", "storage_delta")


class SimMode(Enum):
    GRID_ONLY = "grid-only"
    GRID_STORAGE = "grid-storage"
    COALITIONAL = "coalitional"


@dataclass(frozen=True)
class SimConfig:
    mode: SimMode = SimMode.COALITIONAL
    horizon: int = 5
    loss_weight: float = 1e-5
    reform_period: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 <= self.loss_weight < math.inf:
            raise ValueError(f"loss_weight must be finite and nonnegative, "
                             f"got {self.loss_weight}")
        if self.reform_period < 1:
            raise ValueError("reform_period must be at least 1")


@dataclass
class SystemState:
    step: int
    storage: np.ndarray


@dataclass
class StepResult:
    """Everything applied and settled at one step.

    Flow arrays are per agent (length N) at the applied step; an agent's
    net energy is ``grid_buy - grid_sell + coal_buy - coal_sell``.
    ``coalition_values`` holds the cost of every coalition priced this
    step: all of them when the partition was re-formed, every subset of
    every block otherwise (the singletons in the grid modes).  ``payoffs``
    is the Shapley map when the partition was re-formed.  ``lp_programs``
    is the number of linear programs solved to price the step (one per
    one-member coalition), ``phase1_pivots`` / ``phase2_pivots`` their
    pivots summed per phase, and ``phase1_replayed`` / ``phase2_replayed``
    how many of those the solver replayed from recorded paths.  The
    counters are kept in memory only.
    """

    step: int
    partition: Partition
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    coal_buy: np.ndarray
    coal_sell: np.ndarray
    storage_delta: np.ndarray
    storage_after: np.ndarray
    charges: np.ndarray
    coalition_values: dict[int, float]
    payoffs: PayoffMap | None
    lp_programs: int
    phase1_pivots: int
    phase2_pivots: int
    phase1_replayed: int
    phase2_replayed: int


@dataclass
class SimulationTrace:
    config: SimConfig
    steps: list[StepResult]
    cumulative_costs: np.ndarray
    final_storage: np.ndarray
    n_agents: int


def settle_step(partition: Partition, first_step_values: dict[int, float]) -> np.ndarray:
    """Split each block's realized one-step cost among its members.

    ``first_step_values`` maps coalition masks to one-step costs and must
    cover every nonempty subset of every block; the block's own entry is
    its realized cost, so by Shapley efficiency the returned charges sum
    to it within rounding.
    """
    charges = np.zeros(len(partition.agents))
    for block in partition.blocks:  # blocks are sorted, as the shares are
        charges[list(block)] = shapley_value(first_step_values, block)
    return charges


def step(state: SystemState, scenario: Scenario, config: SimConfig,
         prev_partition: Partition | None = None) -> tuple[StepResult, SystemState]:
    """Execute one closed-loop step and advance the storage state.

    ``prev_partition`` is reused on coalitional steps not due for
    re-formation (``step % reform_period != 0``); the grid modes use
    singletons.  Without a sweep, every subset of every block is priced
    against the current storage state.
    """
    k = state.step
    n = scenario.n_nodes
    hs = slice_horizon(scenario, k, config.horizon)
    caps = scenario.storage_capacities

    coalitional = config.mode is SimMode.COALITIONAL
    pm: PayoffMap | None = None
    try:
        if coalitional and (prev_partition is None or k % config.reform_period == 0):
            priced = characteristic_function(state.storage, scenario, hs, config.loss_weight)
            pm = payoff_map(priced)
            partition = form_partition(pm)
        else:
            partition = (prev_partition if coalitional
                         else Partition.from_blocks([(i,) for i in range(n)]))
            priced = _price_subsets(partition.blocks, state.storage, scenario, hs,
                                    config.loss_weight)
    except DispatchError as exc:
        raise DispatchError(f"step {k}, {exc}") from exc

    # each flow's first step, gathered over the blocks' plans at once
    plans = [priced.pricing(coalition_mask(block))[1] for block in partition.blocks]
    agents = [i for block in partition.blocks for i in block]
    flows = {name: np.zeros(n) for name in _FLOWS}
    for name, flow in flows.items():
        flow[agents] = np.concatenate([getattr(sol, name)[:, 0] for sol in plans])

    charges = settle_step(partition, priced.first_step)

    new_storage = state.storage + flows["storage_delta"]
    drift = float(np.max(np.maximum(-new_storage, new_storage - caps), initial=0.0))
    if drift > STORAGE_DRIFT_TOL:
        raise DispatchError(f"step {k}: storage bounds violated by {drift}")
    new_storage = np.clip(new_storage, 0.0, caps)

    singles = priced.singles.values()  # only one-member coalitions solve programs
    result = StepResult(
        step=k,
        partition=partition,
        **flows,
        storage_after=new_storage.copy(),
        charges=charges,
        coalition_values=dict(priced.values),
        payoffs=pm,
        lp_programs=sum(sol.programs for _, sol in singles),
        phase1_pivots=sum(sol.phase1_pivots for _, sol in singles),
        phase2_pivots=sum(sol.phase2_pivots for _, sol in singles),
        phase1_replayed=sum(sol.phase1_replayed for _, sol in singles),
        phase2_replayed=sum(sol.phase2_replayed for _, sol in singles),
    )
    return result, SystemState(step=k + 1, storage=new_storage)


def run(scenario: Scenario, config: SimConfig) -> SimulationTrace:
    """Run the closed loop over the whole scenario; fully deterministic."""
    issues = validate_scenario(scenario)
    if issues:
        raise ScenarioError("; ".join(issues))
    n = scenario.n_nodes
    if config.mode is SimMode.GRID_ONLY:  # the same world with no storage at all
        scenario = replace(scenario, nodes=[replace(nd, storage_capacity=0.0, storage_init=0.0)
                                            for nd in scenario.nodes])
    state = SystemState(step=0, storage=scenario.storage_init.copy())
    results: list[StepResult] = []
    prev: Partition | None = None
    cumulative = np.zeros(n)
    for _ in range(scenario.n_steps):
        result, state = step(state, scenario, config, prev)
        prev = result.partition
        results.append(result)
        cumulative += result.charges
    return SimulationTrace(
        config=config,
        steps=results,
        cumulative_costs=cumulative,
        final_storage=state.storage,
        n_agents=n,
    )
