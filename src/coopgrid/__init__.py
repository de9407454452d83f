"""Coalitional dispatch and cost-sharing simulator for prosumer microgrids.

A rolling-horizon closed loop prices every coalition of prosumers by its
least-cost dispatch plan, splits coalition costs with Shapley shares,
forms a partition from individual preferences, settles realized per-agent
charges, and reports the implied internal-market prices.
"""

from .dispatch import (CoalitionValueBreakdown, DispatchSolution, build_coalition_lp,
                       build_individual_lp, coalition_value, evaluate_loss_cost,
                       mean_pairwise_distance, solve_coalition_dispatch,
                       solve_individual_dispatch)
from .errors import (CoopGridError, DispatchError, LpValidationError,
                     MissingCoalitionError, ScenarioError)
from .formation import (Partition, StructureValue, form_partition, optimal_structure,
                        structure_value)
from .game import (CharacteristicFunction, PayoffMap, characteristic_function,
                   coalition_mask, coalition_members, equivalent_price, payoff_map,
                   shapley_value)
from .lp import (LinearProgram, LpSolution, LpStatus, make_program, solve_lp,
                 validate_lp)
from .report import RunManifest, summarize_prices, trace_label, write_reports
from .scenario import (HorizonSlice, NodeProfile, Scenario,
                       generate_synthetic_scenario, load_scenario,
                       reference_scenario, serialize_scenario, slice_horizon,
                       validate_scenario)
from .sim import (SimConfig, SimMode, SimulationTrace, StepResult, SystemState,
                  run, settle_step, step)

__version__ = "0.1.0"

__all__ = [
    "CharacteristicFunction", "CoalitionValueBreakdown", "CoopGridError",
    "DispatchError", "DispatchSolution", "HorizonSlice", "LinearProgram",
    "LpSolution", "LpStatus", "LpValidationError", "MissingCoalitionError",
    "NodeProfile", "Partition", "PayoffMap", "RunManifest", "Scenario",
    "ScenarioError", "SimConfig", "SimMode", "SimulationTrace", "StepResult",
    "StructureValue", "SystemState",
    "build_coalition_lp", "build_individual_lp", "characteristic_function",
    "coalition_mask", "coalition_members", "coalition_value",
    "equivalent_price", "evaluate_loss_cost",
    "form_partition", "generate_synthetic_scenario", "load_scenario",
    "make_program", "mean_pairwise_distance", "optimal_structure", "payoff_map",
    "reference_scenario", "run", "serialize_scenario", "settle_step",
    "shapley_value", "slice_horizon", "solve_coalition_dispatch",
    "solve_individual_dispatch", "solve_lp", "step", "structure_value",
    "summarize_prices", "trace_label", "validate_lp", "validate_scenario",
    "write_reports",
]
