"""The GP planning service core (paper Section 3).

Public surface: :class:`~repro.planner.problem.PlanningProblem` /
:class:`~repro.planner.problem.ActivitySpec` define ``P = {Sinit, G, T}``;
:class:`~repro.planner.gp.GPPlanner` runs the Section-3.4 loop;
:class:`~repro.planner.engine.EvaluationEngine` scores plans by Eqs. 1-4;
:mod:`repro.planner.baselines` holds comparison planners.
"""

from repro.planner.baselines import forward_search, hill_climb, random_search
from repro.planner.config import GPConfig, table1_config
from repro.planner.engine import EvaluationEngine
from repro.planner.fitness import Fitness, FitnessWeights, evaluate_tree
from repro.planner.gp import GenerationStats, GPPlanner, PlanningResult
from repro.planner.library import (
    PlanEntry,
    PlanLibrary,
    goal_signature,
    library_key,
    problem_digest,
    substitution_map,
)
from repro.planner.operators import crossover, mutate, random_node_path
from repro.planner.problem import ActivitySpec, PlanningProblem
from repro.planner.repair import (
    RepairResult,
    never_valid_terminals,
    repair_plan,
    swap_terminals,
)
from repro.planner.selection import tournament_select
from repro.planner.simulate import (
    FlowResult,
    SimulationOptions,
    SimulationReport,
    simulate_plan,
    simulate_with_attribution,
)
from repro.planner.state import WorldState

__all__ = [
    "WorldState",
    "ActivitySpec",
    "PlanningProblem",
    "SimulationOptions",
    "SimulationReport",
    "FlowResult",
    "simulate_plan",
    "simulate_with_attribution",
    "repair_plan",
    "never_valid_terminals",
    "swap_terminals",
    "RepairResult",
    "PlanEntry",
    "PlanLibrary",
    "goal_signature",
    "library_key",
    "problem_digest",
    "substitution_map",
    "FitnessWeights",
    "Fitness",
    "EvaluationEngine",
    "evaluate_tree",
    "crossover",
    "mutate",
    "random_node_path",
    "tournament_select",
    "GPConfig",
    "table1_config",
    "GPPlanner",
    "PlanningResult",
    "GenerationStats",
    "random_search",
    "hill_climb",
    "forward_search",
]
