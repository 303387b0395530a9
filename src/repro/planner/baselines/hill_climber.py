"""First-improvement hill-climbing baseline.

Starts from a random plan tree and repeatedly applies the GP's own mutation
move (random-subtree replacement at a random node), accepting any
non-worsening neighbour.  Restarts from a fresh random tree after
*stall_limit* consecutive rejected moves, which keeps the climber honest on
deceptive landscapes instead of letting it burn the whole budget in a local
optimum.

Unlike random search this cannot batch — each candidate depends on whether
the previous one was accepted — so it calls the evaluator one tree at a
time and benefits from the shared fitness cache only.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.plan.randgen import random_tree
from repro.plan.tree import replace_at
from repro.planner.engine import EvaluationEngine
from repro.planner.gp import PlanningResult
from repro.planner.operators import random_node_path
from repro.planner.problem import PlanningProblem

__all__ = ["hill_climb"]


def hill_climb(
    problem: PlanningProblem,
    evaluator: EvaluationEngine,
    budget: int,
    rng: int | np.random.Generator | None = None,
    stall_limit: int = 50,
    max_branch: int = 4,
) -> PlanningResult:
    """Run hill climbing for *budget* evaluations; return the best plan."""
    generator = as_rng(rng)
    activities = list(problem.activity_names)

    def fresh():
        return random_tree(
            activities, max_size=evaluator.smax, rng=generator, max_branch=max_branch
        )

    current = fresh()
    current_fit = evaluator(current)
    best, best_fit = current, current_fit
    stall = 0
    for _ in range(budget - 1):
        path = random_node_path(current, generator)
        replacement = random_tree(
            activities, max_size=evaluator.smax, rng=generator, max_branch=max_branch
        )
        candidate = replace_at(current, path, replacement)
        if candidate.size > evaluator.smax:
            stall += 1
        else:
            fitness = evaluator(candidate)
            if fitness.overall >= current_fit.overall:
                improved = fitness.overall > current_fit.overall
                current, current_fit = candidate, fitness
                stall = 0 if improved else stall + 1
            else:
                stall += 1
            if current_fit.overall > best_fit.overall:
                best, best_fit = current, current_fit
        if stall >= stall_limit:
            current = fresh()
            current_fit = evaluator(current)
            if current_fit.overall > best_fit.overall:
                best, best_fit = current, current_fit
            stall = 0
    return PlanningResult(
        best_plan=best,
        best_fitness=best_fit,
        evaluations=evaluator.evaluations,
        generations_run=0,
    )
