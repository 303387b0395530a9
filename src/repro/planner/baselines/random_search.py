"""Random-search baseline.

Samples random plan trees with the same generator the GP uses for
initialization and keeps the best — the canonical "is evolution doing
anything?" control.  Matched to the GP on *evaluation budget* (unique plan
simulations), not on population mechanics.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.plan.randgen import random_tree
from repro.planner.engine import EvaluationEngine
from repro.planner.gp import PlanningResult
from repro.planner.problem import PlanningProblem

__all__ = ["random_search"]


def random_search(
    problem: PlanningProblem,
    evaluator: EvaluationEngine,
    budget: int,
    rng: int | np.random.Generator | None = None,
    max_branch: int = 4,
) -> PlanningResult:
    """Evaluate *budget* random trees; return the best found.

    Trees are drawn up front (tree generation never consults the
    evaluator, so the RNG stream is unchanged) and scored in one
    ``evaluate_many`` batch, deduped and cached.  The first tree with the
    maximal fitness wins, as in the sequential version.
    """
    generator = as_rng(rng)
    activities = list(problem.activity_names)
    trees = [
        random_tree(
            activities, max_size=evaluator.smax, rng=generator, max_branch=max_branch
        )
        for _ in range(max(1, budget))
    ]
    fitnesses = evaluator.evaluate_many(trees)
    best_idx = 0
    for idx in range(1, len(trees)):
        if fitnesses[idx].overall > fitnesses[best_idx].overall:
            best_idx = idx
    return PlanningResult(
        best_plan=trees[best_idx],
        best_fitness=fitnesses[best_idx],
        evaluations=evaluator.evaluations,
        generations_run=0,
    )
