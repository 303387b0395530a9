#!/usr/bin/env python
"""GP planner vs baselines across problem families (ablation A4, hands on).

Pits the Section-3.4 GP planner against random search, hill climbing and a
classical forward state-space planner at matched evaluation budgets on the
case-study problem plus synthetic families.

Run: ``python examples/planner_comparison.py``
"""

import numpy as np

from repro.planner import (
    EvaluationEngine,
    GPConfig,
    GPPlanner,
    forward_search,
    hill_climb,
    random_search,
)
from repro.virolab import planning_problem
from repro.workloads import chain_problem, diamond_problem, distractor_problem

CFG = GPConfig(population_size=60, generations=10)
SEEDS = range(3)


def main() -> None:
    problems = [
        planning_problem(),
        chain_problem(6),
        diamond_problem(4),
        distractor_problem(4, 8),
    ]
    header = f"{'problem':18s} {'planner':16s} {'solve':>6s} {'fitness':>8s} {'size':>5s} {'budget':>7s}"
    print(header)
    print("-" * len(header))
    for problem in problems:
        gp_runs = [GPPlanner(CFG, rng=s).plan(problem) for s in SEEDS]
        budget = int(np.mean([r.evaluations for r in gp_runs]))
        rows = [
            (
                "GP (paper)",
                np.mean([r.solved for r in gp_runs]),
                np.mean([r.best_fitness.overall for r in gp_runs]),
                np.mean([r.best_plan.size for r in gp_runs]),
                budget,
            )
        ]
        for label, runner in (("random search", random_search),
                              ("hill climbing", hill_climb)):
            runs = [
                runner(problem, EvaluationEngine(problem, CFG.weights, CFG.smax),
                       budget, rng=s)
                for s in SEEDS
            ]
            rows.append(
                (
                    label,
                    np.mean([r.solved for r in runs]),
                    np.mean([r.best_fitness.overall for r in runs]),
                    np.mean([r.best_plan.size for r in runs]),
                    budget,
                )
            )
        fwd = forward_search(problem, EvaluationEngine(problem, CFG.weights, CFG.smax))
        rows.append(
            ("forward search", float(fwd.solved), fwd.best_fitness.overall,
             fwd.best_plan.size, fwd.evaluations)
        )
        for label, solve, fitness, size, used in rows:
            print(f"{problem.name:18s} {label:16s} {solve:6.2f} "
                  f"{fitness:8.3f} {size:5.1f} {used:7d}")
        print()


if __name__ == "__main__":
    main()
