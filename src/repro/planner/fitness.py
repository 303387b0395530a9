"""Plan fitness (Section 3.4.4, Eqs. 1-4).

``f = wv*fv + wg*fg + wr*fr`` with ``wv + wg + wr = 1``:

* ``fv`` — plan validity: valid activity executions / total executions
  over all enumerated flows (Eq. 1);
* ``fg`` — goal fitness: fraction of goal specifications the final state
  satisfies, averaged over flows (Eq. 2);
* ``fr`` — representation efficiency: ``1 - size/Smax`` (Eq. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PlanningError
from repro.plan.metrics import representation_efficiency
from repro.plan.tree import PlanNode
from repro.planner.problem import PlanningProblem
from repro.planner.simulate import SimulationOptions, simulate_plan

__all__ = ["FitnessWeights", "Fitness", "evaluate_tree", "weighted_fitness"]


@dataclass(frozen=True)
class FitnessWeights:
    """Table-1 weights: wv = 0.2, wg = 0.5 (leaving wr = 0.3)."""

    validity: float = 0.2
    goal: float = 0.5
    efficiency: float = 0.3

    def __post_init__(self) -> None:
        total = self.validity + self.goal + self.efficiency
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise PlanningError(
                f"fitness weights must sum to 1, got {total} "
                f"(wv={self.validity}, wg={self.goal}, wr={self.efficiency})"
            )
        if min(self.validity, self.goal, self.efficiency) < 0:
            raise PlanningError("fitness weights must be non-negative")


@dataclass(frozen=True)
class Fitness:
    """One plan's scored fitness; orderable by overall value."""

    validity: float
    goal: float
    efficiency: float
    overall: float
    truncated: bool = False

    def __lt__(self, other: "Fitness") -> bool:
        return self.overall < other.overall

    def __le__(self, other: "Fitness") -> bool:
        return self.overall <= other.overall


def weighted_fitness(
    weights: FitnessWeights,
    fv: float,
    fg: float,
    fr: float,
    truncated: bool = False,
) -> Fitness:
    """Eq. 4, ``f = wv*fv + wg*fg + wr*fr``, the one place the weighted
    sum is computed (its operand order fixes every float sum)."""
    overall = weights.validity * fv + weights.goal * fg + weights.efficiency * fr
    return Fitness(fv, fg, fr, overall, truncated)


def evaluate_tree(
    tree: PlanNode,
    problem: PlanningProblem,
    weights: FitnessWeights,
    smax: int,
    options: SimulationOptions,
) -> Fitness:
    """Score one plan tree: simulate all flows, apply Eqs. 1-4.

    Pure and deterministic: the fitness the
    :class:`~repro.planner.engine.EvaluationEngine` caches.
    """
    report = simulate_plan(tree, problem, options)
    return weighted_fitness(
        weights,
        report.validity_fitness(),
        report.goal_fitness(problem),
        representation_efficiency(tree, smax),
        report.truncated,
    )
