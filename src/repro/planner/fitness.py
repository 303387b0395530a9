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

__all__ = ["FitnessWeights", "Fitness", "PlanEvaluator", "evaluate_tree"]


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


def evaluate_tree(
    tree: PlanNode,
    problem: PlanningProblem,
    weights: FitnessWeights,
    smax: int,
    options: SimulationOptions,
) -> Fitness:
    """Score one plan tree: simulate all flows, apply Eqs. 1-4.

    Pure and deterministic — the single source of truth for fitness values
    shared by :class:`PlanEvaluator` and the batched
    :class:`~repro.planner.engine.EvaluationEngine`, which is what makes
    their results bit-identical.
    """
    report = simulate_plan(tree, problem, options)
    fv = report.validity_fitness()
    fg = report.goal_fitness(problem)
    fr = representation_efficiency(tree, smax)
    overall = weights.validity * fv + weights.goal * fg + weights.efficiency * fr
    return Fitness(fv, fg, fr, overall, report.truncated)


class PlanEvaluator:
    """Callable evaluator binding a problem, weights, Smax and sim options.

    Results are memoized in a bounded LRU keyed on the tree's cached
    *structural* key (:meth:`PlanNode.struct_key`), so structural
    duplicates — tournament-selection copies, unchanged survivors across
    generations, identical trees from different runs sharing one evaluator
    — all resolve to a single simulation.  ``cache_hits`` / ``cache_misses``
    count lookups; ``evaluations`` counts *unique simulations actually
    run* (i.e. cache misses), not calls — the number a matched-budget
    baseline comparison should use.
    """

    #: Default LRU bound: roughly 25 Table-1 runs' worth of unique trees.
    DEFAULT_CACHE_SIZE = 100_000

    def __init__(
        self,
        problem: PlanningProblem,
        weights: FitnessWeights | None = None,
        smax: int = 40,
        options: SimulationOptions | None = None,
        cache_size: int | None = None,
    ) -> None:
        if smax < 1:
            raise PlanningError(f"Smax must be >= 1, got {smax}")
        self.problem = problem
        self.weights = weights or FitnessWeights()
        self.smax = smax
        self.options = options or SimulationOptions()
        self.cache_size = (
            self.DEFAULT_CACHE_SIZE if cache_size is None else cache_size
        )
        if self.cache_size < 0:
            raise PlanningError("cache_size must be >= 0 (0 disables caching)")
        self._cache: dict[tuple, Fitness] = {}
        self.evaluations = 0  # unique simulations run (= cache misses)
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache plumbing (shared with EvaluationEngine) ----------------------- #
    def cache_lookup(self, key: tuple) -> Fitness | None:
        """Cached fitness for a structural key (refreshes LRU recency)."""
        cached = self._cache.pop(key, None)
        if cached is not None:
            self._cache[key] = cached  # reinsert: most-recently-used
        return cached

    def cache_store(self, key: tuple, fitness: Fitness) -> None:
        if self.cache_size == 0:
            return
        cache = self._cache
        if key not in cache and len(cache) >= self.cache_size:
            cache.pop(next(iter(cache)))  # evict least-recently-used
        cache[key] = fitness

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._cache)

    # -- evaluation ----------------------------------------------------------- #
    def __call__(self, tree: PlanNode) -> Fitness:
        key = tree.struct_key()
        cached = self.cache_lookup(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        self.evaluations += 1
        fitness = evaluate_tree(
            tree, self.problem, self.weights, self.smax, self.options
        )
        self.cache_store(key, fitness)
        return fitness

    def evaluate_many(self, trees: list[PlanNode]) -> list[Fitness]:
        """Serial batch evaluation (in-batch dedup via the cache).

        This method exists so baselines can batch against a plain
        evaluator and an :class:`~repro.planner.engine.EvaluationEngine`
        interchangeably.
        """
        return [self(tree) for tree in trees]

    def clear_cache(self) -> None:
        self._cache.clear()
