"""The plan evaluator: Eq. 4 fitness behind one bounded cache.

Every planner scores plans through an :class:`EvaluationEngine`.  The GP
loop scores a whole population per generation; scoring each tree
independently would waste work that the engine recovers:

1. **Structural interning** — trees are keyed by their cached canonical
   :meth:`~repro.plan.tree.PlanNode.struct_key`, so tournament-selection
   copies, unchanged survivors and identical trees all resolve to one
   entry in a bounded-LRU fitness cache.
2. **In-batch dedup** — a structure repeated within a batch is scored
   once; its other population slots are cache hits.

Telemetry (cumulative evaluation wall-time, cache hit/miss counts) feeds
``GenerationStats`` / ``PlanningResult``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.errors import PlanningError
from repro.plan.tree import PlanNode
from repro.planner.fitness import Fitness, FitnessWeights, evaluate_tree
from repro.planner.problem import PlanningProblem
from repro.planner.simulate import SimulationOptions

__all__ = ["EvaluationEngine", "CACHE_SIZE"]

#: LRU bound of each engine's fitness cache: roughly 25 Table-1 runs'
#: worth of unique trees.
CACHE_SIZE = 100_000


class EvaluationEngine:
    """Callable plan evaluator binding a problem, weights, Smax and
    simulation options, with a bounded LRU fitness cache.

    ``cache_hits`` / ``cache_misses`` count lookups; ``evaluations``
    counts *unique structures scored* (the misses), not calls — the
    number a matched-budget baseline comparison should use.  With
    *static_filter* ``"exact"`` or ``"race"``, a miss first asks the
    :class:`~repro.analysis.plan_filter.PlanStaticFilter` for the tree's
    fitness and simulates only when the filter has none.
    """

    def __init__(
        self,
        problem: PlanningProblem,
        weights: FitnessWeights | None = None,
        smax: int = 40,
        options: SimulationOptions | None = None,
        *,
        static_filter: str = "off",
    ) -> None:
        if smax < 1:
            raise PlanningError(f"Smax must be >= 1, got {smax}")
        self.problem = problem
        self.weights = weights or FitnessWeights()
        self.smax = smax
        self.options = options or SimulationOptions()
        self._cache: dict[tuple, Fitness] = {}
        self._filter = None
        if static_filter != "off":
            # Lazy import: keeps repro.analysis (ontology, parser, ...) out
            # of the planner's import graph unless the filter is used.
            from repro.analysis.plan_filter import PlanStaticFilter

            self._filter = PlanStaticFilter(
                problem, self.weights, smax, self.options, mode=static_filter
            )
        self.cache_hits = 0
        self.cache_misses = 0
        self.analysis_rejected = 0
        """Unique trees scored by the static pre-filter instead of full
        simulation.  Filtered trees still count as evaluations / cache
        misses (their structure was scored exactly once, like any other);
        this counter records how many of those scores skipped the
        simulator."""
        self.eval_time = 0.0  # cumulative wall-time inside evaluate_many

    @property
    def evaluations(self) -> int:
        """Unique structures scored: the cache misses."""
        return self.cache_misses

    @property
    def race_rejected(self) -> int:
        """Trees floored by the ``"race"`` filter mode's interference
        check (a subset of *analysis_rejected*; 0 in every other mode)."""
        return self._filter.race_rejected if self._filter is not None else 0

    def __call__(self, tree: PlanNode) -> Fitness:
        """One tree's fitness through the cache: the one lookup and miss
        path, which :meth:`evaluate_many` runs per tree."""
        key = tree.struct_key()
        cache = self._cache
        fitness = cache.pop(key, None)
        if fitness is not None:
            cache[key] = fitness  # reinsert: most-recently-used
            self.cache_hits += 1
            return fitness
        self.cache_misses += 1
        if self._filter is not None:
            fitness = self._filter.fitness_for(tree)
            if fitness is not None:
                self.analysis_rejected += 1
        if fitness is None:
            fitness = evaluate_tree(
                tree, self.problem, self.weights, self.smax, self.options
            )
        cache[key] = fitness
        if len(cache) > CACHE_SIZE:
            cache.pop(next(iter(cache)))  # evict least-recently-used
        return fitness

    def evaluate_many(self, trees: Sequence[PlanNode]) -> list[Fitness]:
        """Fitness for every tree, in order, timed as one batch; a
        structure repeated in the batch is scored once."""
        t0 = time.perf_counter()
        results = [self(tree) for tree in trees]
        self.eval_time += time.perf_counter() - t0
        return results
