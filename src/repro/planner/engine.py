"""Batched, cache-sharing plan evaluation.

The GP loop scores a whole population per generation; scoring each tree
independently wastes work along two axes that this engine recovers:

1. **Structural interning** — trees are keyed by their cached canonical
   :meth:`~repro.plan.tree.PlanNode.struct_key`, so tournament-selection
   copies, unchanged survivors, and identical trees across runs/seeds all
   resolve to one entry in a shared, bounded-LRU fitness cache (owned by
   the wrapped :class:`~repro.planner.fitness.PlanEvaluator`).
2. **In-batch dedup** — each structurally unique tree in a batch is
   simulated at most once, however many population slots it occupies.

Telemetry (cumulative evaluation wall-time, cache hit/miss counts,
batches) feeds ``GenerationStats`` / ``PlanningResult``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.errors import PlanningError
from repro.plan.tree import PlanNode
from repro.planner.fitness import (
    Fitness,
    FitnessWeights,
    PlanEvaluator,
    evaluate_tree,
)
from repro.planner.problem import PlanningProblem
from repro.planner.simulate import SimulationOptions

__all__ = ["EvaluationEngine"]


class EvaluationEngine:
    """Batched plan evaluation with a shared cache.

    Quacks like a :class:`PlanEvaluator` (callable, ``evaluations``,
    ``smax``, ...) so baselines and existing call sites take either.
    """

    def __init__(
        self,
        problem: PlanningProblem | None = None,
        weights: FitnessWeights | None = None,
        smax: int = 40,
        options: SimulationOptions | None = None,
        *,
        cache_size: int | None = None,
        evaluator: PlanEvaluator | None = None,
        static_filter: str = "off",
    ) -> None:
        if evaluator is None:
            if problem is None:
                raise PlanningError("engine needs a problem or an evaluator")
            evaluator = PlanEvaluator(
                problem, weights, smax, options, cache_size=cache_size
            )
        self.evaluator = evaluator
        self._filter = None
        if static_filter != "off":
            # Lazy import: keeps repro.analysis (ontology, parser, ...) out
            # of the planner's import graph unless the filter is used.
            from repro.analysis.plan_filter import PlanStaticFilter

            self._filter = PlanStaticFilter(
                evaluator.problem,
                evaluator.weights,
                evaluator.smax,
                evaluator.options,
                mode=static_filter,
            )
        # -- telemetry -- #
        self.batches = 0
        self.eval_time = 0.0  # cumulative wall-time inside evaluate_many
        self.last_batch_time = 0.0
        self.analysis_rejected = 0
        """Unique trees scored by the static pre-filter instead of full
        simulation.  Filtered trees still count as evaluations / cache
        misses (their structure was scored exactly once, like any other);
        this counter records how many of those scores skipped the
        simulator."""

    # -- PlanEvaluator-compatible surface ------------------------------------- #
    @property
    def problem(self) -> PlanningProblem:
        return self.evaluator.problem

    @property
    def weights(self) -> FitnessWeights:
        return self.evaluator.weights

    @property
    def smax(self) -> int:
        return self.evaluator.smax

    @property
    def options(self) -> SimulationOptions:
        return self.evaluator.options

    @property
    def evaluations(self) -> int:
        """Unique simulations run (cache misses), as on PlanEvaluator."""
        return self.evaluator.evaluations

    @property
    def cache_hits(self) -> int:
        return self.evaluator.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.evaluator.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        return self.evaluator.cache_hit_rate

    @property
    def race_rejected(self) -> int:
        """Trees floored by the ``"race"`` filter mode's interference
        check (a subset of *analysis_rejected*; 0 in every other mode)."""
        return self._filter.race_rejected if self._filter is not None else 0

    def __call__(self, tree: PlanNode) -> Fitness:
        """Single-tree evaluation through the shared cache (serial path —
        sequential callers like the hill climber can't batch)."""
        if self._filter is not None:
            evaluator = self.evaluator
            key = tree.struct_key()
            cached = evaluator.cache_lookup(key)
            if cached is not None:
                evaluator.cache_hits += 1
                return cached
            static = self._filter.fitness_for(tree)
            if static is not None:
                evaluator.cache_misses += 1
                evaluator.evaluations += 1
                self.analysis_rejected += 1
                evaluator.cache_store(key, static)
                return static
        return self.evaluator(tree)

    # -- batched evaluation ---------------------------------------------------- #
    def evaluate_many(self, trees: Sequence[PlanNode]) -> list[Fitness]:
        """Fitness for every tree, in order; each unique tree simulated at
        most once, cache hits simulated zero times."""
        t0 = time.perf_counter()
        evaluator = self.evaluator
        results: list[Fitness | None] = [None] * len(trees)
        pending: dict[tuple, list[int]] = {}
        pending_trees: list[PlanNode] = []
        for i, tree in enumerate(trees):
            key = tree.struct_key()
            cached = evaluator.cache_lookup(key)
            if cached is not None:
                results[i] = cached
                continue
            slots = pending.get(key)
            if slots is None:
                pending[key] = [i]
                pending_trees.append(tree)
            else:
                slots.append(i)

        if self._filter is not None and pending_trees:
            # Partition: statically-doomed trees get their (exact or
            # penalty) fitness without simulation; the rest dispatch as
            # usual.  Order within `pending` is preserved either way.
            fitnesses: list[Fitness | None] = [None] * len(pending_trees)
            to_simulate: list[tuple[int, PlanNode]] = []
            for j, tree in enumerate(pending_trees):
                static = self._filter.fitness_for(tree)
                if static is None:
                    to_simulate.append((j, tree))
                else:
                    fitnesses[j] = static
            self.analysis_rejected += len(pending_trees) - len(to_simulate)
            simulated = self._dispatch([tree for _, tree in to_simulate])
            for (j, _), fitness in zip(to_simulate, simulated):
                fitnesses[j] = fitness
        else:
            fitnesses = self._dispatch(pending_trees)
        for (key, slots), fitness in zip(pending.items(), fitnesses):
            evaluator.cache_store(key, fitness)
            for i in slots:
                results[i] = fitness
        # Counter semantics match the serial evaluator: a call is a miss
        # only if it caused the one simulation of its structure.
        evaluator.evaluations += len(pending_trees)
        evaluator.cache_misses += len(pending_trees)
        evaluator.cache_hits += len(trees) - len(pending_trees)

        self.batches += 1
        self.last_batch_time = time.perf_counter() - t0
        self.eval_time += self.last_batch_time
        return results  # type: ignore[return-value]

    def _dispatch(self, trees: list[PlanNode]) -> list[Fitness]:
        """Simulate *trees* (already unique)."""
        evaluator = self.evaluator
        return [
            evaluate_tree(
                tree,
                evaluator.problem,
                evaluator.weights,
                evaluator.smax,
                evaluator.options,
            )
            for tree in trees
        ]
