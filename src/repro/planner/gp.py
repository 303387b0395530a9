"""The GP planning loop (Section 3.4.6).

Pseudocode from the paper::

    1. Initialize population;
    2. While some stopping conditions are not met, do
       (a) Evaluate the current population;
       (b) Select the individuals ... and form a new population;
       (c) Crossover;
       (d) Mutate;
    3. Select a plan that has the highest fitness as the final solution.

The stopping condition is the generation budget (Table 1: 20 generations);
``early_stop`` optionally terminates once a perfect-validity/goal plan
appears.  Crossover pairs the selected population in shuffled order, as is
conventional when the paper does not specify a pairing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng
from repro.plan.randgen import random_tree
from repro.plan.tree import PlanNode
from repro.planner.config import GPConfig
from repro.planner.engine import EvaluationEngine
from repro.planner.fitness import Fitness
from repro.planner.operators import crossover, mutate
from repro.planner.problem import PlanningProblem
from repro.planner.selection import tournament_select

__all__ = ["GenerationStats", "PlanningResult", "GPPlanner"]

#: Greatest fraction of the initial population filled from plan-library
#: seeds when warm-starting; the rest stays random to preserve
#: exploration.
SEED_FRACTION = 0.5

#: Per-node mutation rate applied to the extra copies of each seed placed
#: in the initial population (the first copy of every seed enters
#: verbatim).  Deliberately far above the Table-1 mutation rate: seeds
#: should spread through the neighborhood of the stored solution, not
#: clone it.
SEED_MUTATION_RATE = 0.2


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation telemetry recorded by the planner.

    Timing fields are excluded from equality so that two runs of one
    seed (in-process or on the seed-parallel pool) compare equal when —
    as guaranteed — the evolved populations are bit-identical.
    """

    generation: int
    best_fitness: float
    mean_fitness: float
    best_validity: float
    best_goal: float
    best_size: int
    mean_size: float
    cache_hit_rate: float = 0.0
    """Fraction of this generation's evaluations served from the fitness
    cache (in-batch dedup counts as a hit)."""
    eval_time: float = field(default=0.0, compare=False)
    """Wall-clock seconds spent evaluating this generation's population."""


@dataclass(frozen=True)
class PlanningResult:
    """Outcome of one GP run."""

    best_plan: PlanNode
    best_fitness: Fitness
    history: tuple[GenerationStats, ...] = ()
    evaluations: int = 0
    generations_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    analysis_rejected: int = field(default=0, compare=False)
    """Unique trees whose fitness came from the static pre-filter
    (:mod:`repro.analysis.plan_filter`) instead of full simulation.
    These are counted inside *evaluations* too — the number records
    avoided simulator work, not extra evaluations.  Excluded from
    equality (like *eval_time*): it describes how the run was computed,
    so filter-on and filter-off runs of one seed compare equal."""
    race_rejected: int = field(default=0, compare=False)
    """The subset of *analysis_rejected* floored by the ``"race"``
    filter mode's fork-interference check (0 in every other mode)."""
    eval_time: float = field(default=0.0, compare=False)
    """Total wall-clock seconds spent in population evaluation."""

    @property
    def solved(self) -> bool:
        """Perfect validity and goal fitness (the Table-2 success notion)."""
        return self.best_fitness.validity == 1.0 and self.best_fitness.goal == 1.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class GPPlanner:
    """Genetic-programming planner over plan trees.

    One planner instance is reusable across runs; every :meth:`plan` call
    draws from the RNG it was constructed with (pass distinct seeds for the
    10-run experiment of Section 5).
    """

    def __init__(
        self,
        config: GPConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config or GPConfig()
        self.rng = as_rng(rng)

    # -- initialization (Section 3.4.2) ------------------------------------- #
    def initial_population(
        self,
        problem: PlanningProblem,
        seeds: Sequence[PlanNode] = (),
    ) -> list[PlanNode]:
        """The generation-0 population.

        Without *seeds* this is the paper's initializer —
        ``population_size`` random trees — and the RNG stream is untouched
        by the seeding code.  With seeds (plans the planning service
        retrieved from its plan library), up to :data:`SEED_FRACTION` of
        the slots warm-start the search: the first copy of each seed
        enters verbatim, further copies are mutated variants at
        :data:`SEED_MUTATION_RATE`, and the remaining slots stay random.
        """
        cfg = self.config
        activities = list(problem.activity_names)
        usable = [tree for tree in seeds if tree.size <= cfg.smax]
        population: list[PlanNode] = []
        if usable:
            n_seeded = min(
                int(cfg.population_size * SEED_FRACTION), cfg.population_size
            )
            for slot in range(n_seeded):
                base = usable[slot % len(usable)]
                if slot < len(usable):
                    population.append(base)
                else:
                    population.append(
                        mutate(
                            base,
                            activities,
                            self.rng,
                            cfg.smax,
                            SEED_MUTATION_RATE,
                            cfg.max_branch,
                        )
                    )
        population.extend(
            random_tree(
                activities,
                max_size=cfg.smax,
                rng=self.rng,
                max_branch=cfg.max_branch,
            )
            for _ in range(cfg.population_size - len(population))
        )
        return population

    # -- main loop ------------------------------------------------------------ #
    def plan(
        self,
        problem: PlanningProblem,
        seeds: Sequence[PlanNode] = (),
    ) -> PlanningResult:
        """Run the GP loop.

        Population scoring goes through a fresh :class:`EvaluationEngine`
        (batched, deduped, cached) per run.  *seeds* are library-retrieved
        plans folded into generation 0 (see :meth:`initial_population`).
        """
        cfg = self.config
        engine = EvaluationEngine(
            problem,
            cfg.weights,
            cfg.smax,
            cfg.simulation,
            static_filter=cfg.static_filter,
        )
        activities = list(problem.activity_names)
        population = self.initial_population(problem, seeds)
        history: list[GenerationStats] = []
        generations_run = 0

        fitnesses = self._evaluate(engine, population)
        for generation in range(cfg.generations):
            generations_run = generation + 1
            history.append(self._stats(generation, population, fitnesses, engine))
            if cfg.early_stop and any(
                f.validity == 1.0 and f.goal == 1.0 for f in fitnesses
            ):
                break

            # (b) selection
            population = tournament_select(
                population, fitnesses, self.rng, cfg.tournament_size
            )
            # (c) crossover over shuffled pairs
            order = self.rng.permutation(len(population))
            next_population: list[PlanNode] = [population[0]] * len(population)
            for i in range(0, len(order) - 1, 2):
                ia, ib = int(order[i]), int(order[i + 1])
                child_a, child_b = crossover(
                    population[ia],
                    population[ib],
                    self.rng,
                    cfg.smax,
                    cfg.crossover_rate,
                )
                next_population[ia] = child_a
                next_population[ib] = child_b
            if len(order) % 2:
                last = int(order[-1])
                next_population[last] = population[last]
            # (d) mutation
            population = [
                mutate(
                    tree,
                    activities,
                    self.rng,
                    cfg.smax,
                    cfg.mutation_rate,
                    cfg.max_branch,
                )
                for tree in next_population
            ]
            fitnesses = self._evaluate(engine, population)

        best_idx = int(np.argmax([f.overall for f in fitnesses]))
        return PlanningResult(
            best_plan=population[best_idx],
            best_fitness=fitnesses[best_idx],
            history=tuple(history),
            evaluations=engine.evaluations,
            generations_run=generations_run,
            cache_hits=engine.cache_hits,
            cache_misses=engine.cache_misses,
            analysis_rejected=engine.analysis_rejected,
            race_rejected=engine.race_rejected,
            eval_time=engine.eval_time,
        )

    def _evaluate(
        self, engine: EvaluationEngine, population: list[PlanNode]
    ) -> list[Fitness]:
        """Score a population, remembering the per-batch telemetry deltas."""
        hits0, misses0 = engine.cache_hits, engine.cache_misses
        time0 = engine.eval_time
        fitnesses = engine.evaluate_many(population)
        calls = (engine.cache_hits - hits0) + (engine.cache_misses - misses0)
        self._gen_hit_rate = (
            (engine.cache_hits - hits0) / calls if calls else 0.0
        )
        self._gen_eval_time = engine.eval_time - time0
        return fitnesses

    def _stats(
        self,
        generation: int,
        population: list[PlanNode],
        fitnesses: list[Fitness],
        engine: EvaluationEngine,
    ) -> GenerationStats:
        overall = np.array([f.overall for f in fitnesses])
        sizes = np.array([tree.size for tree in population])
        best = int(np.argmax(overall))
        return GenerationStats(
            generation=generation,
            best_fitness=float(overall[best]),
            mean_fitness=float(overall.mean()),
            best_validity=fitnesses[best].validity,
            best_goal=fitnesses[best].goal,
            best_size=int(sizes[best]),
            mean_size=float(sizes.mean()),
            cache_hit_rate=self._gen_hit_rate,
            eval_time=self._gen_eval_time,
        )
