"""GP planner configuration; defaults reproduce the paper's Table 1.

Table 1 parameter settings: population size 200, number of generations 20,
crossover rate 0.7, mutation rate 0.001, Smax 40, wv 0.2, wg 0.5 — leaving
wr = 0.3 since the weights must sum to 1 (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import PlanningError
from repro.planner.fitness import FitnessWeights
from repro.planner.simulate import SimulationOptions

__all__ = ["GPConfig", "table1_config"]


@dataclass(frozen=True)
class GPConfig:
    population_size: int = 200
    generations: int = 20
    crossover_rate: float = 0.7
    mutation_rate: float = 0.001
    smax: int = 40
    weights: FitnessWeights = field(default_factory=FitnessWeights)
    simulation: SimulationOptions = field(default_factory=SimulationOptions)
    tournament_size: int = 2
    max_branch: int = 4
    early_stop: bool = False
    """Stop once some individual reaches fv = fg = 1.0 (not used by the
    Table-2 reproduction, which runs all generations as the paper does)."""
    static_filter: str = "exact"
    """Static pre-filter for candidate trees (:mod:`repro.analysis.
    plan_filter`): ``"exact"`` (default) scores statically-doomed trees
    without simulating them, bit-identical to full evaluation;
    ``"penalty"`` short-circuits them to a floor fitness (changes
    traces); ``"race"`` is ``"exact"`` plus a floor penalty for trees
    whose CONCURRENT branches statically interfere (changes traces);
    ``"off"`` disables the filter."""
    critical_path_tiebreak: str = "off"
    """``"on"`` breaks exact fitness ties between final candidates by the
    concurrency verifier's parallel speedup bound (prefer the plan with
    the shorter critical path).  ``"off"`` (default) keeps the historical
    first-maximal choice, byte-identical to previous releases."""
    library: str = "off"
    """Plan-library warm starts (:mod:`repro.planner.library`): ``"off"``
    (default) plans every request from scratch — GP populations, fitness
    and message traces are bit-identical to a grid with no library wired
    at all; ``"on"`` lets the planning service consult the persistent
    repository (verified hits skip GP entirely, near-misses seed the
    initial population) and :meth:`GPPlanner.plan` honor *seeds*."""
    seed_fraction: float = 0.5
    """Greatest fraction of the initial population filled from library
    seeds when warm-starting; the rest stays random to preserve
    exploration.  Ignored while ``library="off"``."""
    seed_mutation_rate: float = 0.2
    """Per-node mutation rate applied to the extra copies of each seed
    placed in the initial population (the first copy of every seed enters
    verbatim).  Deliberately far above *mutation_rate*: seeds should spread
    through the neighborhood of the stored solution, not clone it."""

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise PlanningError("population size must be >= 2")
        if self.population_size % 2:
            raise PlanningError(
                "population size must be even (crossover pairs the population)"
            )
        if self.generations < 1:
            raise PlanningError("generations must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise PlanningError("crossover rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise PlanningError("mutation rate must be in [0, 1]")
        if self.smax < 1:
            raise PlanningError("Smax must be >= 1")
        if self.static_filter not in ("off", "exact", "penalty", "race"):
            raise PlanningError(
                f"static_filter must be 'off', 'exact', 'penalty' or "
                f"'race', got {self.static_filter!r}"
            )
        if self.critical_path_tiebreak not in ("off", "on"):
            raise PlanningError(
                f"critical_path_tiebreak must be 'off' or 'on', "
                f"got {self.critical_path_tiebreak!r}"
            )
        if self.library not in ("off", "on"):
            raise PlanningError(
                f"library must be 'off' or 'on', got {self.library!r}"
            )
        if not 0.0 <= self.seed_fraction <= 1.0:
            raise PlanningError("seed fraction must be in [0, 1]")
        if not 0.0 <= self.seed_mutation_rate <= 1.0:
            raise PlanningError("seed mutation rate must be in [0, 1]")

    def with_(self, **changes) -> "GPConfig":
        """A copy with the given fields replaced (ablation sweeps)."""
        return replace(self, **changes)

    def as_table(self) -> list[tuple[str, object]]:
        """The Table-1 rows, in the paper's order."""
        return [
            ("Population Size", self.population_size),
            ("Number of Generation", self.generations),
            ("Crossover Rate", self.crossover_rate),
            ("Mutation Rate", self.mutation_rate),
            ("Smax", self.smax),
            ("wv", self.weights.validity),
            ("wg", self.weights.goal),
        ]


def table1_config() -> GPConfig:
    """The exact Table-1 configuration."""
    return GPConfig()
