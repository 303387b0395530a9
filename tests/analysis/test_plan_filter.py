"""Static GP pre-filter: sound doomed verdicts, bit-identical fitness."""

import pytest

from repro.analysis import PlanStaticFilter
from repro.analysis.plan_filter import terminal_names
from repro.errors import PlanningError
from repro.plan import concurrent, sequential, terminal
from repro.planner import EvaluationEngine, GPConfig, GPPlanner
from repro.planner.fitness import FitnessWeights, evaluate_tree
from repro.planner.simulate import SimulationOptions
from repro.virolab import planning_problem

SMAX = 40


@pytest.fixture(scope="module")
def problem():
    return planning_problem()


@pytest.fixture(scope="module")
def filt(problem):
    return PlanStaticFilter(
        problem, FitnessWeights(), SMAX, SimulationOptions(), mode="exact"
    )


def test_terminal_names():
    tree = sequential("POD", sequential("P3DR1", "POD"), terminal("POR"))
    assert terminal_names(tree) == {"POD", "P3DR1", "POR"}


def test_unknown_activity_only_is_doomed(filt):
    assert filt.doomed(terminal("NOPE"))


def test_downstream_only_activity_is_doomed(filt):
    # POR needs a 3D model no terminal in the set can produce: the closure
    # never validates it, whatever the controller structure.
    assert filt.doomed(sequential("POR", "POR"))
    assert filt.doomed(sequential("PSF", "POR"))


def test_producer_chain_is_not_doomed(filt):
    # POD is applicable in Sinit; POD -> P3DR -> POR becomes reachable.
    assert not filt.doomed(terminal("POD"))
    assert not filt.doomed(sequential("POD", "P3DR1", "POR"))


def test_one_viable_terminal_saves_the_tree(filt):
    # Soundness: a tree is doomed only if NO terminal can ever fire.
    assert not filt.doomed(sequential("POR", "POD"))


def test_exact_mode_matches_full_evaluation(problem, filt):
    weights, options = FitnessWeights(), SimulationOptions()
    for tree in (
        terminal("NOPE"),
        sequential("POR", "PSF"),
        sequential("PSF", sequential("POR", "POR")),
    ):
        static = filt.fitness_for(tree)
        assert static is not None
        real = evaluate_tree(tree, problem, weights, SMAX, options)
        assert static == real  # bit-identical, not approximately


def test_viable_tree_returns_none(filt):
    assert filt.fitness_for(terminal("POD")) is None


def test_off_mode_never_dooms(problem):
    off = PlanStaticFilter(
        problem, FitnessWeights(), SMAX, SimulationOptions(), mode="off"
    )
    assert not off.doomed(terminal("NOPE"))


def test_bad_mode_rejected(problem):
    with pytest.raises(ValueError):
        PlanStaticFilter(
            problem, FitnessWeights(), SMAX, SimulationOptions(), mode="maybe"
        )


def test_modes_are_off_exact_race():
    # "off" is the bit-identity reference, "exact" the default, "race"
    # the opt-in fork-interference floor; nothing else is accepted.
    assert PlanStaticFilter.MODES == ("off", "exact", "race")
    with pytest.raises(PlanningError):
        GPConfig(static_filter="penalty")


def test_engine_counters_track_filtered_trees(problem):
    engine = EvaluationEngine(problem, static_filter="exact")
    doomed = sequential("POR", "POR")
    viable = terminal("POD")
    engine.evaluate_many([doomed, viable, doomed])
    assert engine.analysis_rejected == 1  # one unique doomed structure
    assert engine.evaluations == engine.cache_misses == 2
    assert engine.cache_hits == 1
    # Serial path: cached on repeat, filtered when new.
    engine(doomed)
    assert engine.cache_hits == 2
    assert engine.analysis_rejected == 1


class TestRaceMode:
    @pytest.fixture(scope="class")
    def race(self, problem):
        return PlanStaticFilter(
            problem, FitnessWeights(), SMAX, SimulationOptions(), mode="race"
        )

    def test_concurrent_write_write_is_racy(self, race):
        # POD and POR both emit D8 from different services: running them
        # on sibling CONCURRENT branches races on the orientation file.
        assert race.racy(concurrent("POD", "POR"))

    def test_replica_branches_are_not_racy(self, race):
        # P3DR1..P3DR4 are copies of one logical step (one service, same
        # data sets) — the paper's Figure-13 fan-out must stay admissible.
        assert not race.racy(concurrent("P3DR1", "P3DR2", "P3DR3"))

    def test_disjoint_outputs_are_not_racy(self, race):
        assert not race.racy(concurrent("POD", "P3DR1"))

    def test_sequential_composition_is_never_racy(self, race):
        assert not race.racy(sequential("POD", "POR"))

    def test_nested_concurrent_is_found(self, race):
        tree = sequential("POD", concurrent("P3DR1", sequential("POR", "PSF")))
        # POR (writes D8) vs ... P3DR1 writes D9 only - not racy
        assert not race.racy(tree)
        racy = sequential("P3DR1", concurrent("POD", sequential("POR", "PSF")))
        assert race.racy(racy)

    def test_racy_tree_gets_floor_fitness_and_counter(self, race):
        before = race.race_rejected
        fitness = race.fitness_for(concurrent("POD", "POR"))
        assert fitness is not None
        assert fitness.validity == 0.0 and fitness.goal == 0.0
        assert race.race_rejected == before + 1

    def test_other_modes_never_flag_races(self, filt):
        assert not filt.racy(concurrent("POD", "POR"))
        assert filt.race_rejected == 0


def test_gp_run_identical_with_exact_filter(problem):
    results = {}
    for mode in ("off", "exact"):
        cfg = GPConfig(population_size=30, generations=4, static_filter=mode)
        results[mode] = GPPlanner(cfg, rng=3).plan(problem)
    off, exact = results["off"], results["exact"]
    assert exact.best_fitness == off.best_fitness
    assert exact.best_plan.struct_key() == off.best_plan.struct_key()
    assert exact.history == off.history
    assert exact.evaluations == off.evaluations
    assert exact.analysis_rejected > 0
    assert off.analysis_rejected == 0
