"""The plan library: keys, LRU repository, substitutions, GP seeding."""

import pytest

from repro.plan import sequential, terminal, tree_to_process
from repro.planner import GPConfig, GPPlanner
from repro.planner.library import (
    PlanEntry,
    PlanLibrary,
    goal_signature,
    library_key,
    problem_digest,
    substitution_map,
)
from repro.planner.problem import PlanningProblem
from repro.workloads.plan_mix import (
    plan_mix_activities,
    plan_mix_goals,
    plan_mix_problem,
)


def _process_for(tree, problem):
    return tree_to_process(
        tree,
        name=f"plan-{problem.name}",
        library={
            name: spec.as_activity()
            for name, spec in problem.activities.items()
        },
    )


def _entry(problem, tree, fitness=0.9, **overrides):
    kwargs = dict(
        digest=problem_digest(problem),
        goal_sig=goal_signature(problem.goals),
        plan=tree,
        process=_process_for(tree, problem),
        fitness=fitness,
        goals=tuple(str(goal) for goal in problem.goals),
        problem_name=problem.name,
    )
    kwargs.update(overrides)
    return PlanEntry(**kwargs)


# -- key scheme ------------------------------------------------------------- #


def test_goal_signature_order_insensitive():
    goals = plan_mix_goals(1)
    assert goal_signature(goals) == goal_signature(tuple(reversed(goals)))
    assert goal_signature(goals) != goal_signature(plan_mix_goals(0))


def test_problem_digest_ignores_name_and_initial_state():
    base = plan_mix_problem(0)
    renamed = PlanningProblem.build(
        "another-name",
        {"src": {"Status": "ready"}, "extra": {"Status": "ready"}},
        plan_mix_goals(0),
        plan_mix_activities(),
    )
    assert problem_digest(renamed) == problem_digest(base)
    # All four goal variants share one digest: same activity set T.
    assert problem_digest(plan_mix_problem(2)) == problem_digest(base)


def test_problem_digest_tracks_activity_set():
    base = plan_mix_problem(0)
    smaller = PlanningProblem.build(
        base.name,
        {"src": {"Status": "ready"}},
        plan_mix_goals(0),
        plan_mix_activities()[:-1],
    )
    assert problem_digest(smaller) != problem_digest(base)


def test_library_key_and_storage_key():
    problem = plan_mix_problem(0)
    digest, goal_sig = library_key(problem)
    assert digest == problem_digest(problem)
    assert goal_sig == goal_signature(problem.goals)
    assert _entry(problem, sequential("fetch")).key == (digest, goal_sig)


# -- the LRU repository ----------------------------------------------------- #


def test_library_get_and_touch():
    problem = plan_mix_problem(0)
    lib = PlanLibrary()
    entry = _entry(problem, sequential("fetch", "clean"))
    lib.put(entry)
    assert len(lib) == 1 and entry.key in lib
    got = lib.get(*entry.key)
    assert got is entry and got.uses == 1
    assert lib.get("nope", "nope") is None


def test_library_lru_eviction_reports_victims():
    lib = PlanLibrary(max_entries=2)
    entries = [
        _entry(plan_mix_problem(variant), sequential("fetch", "clean"))
        for variant in range(3)
    ]
    lib.put(entries[0])
    lib.put(entries[1])
    lib.get(*entries[0].key)  # refresh: entry 1 is now the LRU victim
    lib.put(entries[2])
    assert entries[1].key not in lib
    assert entries[0].key in lib and entries[2].key in lib
    assert lib.counters["evict"] == 1


def test_library_related_ranks_overlap_and_digest():
    lib = PlanLibrary()
    v0, v1, v2 = (
        _entry(plan_mix_problem(variant), sequential("fetch", "clean"))
        for variant in range(3)
    )
    lib.put(v0)
    lib.put(v2)
    # v1's goals share two conditions with v0 and one with v2.
    texts = tuple(str(goal) for goal in plan_mix_goals(1))
    related = lib.related(v1.digest, texts)
    assert [entry.goal_sig for entry in related] == [v0.goal_sig, v2.goal_sig]
    # A foreign digest with disjoint goals is never related.
    assert lib.related("f" * 32, ("nothing",)) == []


def test_library_absorb_and_purge():
    lib = PlanLibrary()
    entry = _entry(plan_mix_problem(0), sequential("fetch", "clean"))
    lib.put(entry)
    lib.put(entry)  # same key: replaced, not added
    assert lib.purge() == 1
    assert len(lib) == 0 and lib.stats().entries == 0


def test_library_stats_snapshot():
    lib = PlanLibrary(max_entries=7)
    lib.count("hit")
    stats = lib.stats()
    assert stats.max_entries == 7
    assert stats.counters["hit"] == 1
    stats.counters["hit"] = 99  # a snapshot, not the live dict
    assert lib.counters["hit"] == 1


def test_library_rejects_bad_cap():
    with pytest.raises(ValueError):
        PlanLibrary(max_entries=0)


# -- repair substitutions --------------------------------------------------- #


def test_substitution_map_picks_effect_equivalent_service():
    problem = plan_mix_problem(0)
    resolvable = [name for name in problem.activities if name != "publish"]
    mapping = substitution_map(problem, ["publish"], resolvable)
    assert mapping == {"publish": "publish_backup"}


def test_substitution_map_omits_irreparable_activities():
    problem = plan_mix_problem(0)
    # No other activity produces 'raw', so a vanished fetch has no swap.
    resolvable = [name for name in problem.activities if name != "fetch"]
    assert substitution_map(problem, ["fetch"], resolvable) == {}
    # Both publishers gone: publish is irreparable too.
    resolvable = [
        name
        for name in problem.activities
        if name not in ("publish", "publish_backup")
    ]
    assert substitution_map(problem, ["publish"], resolvable) == {}


def test_substitution_map_unknown_activity_ignored():
    problem = plan_mix_problem(0)
    assert substitution_map(problem, ["ghost"], problem.activities) == {}


# -- GP seeding ------------------------------------------------------------- #


def _seed_plan():
    return sequential("fetch", "clean", "analyze_a", "publish")


def test_seeded_population_contains_seed_verbatim():
    problem = plan_mix_problem(0)
    cfg = GPConfig(population_size=12, generations=2, smax=12)
    planner = GPPlanner(cfg, rng=3)
    population = planner.initial_population(problem, seeds=(_seed_plan(),))
    assert len(population) == cfg.population_size
    assert _seed_plan() in population


def test_seeding_respects_smax():
    problem = plan_mix_problem(0)
    cfg = GPConfig(population_size=12, generations=2, smax=3)
    oversized = sequential(
        "fetch", "clean", "analyze_a", "publish", "archive"
    )
    population = GPPlanner(cfg, rng=3).initial_population(
        problem, seeds=(oversized,)
    )
    assert oversized not in population
    assert all(tree.size <= cfg.smax for tree in population)


def test_seeds_warm_start_beats_or_matches_seed_fitness():
    problem = plan_mix_problem(0)
    cfg = GPConfig(population_size=20, generations=3, smax=12)
    from repro.planner import EvaluationEngine

    # Score the seed exactly as the GP engine will (same Smax, same
    # simulation options): the seeded run can never finish below it.
    seed_fitness = EvaluationEngine(
        problem, smax=cfg.smax, options=cfg.simulation
    )(_seed_plan()).overall
    result = GPPlanner(cfg, rng=5).plan(problem, seeds=(_seed_plan(),))
    assert result.best_fitness.overall >= seed_fitness - 1e-12

