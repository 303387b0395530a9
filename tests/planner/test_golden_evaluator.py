"""Golden digests of the evaluator paths the GP digests do not cover.

``test_golden_gp.py`` pins seeded GP runs with the default ``"exact"``
static filter.  These digests pin the other callers of the plan
evaluator: the random-search and hill-climbing baselines (the climber
with restarts forced by a small ``stall_limit``), forward search scoring
its plan with a default evaluator, the repair pass of a GP plan, and a
GP run under the ``"race"`` filter, which floors racy trees.

Each digest covers the plan's structure, the fitness (as its repr) and
every counter of the run, including ``analysis_rejected`` and
``race_rejected``, which ``PlanningResult`` equality ignores.  A change
to fitness, the cache or the filter that moves a score or a count moves
a digest; update one only on purpose.
"""

import hashlib

from repro.plan import sequential
from repro.planner import (
    EvaluationEngine,
    GPConfig,
    GPPlanner,
    forward_search,
    hill_climb,
    random_search,
    repair_plan,
)
from repro.virolab import planning_problem
from repro.workloads import distractor_problem
from repro.workloads.plan_mix import plan_mix_problem


def digest(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


def result_parts(result):
    history = tuple(
        (
            s.generation,
            s.best_fitness,
            s.mean_fitness,
            s.best_validity,
            s.best_goal,
            s.best_size,
            s.mean_size,
            s.cache_hit_rate,
        )
        for s in result.history
    )
    return (
        result.best_plan.struct_key(),
        repr(result.best_fitness),
        history,
        result.evaluations,
        result.generations_run,
        result.cache_hits,
        result.cache_misses,
        result.analysis_rejected,
        result.race_rejected,
    )


def engine_counters(engine):
    return (engine.evaluations, engine.cache_hits, engine.cache_misses)


def test_random_search_digest():
    problem = planning_problem()
    engine = EvaluationEngine(problem)
    result = random_search(problem, engine, budget=300, rng=0)
    assert engine.evaluations == 299
    assert digest(result_parts(result), engine_counters(engine)) == (
        "78eb5c72624726b32a1a889592d4d294"
    )


def test_hill_climb_digest():
    problem = planning_problem()
    engine = EvaluationEngine(problem)
    result = hill_climb(problem, engine, budget=300, rng=0, stall_limit=5)
    assert engine.evaluations == 192
    assert digest(result_parts(result), engine_counters(engine)) == (
        "78bf2a10e2439ebc205e97bd0e3986d8"
    )


def test_forward_search_digest():
    result = forward_search(distractor_problem(3, 5))
    assert result.solved
    assert digest(result_parts(result)) == "f429a027184f28dcf7d6581834dc1510"


def test_repair_digest():
    problem = planning_problem()
    run = GPPlanner(GPConfig(population_size=40, generations=6), rng=0).plan(problem)
    repaired = repair_plan(run.best_plan, problem)
    # The same plan behind a terminal outside T: repair deletes it.
    ghosted = repair_plan(sequential("ghost", run.best_plan), problem)
    assert ghosted.removed == ("ghost",)
    parts = [
        (result.plan.struct_key(), repr(result.fitness), result.removed)
        for result in (repaired, ghosted)
    ]
    assert digest(result_parts(run), parts) == "7ad04e9d665faee7e1798ef6568d671d"


def test_race_filter_digest():
    config = GPConfig(population_size=60, generations=8, static_filter="race")
    result = GPPlanner(config, rng=0).plan(plan_mix_problem(1))
    assert (result.analysis_rejected, result.race_rejected) == (86, 28)
    assert digest(result_parts(result)) == "a7ca776cfa592f27d10ab2749b852de6"
