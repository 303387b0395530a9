"""Golden GP digests: seeded GP runs on the ``plan`` workload's problem
shapes must reproduce these exact results.

Each digest covers the best plan's structure, the best fitness (as its
repr), every generation's statistics, and the evaluation and cache
counters — everything in a :class:`PlanningResult` but its wall-clock
``eval_time``.  A change to the simulator, fitness, operators or caches
that alters any plan, score or count moves a digest; update one only on
purpose.
"""

import hashlib

import pytest

from repro.planner import GPConfig, GPPlanner
from repro.virolab import planning_problem
from repro.workloads.plan_mix import plan_mix_problem
from repro.workloads.synthetic import chain_problem, diamond_problem, random_problem

GOLDEN = {
    "3DSD": (planning_problem, "aa5150a24f3a64ad0e213535280fb486", 363),
    "plan-mix-v1": (lambda: plan_mix_problem(1), "b783e68ef792d1375df210382e9c468b", 370),
    "diamond-4": (lambda: diamond_problem(4), "99abb584c6e32c9145f5bb13285062c0", 357),
    "chain-6": (lambda: chain_problem(6), "0a4a3f8597b292aec1ec5d8ea3a9cb42", 345),
    "random-12": (
        lambda: random_problem(12, 3, seed=2),
        "109c36b941bc3d8f9967de9c84d4fc1b",
        357,
    ),
}


def gp_digest(result) -> str:
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
    payload = (
        result.best_plan.struct_key(),
        repr(result.best_fitness),
        history,
        result.evaluations,
        result.cache_hits,
        result.cache_misses,
    )
    return hashlib.blake2b(repr(payload).encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_gp_run_matches_golden_digest(name):
    build, digest, evaluations = GOLDEN[name]
    problem = build()
    assert problem.name == name
    result = GPPlanner(GPConfig(population_size=60, generations=10), rng=0).plan(problem)
    assert result.evaluations == evaluations
    assert gp_digest(result) == digest
