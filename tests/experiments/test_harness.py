"""The seed-parallel GP runner: pool results equal the serial run."""

import pytest

from repro.experiments.harness import run_seeds
from repro.planner import GPConfig, GPPlanner
from repro.virolab import planning_problem

TINY = GPConfig(population_size=4, generations=1)


def test_pool_matches_serial():
    problem = planning_problem()
    pooled = run_seeds(TINY, problem, [0, 1], workers=2)
    serial = run_seeds(TINY, problem, [0, 1])
    assert len(pooled) == 2
    assert pooled == serial


def test_failed_seed_raises_without_rerun(monkeypatch):
    # Every seed fails in its worker (no problem to plan: the engine reads
    # None's attributes).  The worker's error comes back as raised, and no
    # seed runs again in this process.
    planned = []
    plan = GPPlanner.plan

    def counting_plan(self, problem):
        planned.append(problem)
        return plan(self, problem)

    monkeypatch.setattr(GPPlanner, "plan", counting_plan)
    with pytest.raises(AttributeError):
        run_seeds(TINY, None, [0, 1, 2], workers=2)
    assert planned == []
