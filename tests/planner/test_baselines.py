"""Baseline planners: random search, hill climbing, forward search."""

import pytest

from repro.errors import PlanningError
from repro.plan import Terminal
from repro.planner import (
    EvaluationEngine,
    PlanningProblem,
    WorldState,
    forward_search,
    hill_climb,
    random_search,
)
from repro.workloads import chain_problem, choice_problem, distractor_problem


@pytest.fixture
def evaluator(case_problem):
    return EvaluationEngine(case_problem)


class TestRandomSearch:
    def test_respects_budget(self, case_problem, evaluator):
        result = random_search(case_problem, evaluator, budget=50, rng=0)
        assert evaluator.evaluations <= 50
        assert result.best_fitness.overall > 0.0

    def test_deterministic(self, case_problem):
        results = []
        for _ in range(2):
            ev = EvaluationEngine(case_problem)
            results.append(random_search(case_problem, ev, budget=30, rng=4))
        assert results[0].best_plan == results[1].best_plan

    def test_improves_with_budget(self, case_problem):
        small = random_search(case_problem, EvaluationEngine(case_problem), 10, rng=1)
        large = random_search(case_problem, EvaluationEngine(case_problem), 500, rng=1)
        assert large.best_fitness.overall >= small.best_fitness.overall


class TestHillClimb:
    def test_runs_and_returns_best(self, case_problem, evaluator):
        result = hill_climb(case_problem, evaluator, budget=100, rng=0)
        assert 0.0 < result.best_fitness.overall <= 1.0
        assert result.best_plan.size <= evaluator.smax

    def test_restarts_on_stall(self, case_problem, evaluator):
        # tiny stall limit forces restarts; must still return a plan
        result = hill_climb(
            case_problem, evaluator, budget=60, rng=0, stall_limit=3
        )
        assert result.best_plan is not None


class TestForwardSearch:
    def test_chain_shortest_plan(self):
        problem = chain_problem(4)
        result = forward_search(problem)
        assert result.best_plan.activities() == ["a1", "a2", "a3", "a4"]
        assert result.solved

    def test_choice_takes_one_route(self):
        result = forward_search(choice_problem())
        names = result.best_plan.activities()
        assert names in (["left1", "left2"], ["right1", "right2"])

    def test_distractors_ignored(self):
        result = forward_search(distractor_problem(3, 5))
        assert all(not a.startswith("junk") for a in result.best_plan.activities())

    def test_single_step_plan_is_terminal(self):
        problem = chain_problem(1)
        result = forward_search(problem)
        assert isinstance(result.best_plan, Terminal)

    def test_unreachable_goal_raises(self):
        from repro.planner import ActivitySpec
        from repro.process.conditions import Atom

        problem = PlanningProblem.build(
            "impossible",
            {"d0": {"Status": "ready"}},
            (Atom("never", "Status", "=", "ready"),),
            [ActivitySpec("a", precondition=Atom("d0", "Status", "=", "ready"),
                          effects={"d1": {"Status": "ready"}})],
        )
        with pytest.raises(PlanningError):
            forward_search(problem)

    def test_trivial_goal_raises(self):
        problem = chain_problem(2)
        trivial = PlanningProblem(
            initial_state=WorldState({"d2": {"Status": "ready"}}),
            goals=problem.goals,
            activities=problem.activities,
        )
        with pytest.raises(PlanningError):
            forward_search(trivial)

    def test_case_study_solved(self, case_problem, evaluator):
        result = forward_search(case_problem, evaluator)
        assert result.solved
        # The shortest route: POD, then both stream reconstructions, PSF.
        assert len(result.best_plan.activities()) == 4


class TestComparative:
    def test_gp_beats_random_on_chain(self, small_gp_config):
        """The headline A4 claim at small scale: with a matched budget, GP
        finds better plans than random search on ordering-sensitive
        problems."""
        from repro.planner import GPPlanner

        problem = chain_problem(6)
        gp = GPPlanner(small_gp_config, rng=0).plan(problem)
        ev = EvaluationEngine(problem)
        rnd = random_search(problem, ev, budget=max(gp.evaluations, 1), rng=0)
        assert gp.best_fitness.overall >= rnd.best_fitness.overall
