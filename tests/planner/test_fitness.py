"""Fitness evaluation: Eqs. 1-4, weights, caching."""

import pytest

from repro.errors import PlanningError
from repro.plan import sequential, terminal
from repro.planner import EvaluationEngine, FitnessWeights
from repro.virolab import plan_tree


class TestWeights:
    def test_defaults_are_table1(self):
        w = FitnessWeights()
        assert (w.validity, w.goal, w.efficiency) == (0.2, 0.5, 0.3)

    def test_must_sum_to_one(self):
        with pytest.raises(PlanningError):
            FitnessWeights(0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(PlanningError):
            FitnessWeights(-0.2, 0.9, 0.3)

    def test_custom_weights_ok(self):
        FitnessWeights(1.0, 0.0, 0.0)


class TestEvaluator:
    def test_fig11_matches_paper_arithmetic(self, case_problem):
        evaluator = EvaluationEngine(case_problem)
        fitness = evaluator(plan_tree())
        # fv = fg = 1, fr = 1 - 10/40 = 0.75 -> f = 0.2 + 0.5 + 0.3*0.75
        assert fitness.validity == 1.0
        assert fitness.goal == 1.0
        assert fitness.efficiency == pytest.approx(0.75)
        assert fitness.overall == pytest.approx(0.925)

    def test_eq4_weighted_sum(self, case_problem):
        evaluator = EvaluationEngine(
            case_problem, weights=FitnessWeights(0.0, 0.0, 1.0)
        )
        fitness = evaluator(terminal("POD"))
        assert fitness.overall == pytest.approx(1 - 1 / 40)

    def test_cache_counts_unique_evaluations(self, case_problem):
        evaluator = EvaluationEngine(case_problem)
        tree = sequential("POD", "PSF")
        evaluator(tree)
        evaluator(tree)
        evaluator(sequential("POD", "PSF"))  # equal tree -> cache hit
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 2
        evaluator(terminal("POD"))
        assert evaluator.evaluations == 2

    def test_fitness_ordering(self, case_problem):
        evaluator = EvaluationEngine(case_problem)
        good = evaluator(plan_tree())
        bad = evaluator(terminal("PSF"))
        assert bad < good
        assert bad <= good

    def test_invalid_smax(self, case_problem):
        with pytest.raises(PlanningError):
            EvaluationEngine(case_problem, smax=0)
