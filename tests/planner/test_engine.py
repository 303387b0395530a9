"""The batched evaluation engine: dedup and the shared cache."""

import pickle

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.plan import random_tree, sequential, terminal
from repro.planner import (
    EvaluationEngine,
    GPConfig,
    GPPlanner,
    PlanEvaluator,
    evaluate_tree,
)


def _random_trees(problem, count, seed=0):
    rng = np.random.default_rng(seed)
    activities = list(problem.activity_names)
    return [
        random_tree(activities, max_size=40, rng=rng, max_branch=4)
        for _ in range(count)
    ]


class TestStructuralKey:
    def test_equal_trees_share_key(self):
        a = sequential("POD", terminal("PSF"))
        b = sequential("POD", "PSF")
        assert a.struct_key() == b.struct_key()
        assert a.struct_key() is a.struct_key()  # cached

    def test_different_trees_differ(self):
        assert sequential("POD", "PSF").struct_key() != (
            sequential("PSF", "POD").struct_key()
        )

    def test_key_survives_pickle_without_cache(self):
        tree = sequential("POD", "PSF")
        key = tree.struct_key()
        clone = pickle.loads(pickle.dumps(tree))
        assert "_skey" not in clone.__dict__
        assert clone.struct_key() == key


class TestEvaluateMany:
    def test_matches_single_evaluation(self, case_problem):
        trees = _random_trees(case_problem, 30)
        engine = EvaluationEngine(case_problem)
        batched = engine.evaluate_many(trees)
        reference = PlanEvaluator(case_problem)
        assert batched == [reference(tree) for tree in trees]

    def test_in_batch_dedup_simulates_once(self, case_problem):
        tree = sequential("POD", "PSF")
        batch = [tree, sequential("POD", "PSF"), tree]
        engine = EvaluationEngine(case_problem)
        fits = engine.evaluate_many(batch)
        assert engine.evaluations == 1
        assert engine.cache_hits == 2
        assert fits[0] == fits[1] == fits[2]

    def test_cache_spans_batches_and_single_calls(self, case_problem):
        tree = sequential("POD", "PSF")
        engine = EvaluationEngine(case_problem)
        engine.evaluate_many([tree])
        engine.evaluate_many([sequential("POD", "PSF")])
        engine(tree)
        assert engine.evaluations == 1
        assert engine.cache_hits == 2

    def test_cached_fitness_equals_fresh_simulation(self, case_problem):
        """200 random trees: a value served from the cache is bit-identical
        to a from-scratch simulation of the same tree."""
        trees = _random_trees(case_problem, 200, seed=3)
        engine = EvaluationEngine(case_problem)
        first = engine.evaluate_many(trees)
        again = engine.evaluate_many(trees)  # all cache hits
        assert again == first
        evaluator = PlanEvaluator(case_problem)
        for tree, cached in zip(trees, first):
            assert cached == evaluate_tree(
                tree,
                case_problem,
                evaluator.weights,
                evaluator.smax,
                evaluator.options,
            )

    def test_shares_cache_with_wrapped_evaluator(self, case_problem):
        evaluator = PlanEvaluator(case_problem)
        tree = sequential("POD", "PSF")
        evaluator(tree)
        engine = EvaluationEngine(evaluator=evaluator)
        engine.evaluate_many([tree])
        assert evaluator.evaluations == 1

    def test_requires_problem_or_evaluator(self):
        with pytest.raises(PlanningError):
            EvaluationEngine()


class TestCacheEffect:
    def test_gp_run_simulates_fewer_than_no_cache(self, case_problem):
        """The shared cache + dedup must strictly cut unique simulations
        vs. the same seeded run with caching disabled."""
        cfg = GPConfig(population_size=20, generations=4)
        cached = GPPlanner(cfg, rng=2).plan(case_problem)
        uncached_evaluator = PlanEvaluator(case_problem, cache_size=0)
        uncached = GPPlanner(cfg, rng=2).plan(
            case_problem, evaluator=uncached_evaluator
        )
        assert cached.best_fitness == uncached.best_fitness
        assert cached.evaluations < uncached.evaluations
        # no-cache count == every single evaluator call
        assert uncached.evaluations == uncached.cache_misses

    def test_lru_bound_is_enforced(self, case_problem):
        evaluator = PlanEvaluator(case_problem, cache_size=4)
        trees = _random_trees(case_problem, 10, seed=9)
        for tree in trees:
            evaluator(tree)
        assert len(evaluator) <= 4
        assert evaluator.evaluations >= 10 - 4

    def test_lru_evicts_least_recently_used(self, case_problem):
        evaluator = PlanEvaluator(case_problem, cache_size=2)
        a, b, c = (terminal(n) for n in ("POD", "PSF", "POR"))
        evaluator(a)
        evaluator(b)
        evaluator(a)  # refresh a: b is now LRU
        evaluator(c)  # evicts b
        hits = evaluator.cache_hits
        evaluator(a)
        assert evaluator.cache_hits == hits + 1  # a survived
        evaluator(b)
        assert evaluator.evaluations == 4  # b was re-simulated

    def test_cache_size_zero_disables_caching(self, case_problem):
        evaluator = PlanEvaluator(case_problem, cache_size=0)
        tree = sequential("POD", "PSF")
        assert evaluator(tree) == evaluator(tree)
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 0

    def test_negative_cache_size_rejected(self, case_problem):
        with pytest.raises(PlanningError):
            PlanEvaluator(case_problem, cache_size=-1)


class TestPoolPlumbing:
    """Problems reach the seed-parallel ``run_seeds`` workers by pickle."""

    def test_problem_pickle_roundtrip_still_evaluates(self, case_problem):
        clone = pickle.loads(pickle.dumps(case_problem))
        tree = sequential("POD", "PSF")
        original = PlanEvaluator(case_problem)(tree)
        assert PlanEvaluator(clone)(tree) == original


class TestTelemetry:
    def test_result_surfaces_cache_and_timing(self, case_problem):
        cfg = GPConfig(population_size=20, generations=3)
        result = GPPlanner(cfg, rng=4).plan(case_problem)
        assert result.cache_hits + result.cache_misses == 20 * 4
        assert result.cache_misses == result.evaluations
        assert 0.0 < result.cache_hit_rate < 1.0
        assert result.eval_time > 0.0
        assert len(result.history) == 3
        for stats in result.history:
            assert stats.eval_time >= 0.0
            assert 0.0 <= stats.cache_hit_rate <= 1.0
