"""The plan evaluator: dedup and the bounded fitness cache."""

import pickle

import numpy as np

from repro.plan import random_tree, sequential, terminal
from repro.planner import EvaluationEngine, GPConfig, GPPlanner, evaluate_tree
from repro.planner import engine as engine_module


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
        reference = EvaluationEngine(case_problem)
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
        for tree, cached in zip(trees, first):
            assert cached == evaluate_tree(
                tree,
                case_problem,
                engine.weights,
                engine.smax,
                engine.options,
            )


class TestCacheEffect:
    def test_gp_run_simulates_fewer_than_no_cache(self, case_problem, monkeypatch):
        """The cache must strictly cut unique simulations vs. the same
        seeded run with caching disabled (a bound of 0 keeps nothing)."""
        cfg = GPConfig(population_size=20, generations=4)
        cached = GPPlanner(cfg, rng=2).plan(case_problem)
        monkeypatch.setattr(engine_module, "CACHE_SIZE", 0)
        uncached = GPPlanner(cfg, rng=2).plan(case_problem)
        assert cached.best_fitness == uncached.best_fitness
        assert cached.evaluations < uncached.evaluations
        # no-cache count == every single evaluator call
        assert uncached.evaluations == uncached.cache_misses
        assert uncached.cache_hits == 0

    def test_lru_bound_is_enforced(self, case_problem, monkeypatch):
        monkeypatch.setattr(engine_module, "CACHE_SIZE", 4)
        engine = EvaluationEngine(case_problem)
        trees = _random_trees(case_problem, 10, seed=9)
        assert len({tree.struct_key() for tree in trees}) == 10
        engine.evaluate_many(trees)
        # Only the four most recent structures are still cached.
        engine.evaluate_many(trees[-4:])
        assert (engine.evaluations, engine.cache_hits) == (10, 4)
        engine(trees[0])
        assert engine.evaluations == 11

    def test_lru_evicts_least_recently_used(self, case_problem, monkeypatch):
        monkeypatch.setattr(engine_module, "CACHE_SIZE", 2)
        engine = EvaluationEngine(case_problem)
        a, b, c = (terminal(n) for n in ("POD", "PSF", "POR"))
        engine(a)
        engine(b)
        engine(a)  # refresh a: b is now LRU
        engine(c)  # evicts b
        hits = engine.cache_hits
        engine(a)
        assert engine.cache_hits == hits + 1  # a survived
        engine(b)
        assert engine.evaluations == 4  # b was re-simulated

    def test_cache_size_zero_disables_caching(self, case_problem, monkeypatch):
        monkeypatch.setattr(engine_module, "CACHE_SIZE", 0)
        engine = EvaluationEngine(case_problem)
        tree = sequential("POD", "PSF")
        assert engine(tree) == engine(tree)
        assert engine.evaluations == 2
        assert engine.cache_hits == 0


class TestPoolPlumbing:
    """Problems reach the seed-parallel ``run_seeds`` workers by pickle."""

    def test_problem_pickle_roundtrip_still_evaluates(self, case_problem):
        clone = pickle.loads(pickle.dumps(case_problem))
        tree = sequential("POD", "PSF")
        original = EvaluationEngine(case_problem)(tree)
        assert EvaluationEngine(clone)(tree) == original


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
