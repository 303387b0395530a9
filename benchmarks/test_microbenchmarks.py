"""Micro-benchmarks: throughput of the hot kernels.

These are the performance-regression guards (no paper counterpart): the
parser, the structured-recovery algorithm, symbolic plan simulation, GP
generations, the DES engine and the reconstruction kernels.
"""

import numpy as np

from repro.plan import process_to_tree, random_tree, tree_to_process
from repro.planner import EvaluationEngine, GPConfig, GPPlanner
from repro.process import parse_process, unparse
from repro.sim import Engine
from repro.virolab import (
    make_dataset,
    make_phantom,
    p3dr,
    planning_problem,
    plan_tree,
    pod,
    process_description,
)

FIG10_TEXT = unparse(
    __import__("repro.process", fromlist=["process_to_ast"]).process_to_ast(
        process_description()
    )
)


def test_bench_parse_fig10(benchmark):
    ast = benchmark(parse_process, FIG10_TEXT)
    assert len(ast.activity_names()) == 7


def test_bench_structure_recovery(benchmark):
    pd = process_description()
    tree = benchmark(process_to_tree, pd)
    assert tree.size == 10


def test_bench_tree_elaboration(benchmark):
    tree = plan_tree()
    pd = benchmark(tree_to_process, tree)
    assert len(pd.transitions) == 15


def _fresh_engine():
    """Round setup: an engine on a fresh problem (cold table and cache)."""
    return (EvaluationEngine(planning_problem()),), {}


def test_bench_plan_simulation(benchmark):
    """One Figure-11 evaluation on a fresh problem per round, so every
    round derives its states into a cold transition table."""
    tree = plan_tree()

    fitness = benchmark.pedantic(lambda engine: engine(tree), setup=_fresh_engine, rounds=20)
    assert fitness.validity == 1.0


def _bench_population(count=60, seed=0):
    activities = list(planning_problem().activity_names)
    rng = np.random.default_rng(seed)
    return [
        random_tree(activities, max_size=40, rng=rng, max_branch=4)
        for _ in range(count)
    ]


def test_bench_evaluate_many_serial(benchmark):
    """Population-60 batch through the engine, on a fresh problem per
    round so every round simulates into a cold table."""
    trees = _bench_population()
    fits = benchmark.pedantic(
        lambda engine: engine.evaluate_many(trees), setup=_fresh_engine, rounds=5
    )
    assert len(fits) == 60


def test_bench_evaluate_many_dedup(benchmark):
    """Population-60 batch with only 12 unique structures: measures how
    much in-batch dedup shaves off vs. the all-unique serial benchmark."""
    unique = _bench_population(count=12)
    trees = [unique[i % 12] for i in range(60)]

    def run(engine):
        return engine, engine.evaluate_many(trees)

    engine, fits = benchmark.pedantic(run, setup=_fresh_engine, rounds=5)
    assert len(fits) == 60
    assert engine.evaluations == 12


def test_bench_random_tree_generation(benchmark):
    rng = np.random.default_rng(0)
    activities = list(planning_problem().activity_names)
    tree = benchmark(random_tree, activities, None, 40, rng)
    assert 1 <= tree.size <= 40


def test_bench_gp_generation(benchmark):
    """One full GP generation (population 60) on a fresh case-study
    problem per round."""
    cfg = GPConfig(population_size=60, generations=1)

    def fresh():
        return (planning_problem(),), {}

    result = benchmark.pedantic(
        lambda problem: GPPlanner(cfg, rng=0).plan(problem), setup=fresh, rounds=3
    )
    assert result.best_fitness.overall > 0


def test_bench_des_engine_events(benchmark):
    """Throughput of the event loop: 10k chained timer events."""

    def run():
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                engine.schedule(0.001, tick)

        engine.schedule(0.0, tick)
        engine.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_bench_projection_matching(benchmark):
    phantom = make_phantom(size=24, seed=0)
    dataset = make_dataset(phantom, count=16, noise_sigma=0.0, seed=1)
    orientations, scores = benchmark.pedantic(
        pod, args=(dataset.images, phantom), kwargs={"directions": 64, "inplane": 8},
        rounds=2, iterations=1,
    )
    assert scores.mean() > 0.8


def test_bench_reconstruction(benchmark):
    phantom = make_phantom(size=24, seed=0)
    dataset = make_dataset(phantom, count=16, noise_sigma=0.0, seed=1)
    model = benchmark.pedantic(
        p3dr, args=(dataset.images, dataset.true_rotations),
        rounds=2, iterations=1,
    )
    assert model.shape == (24, 24, 24)
