"""Table 2 — the Section-5 experiment: 10 GP runs at Table-1 settings.

Paper values: average fitness 0.928, validity fitness 1.0, goal fitness
1.0, average solution size 9.7.  Shape targets (DESIGN.md): the planner
must *consistently* find valid, goal-reaching plans (validity/goal ~1.0),
with compact solutions (size ~10) and overall fitness ~0.92-0.96.
"""

import pytest

from repro.experiments import table2

from benchmarks.conftest import run_once


def test_table2_planning(benchmark, show):
    result = run_once(benchmark, lambda: table2(runs=10, base_seed=0))
    show(result.table)

    # Goal fitness: every run must plan to the case's result set.
    assert result.avg_goal == 1.0
    # Validity: the paper claims 1.0 in all ten runs; we tolerate one
    # near-miss run but the average must stay >= 0.98.
    assert result.avg_validity >= 0.98
    assert result.solved_runs >= 9
    # Compact plans, matching "an average size of less than ten nodes".
    assert 4.0 <= result.avg_size <= 13.0
    # Overall fitness in the paper's band.
    assert 0.90 <= result.avg_fitness <= 0.97
    # Exact pins beside the bands: ten seeded GP runs repeat bit for bit,
    # so a change to the planner's RNG stream, operators, simulator or
    # fitness that moves any Table-2 number shows here.  The mean of the
    # ten overall fitnesses reads 0.9332499999999999 in binary floating
    # point, hence the tolerance on that one value.
    assert result.avg_fitness == pytest.approx(0.93325, rel=0, abs=1e-12)
    assert (
        result.avg_validity, result.avg_goal, result.avg_size, result.solved_runs
    ) == (0.9925, 1.0, 8.7, 9)
