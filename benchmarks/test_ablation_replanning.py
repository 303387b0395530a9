"""Ablation A5 — re-planning robustness under container failure injection."""

from repro.experiments import replanning_sweep

from benchmarks.conftest import run_once


def test_ablation_replanning(benchmark, show):
    table = run_once(
        benchmark,
        lambda: replanning_sweep(
            failure_rates=(0.0, 0.2, 0.4), cases=4, containers=3
        ),
    )
    show(table)
    completed = {
        (rate, mode): done
        for rate, mode, done, acts, replans in table.rows
    }
    # No failures -> everything completes either way.
    assert completed[(0.0, "on")] == 1.0
    assert completed[(0.0, "off")] == 1.0
    # Under failures, re-planning completes at least as many cases.
    for rate in (0.2, 0.4):
        assert completed[(rate, "on")] >= completed[(rate, "off")]
    # Exact pin beside the bands: the failure draws are seeded and the
    # simulation is deterministic, so every row repeats exactly — rate,
    # re-planning mode, completion rate, mean activities run, mean
    # replans.
    assert table.rows == [
        (0.0, "on", 1.0, 17.0, 0.0),
        (0.0, "off", 1.0, 17.0, 0.0),
        (0.2, "on", 1.0, 17.0, 0.0),
        (0.2, "off", 1.0, 17.0, 0.0),
        (0.4, "on", 1.0, 12.25, 0.75),
        (0.4, "off", 0.25, 10.25, 0.0),
    ]
