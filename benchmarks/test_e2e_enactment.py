"""E2E — the full case study: real reconstruction on the simulated grid.

Regenerates the Section-4 computation exactly as Figure 10 prescribes,
with the real POD / P3DR / POR / PSF numerics running in application
containers and Cons1 steering the Choice/Merge loop.
"""

import numpy as np

from repro.errors import ServiceError
from repro.experiments.harness import Table
from repro.virolab import (
    planning_problem,
    process_description,
    setup_virolab_case,
    virolab_grid,
)

from benchmarks.conftest import run_once


def _enact():
    env, core, fleet = virolab_grid(containers=3)
    env.spans.enabled = True  # the loop span counts the Cons1 iterations
    case = setup_virolab_case(core.storage, size=24, count=40, seed=0)
    outcome = {}

    def main():
        try:
            reply = yield from core.coordination.call(
                "coordination",
                "execute-task",
                {
                    "process": process_description(),
                    "initial_data": case["initial_data"],
                    "payload_keys": case["payload_keys"],
                    "work": case["work"],
                    "problem": planning_problem(),
                    "task": "3DSD",
                },
            )
            outcome.update(reply)
        except ServiceError as exc:  # pragma: no cover - surfaced by asserts
            outcome["error"] = str(exc)

    env.engine.spawn(main(), "user")
    env.run(max_events=5_000_000)
    return env, core, case, outcome


def test_e2e_enactment(benchmark, show):
    env, core, case, outcome = run_once(benchmark, _enact)
    assert "error" not in outcome, outcome.get("error")

    (loop,) = env.spans.spans(kind="loop")
    loop_iterations = loop.attrs["iterations"]
    model = core.storage.get(outcome["payload_keys"]["D9"])
    truth_corr = float(
        np.corrcoef(model.ravel(), case["phantom"].ravel())[0, 1]
    )

    table = Table(
        "E2E. Figure-10 enactment with real reconstruction numerics",
        ("Metric", "Value"),
    )
    table.add("status", outcome["status"])
    table.add("activities run", outcome["activities_run"])
    table.add("loop iterations (Cons1)", loop_iterations)
    table.add("final resolution (A)", outcome["data"]["D12"]["Value"])
    table.add("model-truth correlation", truth_corr)
    table.add("simulated makespan (s)", env.engine.now)
    table.add("messages exchanged", env.trace.total_recorded)
    show(table)

    assert outcome["status"] == "completed"
    assert outcome["data"]["D12"]["Value"] <= 8.0  # the case's goal
    assert loop_iterations >= 1
    assert truth_corr > 0.5
    # activity count = 2 + 5 * iterations (POD + P3DR1 + per-loop POR,
    # 3xP3DR, PSF)
    assert outcome["activities_run"] == 2 + 5 * loop_iterations
