#!/usr/bin/env python
"""Re-planning under failure: the Figure-3 protocol in action.

Builds a grid whose application containers fail often, submits the case
study, and shows the coordination service detecting a dead activity,
triggering the planning service's re-planning flow (information ->
brokerage -> container probes), and finishing the case on a repaired plan.

Run: ``python examples/replanning_demo.py``
"""

from repro.errors import ServiceError
from repro.grid import EndUserService
from repro.planner import GPConfig
from repro.services import standard_environment
from repro.virolab import activity_specs, planning_problem, process_description


def synthetic_services():
    """Case-study services with symbolic effects; PSF's resolution value
    improves each call so the Cons1 loop terminates."""
    values = iter([12.0, 9.5, 7.5] + [7.0] * 50)

    def psf_compute(props, payloads):
        return (
            {"D12": {"Classification": "Resolution File", "Value": next(values)}},
            {},
        )

    out = {}
    for name, spec in activity_specs().items():
        if spec.service == "PSF":
            continue
        out.setdefault(
            spec.service or name,
            EndUserService(spec.service or name, work=10.0, effects=spec.effects),
        )
    out["PSF"] = EndUserService("PSF", work=10.0, compute=psf_compute)
    return list(out.values())


#: Journal event kinds the demo prints, with the attributes it shows.  A
#: dispatch with attempt > 0 is a retry.
JOURNAL_DETAIL = {
    "compile": ("process",),
    "dispatch": ("activity", "container", "attempt"),
    "activity-fail": ("activity", "reason"),
    "replan": ("round", "excluded"),
    "case-complete": ("activities_run", "replans"),
}


def main() -> None:
    for seed in range(10):
        env, core, fleet = standard_environment(
            synthetic_services(),
            containers=3,
            failure_probability=0.45,
            failure_seed=seed,
            planner_config=GPConfig(population_size=40, generations=6),
            planner_seed=seed,
            journal=True,
        )
        outcome = {}

        def submit():
            try:
                reply = yield from core.coordination.call(
                    "coordination",
                    "execute-task",
                    {
                        "process": process_description(),
                        "initial_data": {
                            d: {"Classification": c}
                            for d, c in {
                                "D1": "POD-Parameter", "D2": "P3DR-Parameter",
                                "D3": "P3DR-Parameter", "D4": "P3DR-Parameter",
                                "D5": "POR-Parameter", "D6": "PSF-Parameter",
                                "D7": "2D Image",
                            }.items()
                        },
                        "problem": planning_problem(),
                        "task": f"failure-case-{seed}",
                    },
                )
                outcome.update(reply)
            except ServiceError as exc:
                outcome["error"] = str(exc)

        env.engine.spawn(submit(), "user")
        env.run(max_events=5_000_000)

        if outcome.get("replans", 0) > 0 and "error" not in outcome:
            print(f"seed {seed}: completed after "
                  f"{outcome['replans']} re-planning round(s)\n")
            print("case journal (retries, failures and repairs):")
            for event in env.journal.events(f"failure-case-{seed}"):
                keys = JOURNAL_DETAIL.get(event.kind)
                if keys is None or event.attrs.get("attempt") == 0:
                    continue
                detail = " ".join(f"{key}={event.attrs[key]}" for key in keys)
                print(f"  t={event.time:8.2f}s  {event.kind:14s} {detail}")
            replan_messages = [
                (t[0], t[1], t[3])
                for t in env.trace.actions()
                if ("planning" in (t[0], t[1]))
                and t[3] in ("replan", "lookup", "find-containers", "can-execute")
            ]
            print(f"\nFigure-3 protocol messages ({len(replan_messages)}):")
            for src, dst, action in replan_messages[:12]:
                print(f"  {src:14s} -> {dst:14s} {action}")
            if len(replan_messages) > 12:
                print(f"  ... and {len(replan_messages) - 12} more")
            break
        status = "completed without re-planning" if "error" not in outcome else "failed"
        print(f"seed {seed}: {status}; trying another failure pattern...")
    else:
        print("no seed triggered a successful re-planning run")


if __name__ == "__main__":
    main()
