#!/usr/bin/env python
"""The Section-4 case study end to end: 3D virus reconstruction on a grid.

Stages a synthetic cryo-EM dataset in the persistent-storage service,
submits the Figure-10 process description to the coordination service, and
watches the abstract ATN machine drive POD -> P3DR -> (POR || P3DR x3 ->
PSF)* across heterogeneous application containers until Cons1 declares the
resolution goal met.

Run: ``python examples/virus_reconstruction.py``
"""

import numpy as np

from repro.virolab import (
    angular_distance,
    planning_problem,
    process_description,
    psf,
    setup_virolab_case,
    virolab_grid,
)


def main() -> None:
    env, core, fleet = virolab_grid(containers=3)
    env.spans.enabled = True  # the enactment log below reads the spans
    case = setup_virolab_case(core.storage, size=24, count=40, seed=0)
    print("staged case: 40 synthetic micrographs of a hidden phantom, "
          "initial model, program parameter files (D1..D7)")

    pd = process_description()
    print(f"process description {pd.name}: "
          f"{len(pd.end_user_activities())} end-user activities, "
          f"{len(pd.transitions)} transitions\n")

    outcome = {}

    def submit():
        reply = yield from core.coordination.call(
            "coordination",
            "execute-task",
            {
                "process": pd,
                "initial_data": case["initial_data"],
                "payload_keys": case["payload_keys"],
                "work": case["work"],
                "problem": planning_problem(),
                "task": "3DSD",
            },
        )
        outcome.update(reply)

    env.engine.spawn(submit(), "user")
    env.run(max_events=5_000_000)

    print("enactment log (closed spans):")
    for span in env.spans.spans():
        if span.kind == "activity":
            detail = f"{span.name} ({span.attrs['service']}) on {span.attrs['container']}"
        elif span.kind == "choice":
            detail = span.attrs["condition"]
        elif span.kind == "loop":
            detail = f"{span.attrs['iterations']} iterations"
        elif span.kind == "case":
            detail = f"{span.name} {span.status}"
        else:
            continue
        print(f"  t={span.end:8.2f}s  {span.kind:10s} {detail}")

    d12 = outcome["data"]["D12"]
    print(f"\nfinal resolution: {d12['Value']:.2f} A "
          f"(goal: <= {case['goal_resolution']} A, per Cons1)")

    # Score the reconstruction against the hidden ground truth.
    model = core.storage.get(outcome["payload_keys"]["D9"])
    orientations = core.storage.get(outcome["payload_keys"]["D8"])
    truth_res = psf(model, case["phantom"])["resolution"]
    errors = [
        np.degrees(angular_distance(a, b))
        for a, b in zip(orientations, case["dataset"].true_rotations)
    ]
    print(f"model vs hidden truth: {truth_res:.1f} A; "
          f"median orientation error {np.median(errors):.1f} deg")
    print(f"\nsimulated makespan {env.engine.now:.1f}s, "
          f"{env.trace.total_recorded} messages, "
          f"{len(core.storage)} stored objects")


if __name__ == "__main__":
    main()
