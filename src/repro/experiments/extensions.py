"""Ablations for the Section-1 extension subsystems.

* :func:`transfer_tradeoff` (A6) — when does compressing a migrating data
  set pay off?  Sweeps link bandwidth for a fixed payload and compares
  end-to-end migration time plain vs compressed (cpu + wire + cpu).
* :func:`checkpoint_value` (A7) — what does checkpointing buy a
  long-lasting activity under failures?  Sweeps the per-invocation failure
  rate and measures total time-to-completion (with retries) with
  checkpointing on vs off.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ServiceError
from repro.experiments.harness import Table
from repro.grid import (
    Agent,
    ApplicationContainer,
    EndUserService,
    GridEnvironment,
    TransferSpec,
    execute_plan,
    plan_transfer,
)
from repro.sim import BernoulliFailures

__all__ = ["transfer_tradeoff", "checkpoint_value", "scalability_sweep"]


def transfer_tradeoff(
    payload_mb: float = 200.0,
    bandwidths_mbps: Sequence[float] = (1.0, 10.0, 100.0, 1000.0, 10000.0),
    node_speed: float = 1.0,
) -> Table:
    """A6: total migration time, plain vs compressed, across link speeds."""
    table = Table(
        "Ablation A6. Migration: compress or not?",
        ("bandwidth (Mb/s)", "plain (s)", "compressed (s)", "winner"),
    )
    size = payload_mb * 1e6
    for mbps in bandwidths_mbps:
        bytes_per_s = mbps * 1e6 / 8.0

        def total(compress: bool) -> float:
            plan = plan_transfer(TransferSpec(size), compress_over_wan=compress)
            wire, src, dst = execute_plan(
                plan, source_speed=node_speed, dest_speed=node_speed
            )
            return src + wire / bytes_per_s + dst

        plain = total(False)
        packed = total(True)
        table.add(
            mbps, plain, packed, "compressed" if packed < plain else "plain"
        )
    return table


class _CkptStorage(Agent):
    """Minimal storage for the checkpoint experiment."""

    def __init__(self, env: GridEnvironment) -> None:
        super().__init__(env, env.storage_name, "core")
        self.objects: dict = {}

    def handle_store(self, message):
        self.objects[message.content["key"]] = message.content["payload"]
        return {"key": message.content["key"]}

    def handle_retrieve(self, message):
        key = message.content["key"]
        if key not in self.objects:
            raise ServiceError("missing")
        return {"payload": self.objects[key], "meta": {}}

    def handle_delete(self, message):
        return {"deleted": self.objects.pop(message.content["key"], None) is not None}


def _time_to_complete(
    failure_rate: float,
    checkpointable: bool,
    work: float,
    chunks: int,
    seed: int,
    max_attempts: int = 400,
) -> float | None:
    env = GridEnvironment()
    _CkptStorage(env)
    node = env.add_node("n1", "siteA", slots=1)
    container = ApplicationContainer(
        env,
        "ac1",
        node,
        services={
            "LONG": EndUserService(
                "LONG",
                work=work,
                effects={"OUT": {"Status": "done"}},
                checkpointable=checkpointable,
                checkpoint_chunks=chunks,
            )
        },
        failures=BernoulliFailures(failure_rate, rng=seed),
    )
    user = Agent(env, "user", "u")
    outcome: dict = {}

    def driver():
        for _ in range(max_attempts):
            try:
                yield from user.call(
                    "ac1",
                    "execute-activity",
                    {
                        "service": "LONG",
                        "inputs": {},
                        "checkpoint_key": "ckpt/case/LONG",
                    },
                )
                outcome["done"] = True
                return
            except ServiceError:
                continue

    env.engine.spawn(driver(), "driver")
    env.run(max_events=5_000_000)
    return env.engine.now if outcome.get("done") else None


def scalability_sweep(
    fleet_sizes: Sequence[int] = (1, 2, 3, 6),
    speed: float = 2.0,
) -> Table:
    """A8: case-study makespan vs application-container fleet size.

    "Simulation services are necessary to study the scalability of the
    system" (Section 2) — here the study itself: enacting the Figure-10
    workflow on growing homogeneous fleets.  The concurrent section is
    three-wide (P3DR2/3/4), so makespan improves up to ~3 containers and
    plateaus beyond (the workflow's critical path).
    """
    from repro.planner.config import GPConfig
    from repro.services.bootstrap import standard_environment
    from repro.virolab.workflow import activity_specs, process_description

    def synthetic() -> list[EndUserService]:
        values = iter([12.0, 9.5, 7.5] + [7.0] * 50)

        def psf_compute(props, payloads):
            return (
                {"D12": {"Classification": "Resolution File",
                         "Value": next(values)}},
                {},
            )

        out: dict[str, EndUserService] = {}
        for name, spec in activity_specs().items():
            if spec.service == "PSF":
                continue
            out.setdefault(
                spec.service or name,
                EndUserService(spec.service or name, work=40.0,
                               effects=spec.effects),
            )
        out["PSF"] = EndUserService("PSF", work=10.0, compute=psf_compute)
        return list(out.values())

    table = Table(
        "Ablation A8. Makespan vs fleet size (Figure-10 workflow)",
        ("containers", "makespan (s)", "messages"),
    )
    initial = {
        d: {"Classification": c}
        for d, c in {
            "D1": "POD-Parameter", "D2": "P3DR-Parameter",
            "D3": "P3DR-Parameter", "D4": "P3DR-Parameter",
            "D5": "POR-Parameter", "D6": "PSF-Parameter", "D7": "2D Image",
        }.items()
    }
    for count in fleet_sizes:
        env, services, fleet = standard_environment(
            synthetic(),
            containers=count,
            speeds=(speed,),
            slots=1,
            planner_config=GPConfig(population_size=20, generations=3),
        )
        outcome: dict = {}

        def run():
            reply = yield from services.coordination.call(
                "coordination",
                "execute-task",
                {
                    "process": process_description(),
                    "initial_data": dict(initial),
                    "task": f"scale-{count}",
                },
            )
            outcome.update(reply)

        env.engine.spawn(run(), "user")
        env.run(max_events=3_000_000)
        assert outcome.get("status") == "completed"
        table.add(
            count, env.engine.now, env.metrics.total("messages_delivered")
        )
    return table


def checkpoint_value(
    failure_rates: Sequence[float] = (0.0, 0.3, 0.6, 0.8),
    work: float = 100.0,
    chunks: int = 10,
    seeds: Sequence[int] = range(3),
) -> Table:
    """A7: time-to-completion of one long activity, checkpoints on vs off."""
    table = Table(
        "Ablation A7. Checkpointing a long-lasting activity under failures",
        ("failure rate", "no checkpoints (s)", "checkpointed (s)", "speedup"),
    )
    for rate in failure_rates:
        times = {True: [], False: []}
        for mode in (False, True):
            for seed in seeds:
                t = _time_to_complete(rate, mode, work, chunks, seed=seed * 7 + 1)
                if t is not None:
                    times[mode].append(t)
        plain = float(np.mean(times[False])) if times[False] else float("inf")
        ckpt = float(np.mean(times[True])) if times[True] else float("inf")
        table.add(rate, plain, ckpt, plain / ckpt if ckpt else float("inf"))
    return table
