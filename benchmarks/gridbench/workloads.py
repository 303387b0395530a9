"""The four grid workloads: seeded inputs, one client, output checks.

Each workload builds its inputs from the seed alone (``plan`` ignores the
seed, see :func:`_plan`), brings up a grid through the public bootstrap
(``standard_environment`` / ``virolab_grid``) in its default
configuration, and drives it with one client agent through the public
RPCs: coordination ``execute-task`` and planning ``plan``.  A failed RPC
or an output that fails its check is counted, not raised, so one bad case
cannot hide the rest of the run.

:func:`prepare` does everything up to the first simulated event and
returns a :class:`Prepared` run; ``env.run()`` then does the measured
work and :meth:`Prepared.finish` checks the outputs.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Any

from repro.errors import ServiceError
from repro.grid.agent import Agent

__all__ = ["SCALES", "Prepared", "prepare"]

#: Operations per repetition: cases on burst/stream/casestudy, plan
#: requests on plan.  A repetition takes a few seconds, so a run holds
#: several and its fastest one is rarely disturbed by other tenants of a
#: shared host.  ``smoke`` is the scale the ledger test runs.
SCALES = {
    "full": {"burst": 500, "stream": 500, "plan": 6, "casestudy": 2},
    "smoke": {"burst": 40, "stream": 40, "plan": 3, "casestudy": 1},
}

#: many_cases fleet: 8 containers x 4 slots.
CONTAINERS = 8
#: stream: mean Poisson arrivals per simulated second, about 60% of the
#: fleet's capacity for this workflow (1.6 cases/s, from burst's makespan).
ARRIVAL_RATE = 1.0

#: Case-study data seeds whose reconstruction reaches 8 A in one Cons1
#: pass (ONE_PASS) or two (TWO_PASS).  A few seeds never get there within
#: the coordinator's 25-iteration loop bound (12 and 35 are two), and
#: would count as failed cases, so cases draw from these pools.
ONE_PASS = (
    0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 13, 14, 16, 17, 19, 21, 22, 25, 26, 28,
    29, 30, 31, 32, 33, 36, 37, 38, 39, 40, 42, 43, 44, 47, 48, 49, 50, 52,
    53, 54, 55, 56, 58, 60, 62, 63,
)
TWO_PASS = (5, 24, 27, 41, 45, 46, 51, 59, 61)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with n values, ``n * (1 - q)`` lie above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Prepared:
    """A grid ready to run, its client agent, and the client's records.

    *expected* holds, per operation, what its check compares the reply
    with; *due* the simulated time each operation is due (a sequential
    client sets it as it sends).
    """

    def __init__(self, workload: str, env: Any, expected: list, due: list | None = None):
        count = len(expected)
        self.workload = workload
        self.env = env
        self.expected = expected
        self.operations = count
        self.due = due if due is not None else [0.0] * count
        self.done: list[float | None] = [None] * count
        self.wall = [0.0] * count
        self.replies: list[dict | None] = [None] * count
        self.errors: list[str] = []
        self.client = Agent(env, "user", "core")

    def operate(self, index: int, to: str, action: str, content: dict):
        """Operation *index* (generator): one RPC; records the reply, its
        simulated completion time and wall latency, or the error."""
        started = time.perf_counter()
        try:
            reply = yield from self.client.call(to, action, content)
        except ServiceError as exc:
            self.errors.append(f"{action} #{index}: {exc}")
            return
        self.wall[index] = time.perf_counter() - started
        self.done[index] = self.env.engine.now
        self.replies[index] = reply

    def finish(self) -> dict[str, Any]:
        """Check every reply; return the counts, the deterministic outputs
        (identical for one seed, traced or not) and the result metrics."""
        check = _CHECKS[self.workload]
        failed = 0
        for index in range(self.operations):
            reply = self.replies[index]
            if reply is None or not check(reply, self.expected[index]):
                failed += 1
        metrics = self.env.metrics
        outputs: dict[str, Any] = {
            "events": self.env.engine.events_processed,
            "messages": metrics.total("messages_sent"),
            "turnaround": [
                None if done is None else done - due
                for due, done in zip(self.due, self.done)
            ],
        }
        if self.workload == "plan":
            outputs["fitness"] = [
                None if reply is None else reply.get("fitness") for reply in self.replies
            ]
        if self.workload == "casestudy":
            outputs["resolution"] = [
                None if reply is None else reply.get("data", {}).get("D12", {}).get("Value")
                for reply in self.replies
            ]
        return {
            "attempted": self.operations,
            "failed": failed,
            "errors": self.errors[:5],
            "outputs": outputs,
            "results": self._results(outputs),
            "wall_latencies_s": self._latencies(),
            "counters": {
                name: metrics.total(name)
                for name in (
                    "messages_sent", "rpc_error", "rpc_timeout",
                    "program_cache_hit", "program_cache_miss",
                )
            },
        }

    def _latencies(self) -> list[float]:
        """Wall latency of each answered request; only a sequential
        client's latencies are one request each."""
        if self.workload in ("burst", "stream"):
            return []
        return [wall for wall, reply in zip(self.wall, self.replies) if reply is not None]

    def _results(self, outputs: dict[str, Any]) -> dict[str, float]:
        turnaround = [t for t in outputs["turnaround"] if t is not None]
        if self.workload == "plan":
            fitness = [f for f in outputs["fitness"] if f is not None]
            latencies = self._latencies()
            return {
                "plan_fitness_mean": statistics.fmean(fitness) if fitness else 0.0,
                "plan_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
            }
        if not turnaround:
            return {}
        results = {"turnaround_p50_s": statistics.median(turnaround)}
        if self.workload in ("burst", "stream"):
            results["turnaround_p98_s"] = percentile(turnaround, 0.98)
        return results


# -- output checks ---------------------------------------------------------- #
def _check_case(reply: dict, mode: str) -> bool:
    """many_cases: all 8 activities ran and ``out`` matches the Mode."""
    out = reply.get("data", {}).get("out", {})
    return (
        reply.get("status") == "completed"
        and reply.get("activities_run") == 8
        and out.get("Status") == "ready"
        and bool(out.get("Archived")) == (mode == "full")
    )


def _check_plan(reply: dict, _expected) -> bool:
    fitness = reply.get("fitness")
    return (
        reply.get("plan") is not None
        and reply.get("process") is not None
        and isinstance(fitness, float)
        and 0.0 <= fitness <= 1.0
    )


def _check_casestudy(reply: dict, _expected) -> bool:
    """The paper's result: the reconstruction reaches 8 A or better."""
    resolution = reply.get("data", {}).get("D12", {}).get("Value")
    return reply.get("status") == "completed" and resolution is not None and resolution <= 8.0


_CHECKS = {
    "burst": _check_case,
    "stream": _check_case,
    "plan": _check_plan,
    "casestudy": _check_casestudy,
}


# -- workloads --------------------------------------------------------------- #
def prepare(workload: str, seed: int, scale: str = "full") -> Prepared:
    """Inputs for *workload* from *seed*, and a grid whose client is
    spawned and waiting for ``env.run()``."""
    operations = SCALES[scale][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("burst", "stream"):
        return _many_cases(workload, operations, rng)
    if workload == "plan":
        return _plan(operations)
    return _casestudy(operations, rng)


def _many_cases(workload: str, cases: int, rng: random.Random) -> Prepared:
    """burst: every case due at t=0.  stream: seeded Poisson arrivals.
    Exactly half the cases take the fast route, in seeded order."""
    from repro.services.bootstrap import standard_environment
    from repro.workloads.many_cases import many_cases_process, many_cases_services

    modes = ["fast"] * (cases // 2) + ["full"] * (cases - cases // 2)
    rng.shuffle(modes)
    due = [0.0] * cases
    if workload == "stream":
        clock = 0.0
        for index in range(cases):
            clock += rng.expovariate(ARRIVAL_RATE)
            due[index] = clock
    env, _, _ = standard_environment(many_cases_services(), containers=CONTAINERS)
    prepared = Prepared(workload, env, modes, due)
    process = many_cases_process()

    def generator():
        for index, mode in enumerate(modes):
            wait = due[index] - env.engine.now
            if wait > 0:
                yield wait
            env.engine.spawn(
                prepared.operate(
                    index, "coordination", "execute-task",
                    {
                        "process": process,
                        "initial_data": {"src": {"Status": "ready", "Mode": mode}},
                        "task": f"case-{index}",
                    },
                ),
                name=f"case-{index}",
            )

    env.engine.spawn(generator(), name="generator")
    return prepared


def _plan(requests: int) -> Prepared:
    """Sequential plan RPCs, one per problem shape — the case study's,
    plan_mix's, a diamond, a chain and a random layered DAG — and then the
    case study's again (the repeat warm starts and caches would exploit).

    This workload ignores the benchmark seed: the sequence and the planner
    seed are fixed.  One GP run costs from 0.14x to 2.5x the mean of its
    problem's runs, depending on its random state, so a sequence drawn
    from the seed would vary between seeds by about the bound of
    ``ops_per_s``."""
    from repro.services.bootstrap import standard_environment
    from repro.virolab import planning_problem
    from repro.workloads.plan_mix import plan_mix_problem
    from repro.workloads.synthetic import chain_problem, diamond_problem, random_problem

    case_study = planning_problem()
    order = [
        case_study,
        plan_mix_problem(1),
        diamond_problem(4),
        chain_problem(6),
        random_problem(12, 3, seed=2),
        case_study,
    ][:requests]
    env, _, _ = standard_environment([], containers=0, planner_seed=0)
    prepared = Prepared("plan", env, [problem.name for problem in order])

    def client_loop():
        for index, problem in enumerate(order):
            prepared.due[index] = env.engine.now
            yield from prepared.operate(index, "planning", "plan", {"problem": problem})

    env.engine.spawn(client_loop(), name="client")
    return prepared


def _casestudy(cases: int, rng: random.Random) -> Prepared:
    """Figure-10 enactments with the real numerics, one after another;
    each case's data is staged just before it is submitted.  One case per
    repetition loops Cons1 twice, the others once."""
    from repro.virolab import (
        planning_problem,
        process_description,
        setup_virolab_case,
        virolab_grid,
    )

    if cases == 1:
        seeds = rng.sample(ONE_PASS, 1)
    else:
        seeds = rng.sample(ONE_PASS, cases - 1) + rng.sample(TWO_PASS, 1)
        rng.shuffle(seeds)
    env, core, _ = virolab_grid(containers=3)
    prepared = Prepared("casestudy", env, seeds)

    def client_loop():
        for index, data_seed in enumerate(seeds):
            case = setup_virolab_case(core.storage, seed=data_seed)
            prepared.due[index] = env.engine.now
            yield from prepared.operate(
                index, "coordination", "execute-task",
                {
                    "process": process_description(),
                    "initial_data": case["initial_data"],
                    "payload_keys": case["payload_keys"],
                    "work": case["work"],
                    "problem": planning_problem(),
                    "task": f"3DSD-{index}",
                },
            )

    env.engine.spawn(client_loop(), name="client")
    return prepared
