"""The ``plan_mix`` planning workload: a repeated-goal planning request mix.

A production planning service does not see a stream of novel problems —
it sees the *same* few workflows requested over and over by different
users (the paper's case study is one virology pipeline every user runs),
with occasional goal variations and, rarely, a genuinely new shape.  This
workload reproduces that traffic against the plan library
(:mod:`repro.planner.library`):

* one activity set T (fetch → clean → analyze → publish/backup → archive)
  shared by every request, so all requests share one ``problem_digest``;
* ``distinct`` goal variants cycled over ``requests`` sequential planning
  RPCs — the first occurrence of each variant is a library **miss** (or a
  **seed**, when it overlaps an earlier variant's goals), every repeat is
  a verified **hit**;
* an optional mid-run service kill (``kill_after``): the registered
  Service instance behind the publish activity the stored plan actually
  uses is removed from the knowledge base, so the next hit re-verifies
  stale (E501), is locally **repaired** by swapping exactly the flagged
  terminals to the backup publisher, and the repaired entry is re-stored.

Per-request *wall-clock* planning latency is measured around each RPC
(the driver issues requests strictly sequentially, so each latency is one
planning exchange), which is what ``record_bench.py --suite planlib``
turns into the cold-vs-warm percentile comparison.
"""

from __future__ import annotations

import time
from typing import Any

from repro.errors import WorkloadError
from repro.grid.container import EndUserService
from repro.ontology.builtin import SERVICE, builtin_shell
from repro.ontology.frames import KnowledgeBase
from repro.planner.config import GPConfig
from repro.planner.library import PlanLibrary, goal_signature, problem_digest
from repro.planner.problem import ActivitySpec, PlanningProblem
from repro.process.conditions import Atom, Relation
from repro.services.bootstrap import standard_environment

__all__ = [
    "plan_mix_activities",
    "plan_mix_goals",
    "plan_mix_kb",
    "plan_mix_problem",
    "plan_mix_services",
    "run_plan_mix",
]


def _has(data: str) -> Atom:
    return Atom(data, "Status", Relation.EQ, "ready")


def _ready(*names: str) -> dict[str, dict]:
    return {name: {"Status": "ready"} for name in names}


def plan_mix_activities() -> list[ActivitySpec]:
    """The shared activity set T.

    ``publish`` and ``publish_backup`` are deliberate substitutes — same
    inputs, same effects, different grid service — so a vanished publisher
    always leaves the repair pass a viable terminal swap.  Likewise
    ``analyze_a``/``analyze_b`` for the insight step.
    """
    return [
        ActivitySpec("fetch", precondition=_has("src"), effects=_ready("raw")),
        ActivitySpec("clean", precondition=_has("raw"), effects=_ready("tidy")),
        ActivitySpec(
            "analyze_a", precondition=_has("tidy"), effects=_ready("insight")
        ),
        ActivitySpec(
            "analyze_b", precondition=_has("tidy"), effects=_ready("insight")
        ),
        ActivitySpec(
            "publish", precondition=_has("insight"), effects=_ready("report")
        ),
        ActivitySpec(
            "publish_backup",
            precondition=_has("insight"),
            effects=_ready("report"),
        ),
        ActivitySpec(
            "archive", precondition=_has("report"), effects=_ready("archived")
        ),
    ]


def plan_mix_goals(variant: int) -> tuple[Atom, ...]:
    """Goal variant *variant* (cycled modulo 4).

    Every variant states its intermediate milestones as explicit subgoals
    (Eq. 2 scores the satisfied fraction, so milestones give the GP a
    gradient toward the chain instead of an all-or-nothing jackpot).  The
    variants share subgoals pairwise, so later first-occurrences retrieve
    earlier entries as near-misses and plan as **seeds**; variant 0 is the
    one honest **miss** of a cold library.
    """
    base = variant % 4
    if base == 0:
        return (_has("insight"), _has("report"))
    if base == 1:
        return (_has("insight"), _has("report"), _has("archived"))
    if base == 2:
        return (_has("tidy"), _has("insight"))
    return (_has("raw"), _has("tidy"))


def plan_mix_problem(variant: int) -> PlanningProblem:
    return PlanningProblem.build(
        f"plan-mix-v{variant % 4}",
        _ready("src"),
        plan_mix_goals(variant),
        plan_mix_activities(),
    )


def plan_mix_services() -> list[EndUserService]:
    """End-user service definitions matching T (one per activity)."""
    return [
        EndUserService(spec.name, work=5.0, effects=dict(spec.effects))
        for spec in plan_mix_activities()
    ]


def plan_mix_kb() -> KnowledgeBase:
    """A knowledge base with one Service instance per activity of T."""
    kb = builtin_shell("plan-mix-ontology")
    for spec in plan_mix_activities():
        service = spec.service or spec.name
        kb.new_instance(
            SERVICE,
            {"Name": service, "Type": "End-user"},
            id=f"SVC-{service}",
        )
    return kb


def _kill_used_publisher(
    library: PlanLibrary, kb: KnowledgeBase, variant: int = 0
) -> str | None:
    """Remove the Service instance behind the publisher the stored plan
    for *variant* actually uses, staling that entry for the repair pass."""
    problem = plan_mix_problem(variant)
    entry = library.get(
        problem_digest(problem), goal_signature(problem.goals), touch=False
    )
    if entry is None:
        return None
    used = entry.plan.activities()
    for candidate in ("publish", "publish_backup"):
        if candidate in used:
            kb.remove_instance(f"SVC-{candidate}")
            return candidate
    return None


def run_plan_mix(
    requests: int = 24,
    distinct: int = 4,
    library: str = "on",
    population_size: int = 40,
    generations: int = 8,
    smax: int = 12,
    kill_after: int | None = None,
    max_entries: int = 256,
    containers: int = 2,
    planner_seed: int = 0,
    tracing: bool = True,
    spans: bool = False,
    journal: bool = False,
    enact: bool = False,
    max_events: int = 20_000_000,
) -> dict[str, Any]:
    """Issue *requests* sequential planning RPCs over the repeated-goal mix.

    ``library="on"`` wires a :class:`PlanLibrary` plus the knowledge base
    into the planning service, which then runs the full retrieve → verify
    → repair → seed ladder; ``library="off"`` wires neither and runs the
    identical request schedule against plain per-request GP (the cold
    baseline).  ``kill_after=r`` stales the variant-0 entry after request
    *r* (see :func:`_kill_used_publisher`).

    Returns per-request wall-clock ``latencies`` (seconds), the reply
    ``sources`` (``hit``/``repair``/``seed``/``miss``, or None with the
    library off), the ``planlib_*`` metric counters, library stats, and
    the fitness telemetry of every reply.

    ``enact=True`` sends each request through coordination's
    ``execute-task`` (problem only, no process — the Figure-2 "Need
    Planning" path) as case ``mix-<index>``, so the planned processes
    are actually enacted on the fleet; combined with ``journal=True``
    this is the flight-recorder acceptance workload — every case's
    journal carries its ``plan`` event (with the library ``source``) and
    a full dispatch/execute/transfer record from which
    :class:`~repro.obs.provenance.ProvenanceGraph` builds the case's
    provenance.  ``sources`` then comes from the journal rather than the
    enactment replies.
    """
    if requests < 1:
        raise WorkloadError("plan_mix needs at least one request")
    if distinct < 1:
        raise WorkloadError("plan_mix needs at least one distinct variant")
    if library not in ("off", "on"):
        raise WorkloadError(f"library must be 'off' or 'on', got {library!r}")
    config = GPConfig(
        population_size=population_size, generations=generations, smax=smax
    )
    wired = library == "on"
    plan_library = PlanLibrary(max_entries=max_entries) if wired else None
    kb = plan_mix_kb() if wired else None
    env, services, fleet = standard_environment(
        plan_mix_services(),
        containers=containers,
        planner_config=config,
        planner_seed=planner_seed,
        tracing=tracing,
        spans=spans,
        journal=journal,
        plan_library=plan_library,
        knowledge_base=kb,
    )

    # First `distinct` requests introduce each variant; the rest repeat
    # them round-robin — the repeated-goal shape of production planning
    # traffic.
    schedule = [
        index if index < distinct else index % distinct
        for index in range(requests)
    ]
    latencies: list[float] = [0.0] * requests
    replies: list[dict[str, Any] | None] = [None] * requests
    killed: list[str | None] = [None]

    def drive():
        for index, variant in enumerate(schedule):
            if (
                kill_after is not None
                and index == kill_after
                and plan_library is not None
                and kb is not None
            ):
                killed[0] = _kill_used_publisher(plan_library, kb)
            started = time.perf_counter()
            if enact:
                reply = yield from services.coordination.call(
                    "coordination",
                    "execute-task",
                    {
                        "problem": plan_mix_problem(variant),
                        "initial_data": _ready("src"),
                        "task": f"mix-{index}",
                    },
                )
            else:
                reply = yield from services.coordination.call(
                    services.coordination.planner_name,
                    "plan",
                    {"problem": plan_mix_problem(variant)},
                )
            latencies[index] = time.perf_counter() - started
            replies[index] = reply

    env.engine.spawn(drive(), name="plan-mix-driver")
    env.run(max_events=max_events)

    if any(reply is None for reply in replies):
        raise WorkloadError("plan_mix: not every planning request completed")
    if enact:
        # Enactment replies don't echo the plan source; the journal's
        # per-case "plan" event is the provenance record of it.
        sources = [
            next(
                (
                    event.attrs.get("source")
                    for event in env.journal.events(f"mix-{index}")
                    if event.kind == "plan"
                ),
                None,
            )
            for index in range(requests)
        ]
    else:
        sources = [reply.get("source") for reply in replies]
    registry = env.metrics
    counts = {
        kind: registry.total(f"planlib_{kind}")
        for kind in ("hit", "repair", "seed", "miss", "store", "verify", "reject")
    }
    return {
        "env": env,
        "services": services,
        "fleet": fleet,
        "requests": requests,
        "schedule": schedule,
        "latencies": latencies,
        "sources": sources,
        "replies": replies,
        "fitness": [] if enact else [reply["fitness"] for reply in replies],
        "solved": sum(1 for reply in replies if reply.get("solved")),
        "completed": sum(
            1 for reply in replies if reply.get("status") == "completed"
        ),
        "journal": env.journal.stats(),
        "counts": counts,
        "killed": killed[0],
        "library_entries": len(plan_library) if plan_library is not None else 0,
        "messages": registry.total("messages_delivered"),
        "makespan": env.engine.now,
    }
