"""The ``many_cases`` enactment workload: K concurrent cases, one workflow.

A production coordination service is "a proxy for the end-user" — it does
not enact one case at a time but many concurrently, usually instances of
the *same* process description (the paper's case study is one workflow
that every virology user runs against their own data).  This workload
reproduces that shape on the simulated grid:

* one shared process description — ingest, a three-way fork, an iterative
  refinement loop steered by a live case-data condition, and a final
  Choice between a fast and a full publishing route;
* K cases, each with its own initial data (half take the fast route, half
  the full route), all enacted concurrently by one coordination service;
* a container fleet that hosts every end-user service, so matchmaking and
  scheduling run the full candidate-ranking path on every dispatch.

It is the benchmark workload for the enactment throughput layer (see
``benchmarks/record_bench.py --suite enact``): the same workflow enacted
K times is exactly the case the coordinator's compiled-program cache, the
core services' read-through cache and the router fast path are built for.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro._util import process_map
from repro.errors import WorkloadError
from repro.grid.container import EndUserService
from repro.grid.sharding import ShardRing
from repro.process.builder import WorkflowBuilder
from repro.process.conditions import Atom, Relation
from repro.process.model import Activity, ProcessDescription
from repro.services.bootstrap import standard_environment

__all__ = [
    "many_cases_process",
    "many_cases_services",
    "many_cases_initial_data",
    "run_many_cases",
]


def _refine(props: dict[str, dict], payloads: dict[str, Any]):
    """One refinement pass: bump the model's Round counter (real data flow
    through the containers — the loop condition reads what this returns)."""
    current = int(props.get("model", {}).get("Round", 0))
    return {"model": {"Status": "ready", "Round": current + 1}}, {}


def many_cases_process(rounds: int = 3) -> ProcessDescription:
    """The shared workflow: ingest -> fork(3 parts) -> refine loop -> choice."""
    library = {
        "ingest": Activity("ingest", inputs=("src",), outputs=("base",)),
        "partA": Activity("partA", inputs=("base",), outputs=("pA",)),
        "partB": Activity("partB", inputs=("base",), outputs=("pB",)),
        "partC": Activity("partC", inputs=("base",), outputs=("pC",)),
        "refine": Activity(
            "refine", inputs=("pA", "pB", "pC", "model"), outputs=("model",)
        ),
        "publish_fast": Activity(
            "publish_fast", inputs=("model",), outputs=("out",)
        ),
        "publish_full": Activity(
            "publish_full", inputs=("model", "base"), outputs=("out",)
        ),
    }
    return (
        WorkflowBuilder(f"many-cases-{rounds}r")
        .activity("ingest")
        .fork(
            lambda b: b.activity("partA"),
            lambda b: b.activity("partB"),
            lambda b: b.activity("partC"),
        )
        .loop(Atom("model", "Round", Relation.LT, rounds), lambda b: b.activity("refine"))
        .choice(
            (
                Atom("src", "Mode", Relation.EQ, "fast"),
                lambda b: b.activity("publish_fast"),
            ),
            (None, lambda b: b.activity("publish_full")),
        )
        .build(library)
    )


def many_cases_services() -> list[EndUserService]:
    """End-user service definitions behind the workflow's activities."""
    ready = {"Status": "ready"}
    return [
        EndUserService("ingest", work=4.0, effects={"base": dict(ready)}),
        EndUserService("partA", work=6.0, effects={"pA": dict(ready)}),
        EndUserService("partB", work=6.0, effects={"pB": dict(ready)}),
        EndUserService("partC", work=6.0, effects={"pC": dict(ready)}),
        EndUserService("refine", work=5.0, compute=_refine),
        EndUserService("publish_fast", work=2.0, effects={"out": dict(ready)}),
        EndUserService(
            "publish_full", work=8.0, effects={"out": {"Status": "ready", "Archived": True}}
        ),
    ]


def many_cases_initial_data(index: int) -> dict[str, dict]:
    """Case *index*'s initial data; alternates the publishing route."""
    return {"src": {"Status": "ready", "Mode": "fast" if index % 2 == 0 else "full"}}


def run_many_cases(
    cases: int = 32,
    containers: int = 4,
    rounds: int = 3,
    tracing: bool = True,
    cache_ttl: float = 0.0,
    max_events: int = 20_000_000,
    spans: bool = False,
    journal: bool | str = False,
    gauge_period: float = 0.0,
    shards: int = 0,
    case_indices: Sequence[int] | None = None,
) -> dict[str, Any]:
    """Enact *cases* concurrent instances of the shared workflow.

    The throughput knobs map onto the enactment fast paths:
    ``tracing=False`` selects the router fast path (no TraceEvents),
    ``cache_ttl`` turns on the read-through cache of the coordinator
    (ranked matches) and the scheduler (candidate facts) — see
    :meth:`~repro.services.base.CoreService.cached`; both subscribe to
    the broker's registry-changed push for invalidation.
    The two observability knobs: ``spans=True`` records workflow spans
    (``repro trace export`` / ``repro profile`` run on this), and
    ``gauge_period > 0`` samples sim-time gauges at that period.

    ``shards=N`` (N > 1) splits the population across N processes:
    cases are assigned to shards by consistent hash of their case id
    (``case-<index>`` on the :class:`~repro.grid.sharding.ShardRing` over
    labels ``s0..s{N-1}`` — a fixed, population-independent mapping), and
    each shard enacts its slice on its own
    :func:`~repro.services.bootstrap.standard_environment` in its own
    process.  Shard results merge deterministically (outcomes in global
    case order, counts and span/journal accounting summed, makespan = the
    slowest shard); ``env``/``services``/``fleet`` are ``None`` in the
    merged result since live environments do not cross process
    boundaries.  When the worker pool cannot start or breaks, the same
    shards run serially in-process and ``pool_error`` says why;
    a shard's own error is raised once, and nothing reruns.
    ``shards`` 0 and 1 both run in-process on the standard grid.
    ``case_indices`` (used by shard workers) names the exact global case
    indices to enact, so every case keeps its population-level initial
    data and task name.

    Returns ``env``, ``services``, ``outcomes`` (per-case replies) and
    summary counts.  Raises :class:`WorkloadError` when any case fails —
    the workload is deterministic and must always complete.
    """
    if cases < 1:
        raise WorkloadError("many_cases needs at least one case")
    if case_indices is not None and len(case_indices) != cases:
        raise WorkloadError(
            f"many_cases: {cases} cases but {len(case_indices)} case_indices"
        )
    if shards > 1:
        return _run_many_cases_sharded(
            cases=cases,
            containers=containers,
            rounds=rounds,
            tracing=tracing,
            cache_ttl=cache_ttl,
            max_events=max_events,
            spans=spans,
            journal=journal,
            gauge_period=gauge_period,
            shards=shards,
        )
    env, services, fleet = standard_environment(
        many_cases_services(), containers=containers, tracing=tracing,
        spans=spans, journal=journal,
    )
    if gauge_period > 0.0:
        env.attach_gauges(period=gauge_period)
    if cache_ttl > 0.0:
        services.scheduling.enable_cache(cache_ttl, broker=services.brokerage)
        services.coordination.enable_cache(cache_ttl, broker=services.brokerage)
    process = many_cases_process(rounds)
    outcomes: list[dict[str, Any] | None] = [None] * cases
    indices = range(cases) if case_indices is None else case_indices

    def enact_case(slot: int, index: int):
        reply = yield from services.coordination.call(
            "coordination",
            "execute-task",
            {
                "process": process,
                "initial_data": many_cases_initial_data(index),
                "task": f"case-{index}",
            },
        )
        outcomes[slot] = reply

    for slot, index in enumerate(indices):
        env.engine.spawn(enact_case(slot, index), name=f"user-{index}")
    env.run(max_events=max_events)

    completed = sum(
        1 for o in outcomes if o is not None and o.get("status") == "completed"
    )
    if completed != cases:
        raise WorkloadError(
            f"many_cases: only {completed}/{cases} cases completed"
        )
    registry = env.metrics
    return {
        "env": env,
        "services": services,
        "fleet": fleet,
        "outcomes": outcomes,
        "cases": cases,
        "completed": completed,
        "activities_run": sum(o["activities_run"] for o in outcomes),
        "messages": env.trace.total_recorded,
        "makespan": env.engine.now,
        "engine_events": env.engine.events_processed,
        "spans": {
            "enabled": env.spans.enabled,
            "started": env.spans.total_started,
            "closed": env.spans.total_closed,
            "open": env.spans.open_count,
            "evicted": env.spans.evicted,
        },
        "journal": env.journal.stats(),
        "counters": {
            "program_cache_hit": registry.total("program_cache_hit"),
            "program_cache_miss": registry.total("program_cache_miss"),
            "sched_fact_cache_hit": registry.total("sched_fact_cache_hit"),
            "sched_fact_cache_miss": registry.total("sched_fact_cache_miss"),
            "sched_fact_cache_join": registry.total("sched_fact_cache_join"),
            "coord_match_cache_hit": registry.total("coord_match_cache_hit"),
            "coord_match_cache_miss": registry.total("coord_match_cache_miss"),
            "coord_match_cache_join": registry.total("coord_match_cache_join"),
            "messages_sent": registry.total("messages_sent"),
            "messages_delivered": registry.total("messages_delivered"),
        },
    }


# -- process split ----------------------------------------------------------- #
def _run_shard(kwargs: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: one serial shard, summarized picklably.

    Top-level (not a closure) so it crosses the process boundary; the
    live environment stays behind — only plain data comes back.
    """
    result = run_many_cases(**kwargs)
    return {
        key: result[key]
        for key in (
            "outcomes", "completed", "activities_run", "messages",
            "makespan", "engine_events", "spans", "journal", "counters",
        )
    }


def _sum_stats(stats: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-shard accounting: flags hold if any shard's holds, counts
    add.  The journal's ``max_cases`` is a per-journal bound, not a count,
    and is left out."""
    return {
        key: any(s[key] for s in stats)
        if isinstance(value, bool)
        else sum(s[key] for s in stats)
        for key, value in stats[0].items()
        if key != "max_cases"
    }


def shard_assignment(cases: int, shards: int) -> dict[str, list[int]]:
    """Global case indices per shard label, by consistent hash of the case
    id (``case-<index>``) over the ring of labels ``s0..s{shards-1}``.

    The mapping depends only on the case id and the shard count — never on
    the population size or enactment order — so any observer (the CLI, the
    bench, a test) can recompute where a case ran.
    """
    ring = ShardRing([f"s{index}" for index in range(shards)])
    assignment: dict[str, list[int]] = {label: [] for label in ring.shards}
    for index in range(cases):
        assignment[ring.owner(f"case-{index}")].append(index)
    return assignment


def _run_many_cases_sharded(
    *, cases: int, shards: int, **workload: Any
) -> dict[str, Any]:
    """Enact the population split across processes: one standard grid per
    shard, cases assigned by consistent hash, results merged
    deterministically."""
    populated = [
        (label, indices)
        for label, indices in shard_assignment(cases, shards).items()
        if indices
    ]
    summaries, pool_error = process_map(
        _run_shard,
        [
            dict(workload, cases=len(indices), case_indices=indices)
            for _, indices in populated
        ],
        len(populated),
    )

    # Outcomes go back into global case order regardless of which shard
    # carried them (the hash assignment interleaves indices).
    outcomes: list[dict[str, Any] | None] = [None] * cases
    for (_, indices), summary in zip(populated, summaries):
        for index, outcome in zip(indices, summary["outcomes"]):
            outcomes[index] = outcome
    completed = sum(summary["completed"] for summary in summaries)
    if completed != cases:
        raise WorkloadError(
            f"many_cases: only {completed}/{cases} cases completed"
        )
    return {
        "env": None,
        "services": None,
        "fleet": None,
        "outcomes": outcomes,
        "cases": cases,
        "completed": completed,
        "activities_run": sum(s["activities_run"] for s in summaries),
        "messages": sum(s["messages"] for s in summaries),
        "makespan": max(s["makespan"] for s in summaries),
        "engine_events": sum(s["engine_events"] for s in summaries),
        "sharded": shards,
        "shards": [
            {"shard": label, "cases": len(indices)}
            for label, indices in populated
        ],
        "pool_error": pool_error,
        "spans": _sum_stats([s["spans"] for s in summaries]),
        "journal": _sum_stats([s["journal"] for s in summaries]),
        "counters": _sum_stats([s["counters"] for s in summaries]),
    }
