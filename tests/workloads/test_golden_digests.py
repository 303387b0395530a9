"""Golden digests of the canonical message traces.

Each digest covers every delivered message of a run (time, endpoints,
performative, action, conversation / message / trace / parent ids and the
repr of the content) plus the outcomes: the 8-case, 4-container
many_cases run, and the paper's Figure-2 planning exchange, Figure-3
replanning flow and Figure-10 enactment.  The two-process split of the
many_cases run has no trace in this process; its digest covers the
merged result instead.  A change that alters the
protocol — one extra RPC, a reordered reply, a different candidate
ranking — moves the digest; preserved behaviour keeps it.  When a change
alters the trace on purpose, update the digest and say why in the change
description.

The figure runs use synthetic services (fixed work, no numerics): the
real case-study services put FFT-derived floats into message content,
whose last digits depend on the numpy build.
"""

from hashlib import blake2b

import pytest

from repro.experiments.figures import _synthetic_services
from repro.planner.config import GPConfig
from repro.services.bootstrap import standard_environment
from repro.virolab import (
    DATA_CLASSIFICATIONS,
    INITIAL_DATA,
    planning_problem,
    process_description,
)
from repro.workloads import run_many_cases

#: The default configuration; the record-only journal must match it.
DEFAULT_DIGEST = "260ff135674450a957ef6d5f32fb141e"


def trace_digest(result) -> str:
    rows = [
        (
            event.time,
            message.sender,
            message.receiver,
            message.performative.value,
            message.action,
            message.conversation,
            message.message_id,
            message.trace_id,
            message.parent_id,
            repr(message.content),
        )
        for event in result["env"].router.trace.events()
        for message in (event.message,)
    ]
    text = repr(rows) + repr(result["outcomes"])
    return blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize(
    ("knobs", "messages", "digest"),
    [
        ({}, 976, DEFAULT_DIGEST),
        # The flight recorder only records: the trace is unchanged.
        ({"journal": "record"}, 976, DEFAULT_DIGEST),
        # The read-through cache of coordinator and scheduler at a
        # run-long TTL: 394 messages instead of 976.
        ({"cache_ttl": 120.0}, 394, "148ca05874949cbc0fd8fcfa37148701"),
    ],
    ids=["default", "journal_record", "cache_ttl120"],
)
def test_trace_digest(knobs, messages, digest):
    result = run_many_cases(cases=8, containers=4, **knobs)
    assert result["messages"] == messages
    assert trace_digest(result) == digest


def test_process_split_digest():
    # No trace crosses the process boundary: the merged result is the
    # digest (outcomes in global case order, summed counts, slowest
    # shard's makespan, per-shard case counts and merged journal stats).
    result = run_many_cases(
        cases=8, containers=4, shards=2, spans=True, journal="record"
    )
    assert (result["messages"], result["engine_events"]) == (976, 3534)
    text = repr(result["outcomes"]) + repr(
        (
            result["messages"],
            result["engine_events"],
            result["makespan"],
            result["shards"],
            result["counters"],
            result["journal"],
        )
    )
    digest = blake2b(text.encode(), digest_size=16).hexdigest()
    assert digest == "c259831adbd37388eca65063b0f34762"


def _figure_run(target: str, action: str, content: dict, **grid):
    """One RPC from the coordinator on a synthetic-service grid, run to
    quiescence."""
    env, services, _ = standard_environment(_synthetic_services(), **grid)
    outcome = {}

    def client():
        outcome["reply"] = yield from services.coordination.call(
            target, action, content
        )

    env.engine.spawn(client(), "client")
    env.run(max_events=1_000_000)
    return {"env": env, "outcomes": [outcome["reply"]]}


#: The Figure-2/3 grid of :mod:`repro.experiments.figures`.
_PLANNING_GRID = {
    "containers": 2,
    "planner_config": GPConfig(population_size=20, generations=3),
}


@pytest.mark.parametrize(
    ("action", "content", "messages", "digest"),
    [
        # Figure 2: the plan request and its reply.
        (
            "plan",
            {"problem": planning_problem()},
            2,
            "9e77f4acb68d97d14cf45cf387b9d456",
        ),
        # Figure 3: replanning consults information, brokerage and the
        # containers before it replies.
        (
            "replan",
            {
                "problem": planning_problem(),
                "data": {"D1": {"Classification": "POD-Parameter"}},
                "failed_activities": ["POR"],
            },
            22,
            "d16441cf78735264bbf50592df4b0493",
        ),
    ],
    ids=["fig2", "fig3"],
)
def test_planning_protocol_digest(action, content, messages, digest):
    result = _figure_run("planning", action, content, **_PLANNING_GRID)
    assert len(result["env"].trace) == messages
    assert trace_digest(result) == digest


def test_fig10_enactment_digest():
    result = _figure_run(
        "coordination",
        "execute-task",
        {
            "process": process_description(),
            "initial_data": {
                name: {"Classification": DATA_CLASSIFICATIONS[name]}
                for name in INITIAL_DATA
            },
            "problem": planning_problem(),
            "task": "3DSD",
        },
        containers=4,
    )
    assert result["outcomes"][0]["status"] == "completed"
    assert len(result["env"].trace) == 107
    assert trace_digest(result) == "8b796b7c54ec0ec0986b1dd0be053471"
