"""Golden digests of the canonical many_cases message trace.

Each digest covers every delivered message of an 8-case, 4-container run
(time, endpoints, performative, action, conversation / message / trace /
parent ids and the repr of the content) plus the per-case outcomes.  A
change that alters the protocol — one extra RPC, a reordered reply, a
different candidate ranking — moves the digest; preserved behaviour keeps
it.  When a change alters the trace on purpose, update the digest and say
why in the change description.
"""

from hashlib import blake2b

import pytest

from repro.workloads import run_many_cases

#: The default configuration; the single-shard sharded grid must match it.
DEFAULT_DIGEST = "b57492bed8d17b135bffa5459c1d41d9"


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
        ({}, 1040, DEFAULT_DIGEST),
        ({"shards": 1}, 1040, DEFAULT_DIGEST),
        # The read-through cache of coordinator and scheduler at a
        # run-long TTL: 458 messages instead of 1040.
        ({"cache_ttl": 120.0}, 458, "c06d802eacc89f63ada694b18e029602"),
    ],
    ids=["default", "shards1", "cache_ttl120"],
)
def test_trace_digest(knobs, messages, digest):
    result = run_many_cases(cases=8, containers=4, **knobs)
    assert result["messages"] == messages
    assert trace_digest(result) == digest
