"""A lost performance report never parks its case.

The coordinator reports each activity's outcome to the broker as a
one-way INFORM that nothing waits on.  Dropping any one of those reports
from the golden Figure-10 enactment (synthetic services, as in
``tests/workloads/test_golden_digests.py``) must leave the case
``completed`` and every piece of accounting at zero: no open span, no
pending engine event, no parked reply waiter.
"""

import pytest

from repro.experiments.figures import _synthetic_services
from repro.grid.messages import Performative
from repro.services.bootstrap import standard_environment
from repro.virolab import (
    DATA_CLASSIFICATIONS,
    INITIAL_DATA,
    planning_problem,
    process_description,
)

#: Seven end-user activities run in the Figure-10 enactment, one report each.
REPORTS = 7


def enact_figure10(drop_id=None):
    """The Figure-10 ``execute-task`` run to quiescence, losing the message
    whose id is *drop_id* (none when None)."""
    env, services, _ = standard_environment(
        _synthetic_services(), containers=4, spans=True
    )
    if drop_id is not None:
        env.router.drop_oracle = lambda message: message.message_id == drop_id
    outcome = {}

    def client():
        outcome["reply"] = yield from services.coordination.call(
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
        )

    env.engine.spawn(client(), "client")
    env.run(max_events=1_000_000)
    return env, outcome.get("reply")


@pytest.fixture(scope="module")
def report_ids():
    env, reply = enact_figure10()
    assert reply["status"] == "completed"
    reports = [
        event.message
        for event in env.trace.events()
        if event.message.action == "record-performance"
    ]
    assert all(
        message.performative is Performative.INFORM
        and message.receiver == "brokerage"
        for message in reports
    )
    return [message.message_id for message in reports]


def test_one_report_per_activity_and_no_reply(report_ids):
    assert len(report_ids) == REPORTS


@pytest.mark.parametrize("index", range(REPORTS))
def test_lost_report_still_completes_the_case(report_ids, index):
    env, reply = enact_figure10(drop_id=report_ids[index])
    assert reply is not None and reply["status"] == "completed"
    assert len(env.dropped) == 1
    assert env.dropped[0].action == "record-performance"
    assert env.spans.open_count == 0
    assert env.engine.pending == 0
    assert all(not agent._reply_waiters for agent in env.agents())
