"""Spans close on the paths where an exception ends the work.

Each scenario fails a case (or an RPC) with an error raised somewhere
other than an activity's retry loop, then checks that every span the
failure unwound through closed with status ``error``, that no span is
left open and that the engine's queue drained.  A failed case is also
recorded failed: ``task-status`` answers ``failed`` and the coordinator
counts it once.
"""

from repro.errors import ServiceError
from repro.grid.container import EndUserService
from repro.planner import GPConfig
from repro.process import WorkflowBuilder
from repro.process.model import Activity
from repro.services import standard_environment
from repro.virolab import planning_problem
from repro.workloads import (
    many_cases_initial_data,
    many_cases_process,
    many_cases_services,
)
from tests.services.conftest import synthetic_services


def _call(env, client, to, action, content):
    """Run one RPC from *client* to quiescence; ``env.run()`` must return.
    Returns the client's outcome: the reply or the error text."""
    outcome = {}

    def run():
        try:
            outcome["reply"] = yield from client.call(to, action, content)
        except ServiceError as exc:
            outcome["error"] = str(exc)

    env.engine.spawn(run(), "user")
    env.run(max_events=2_000_000)
    return outcome


def _enact(env, coordinator, request):
    return _call(env, coordinator, "coordination", "execute-task", request)


def _refusing_secure_grid(services, **kwargs):
    """A secure grid whose authentication service refuses the coordinator."""
    env, core, _ = standard_environment(
        services, containers=2, secure=True, spans=True, **kwargs
    )
    core.coordination.credentials = ("coordination", "wrong")
    return env, core


def _statuses(env, kind):
    return [span.status for span in env.spans.spans(kind=kind)]


def _assert_recorded_failed(env, coordinator, task):
    status = _call(env, coordinator, "coordination", "task-status", {"task": task})
    assert status["reply"] == {
        "known": True, "completed": False, "failed": True,
        "activities_run": 0, "replans": 0,
    }
    assert env.metrics.total("enactments_failed") == 1


def test_refused_ticket_closes_case_enact_and_activity():
    env, core = _refusing_secure_grid(many_cases_services(), journal=True)
    outcome = _enact(
        env,
        core.coordination,
        {
            "process": many_cases_process(),
            "initial_data": many_cases_initial_data(0),
            "task": "case-0",
        },
    )
    assert "error" in outcome
    assert env.spans.open_count == 0
    assert env.engine.pending == 0
    assert _statuses(env, "activity") == ["error"]
    assert _statuses(env, "enact") == ["error"]
    assert _statuses(env, "case") == ["error"]
    events = env.journal.events("case-0")
    assert [event.kind for event in events] == [
        "case-intake", "compile", "activity-fail", "case-fail",
    ]
    assert events[2].attrs["activity"] == "ingest"
    assert events[2].attrs["reason"] == (
        "authentication!authenticate failed: bad credentials for 'coordination'"
    )
    _assert_recorded_failed(env, core.coordination, "case-0")


def test_replan_probe_closes_when_the_broker_times_out():
    env, core, _ = standard_environment(
        synthetic_services(),
        containers=2,
        planner_config=GPConfig(population_size=20, generations=3),
        spans=True,
    )
    core.brokerage.crash()
    outcome = _call(
        env,
        core.coordination,
        "planning",
        "replan",
        {"problem": planning_problem(), "failed_activities": []},
    )
    assert "brokerage!find-containers timed out after 30.0s" in outcome["error"]
    assert _statuses(env, "probe") == ["error"]
    assert env.spans.open_count == 0
    assert env.engine.pending == 0


def test_fork_branch_error_fails_the_case_not_the_run():
    library = {
        "A": Activity("A", service="SVA", inputs=("d0",), outputs=("ra",)),
        "B": Activity("B", service="SVB", inputs=("d0",), outputs=("rb",)),
    }
    process = (
        WorkflowBuilder("fork-first")
        .fork(lambda b: b.activity("A"), lambda b: b.activity("B"))
        .build(library)
    )
    env, core = _refusing_secure_grid(
        [
            EndUserService("SVA", work=3.0, effects={"ra": {"Status": "ready"}}),
            EndUserService("SVB", work=5.0, effects={"rb": {"Status": "ready"}}),
        ]
    )
    outcome = _enact(
        env,
        core.coordination,
        {
            "process": process,
            "initial_data": {"d0": {"Status": "ready"}},
            "task": "forked",
        },
    )
    assert "reply" not in outcome
    assert "error" in outcome
    assert env.spans.open_count == 0
    assert env.engine.pending == 0
    assert _statuses(env, "activity") == ["error", "error"]
    assert _statuses(env, "fork") == ["error"]
    assert _statuses(env, "case") == ["error"]
    _assert_recorded_failed(env, core.coordination, "forked")
