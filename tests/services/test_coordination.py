"""Coordination service: the abstract ATN machine."""

import pytest

from repro.errors import ServiceError
from repro.services import standard_environment
from repro.virolab import planning_problem, process_description
from repro.workloads import (
    many_cases_initial_data,
    many_cases_process,
    many_cases_services,
)
from tests.services.conftest import drive

INITIAL = {
    "D1": {"Classification": "POD-Parameter"},
    "D2": {"Classification": "P3DR-Parameter"},
    "D3": {"Classification": "P3DR-Parameter"},
    "D4": {"Classification": "P3DR-Parameter"},
    "D5": {"Classification": "POR-Parameter"},
    "D6": {"Classification": "PSF-Parameter"},
    "D7": {"Classification": "2D Image"},
}


def execute(grid, **overrides):
    env, services, fleet = grid
    env.spans.enabled = True
    user = services.coordination
    request = {
        "process": process_description(),
        "initial_data": dict(INITIAL),
        "task": "3DSD",
    }
    request.update(overrides)
    return drive(
        env, user, lambda: user.call("coordination", "execute-task", request)
    ), env, services


def test_full_enactment_completes(grid):
    result, env, services = execute(grid)
    assert result["status"] == "completed"
    # Cons1 with PSF values 12, 9.5, 7.5 -> 3 loop iterations:
    # POD + P3DR1 + 3*(POR + 3*P3DR + PSF) = 17 activities.
    assert result["activities_run"] == 17
    assert result["data"]["D12"]["Value"] == 7.5
    assert result["replans"] == 0


def test_loop_terminates_by_cons1(grid):
    result, env, services = execute(grid)
    (loop,) = env.spans.spans(kind="loop")
    assert loop.attrs == {"iterations": 3}  # not bounded


def test_fork_branches_run_concurrently(grid):
    result, env, services = execute(grid)
    p3dr_times = [
        span.end
        for span in env.spans.spans(kind="activity")
        if span.name in ("P3DR2", "P3DR3", "P3DR4")
    ]
    # In each loop pass the three stream reconstructions finish together
    # (same work, concurrent execution on 4-slot nodes).
    assert len(p3dr_times) == 9
    first_pass = p3dr_times[:3]
    assert max(first_pass) - min(first_pass) < 1.0


def test_data_flow_reaches_outputs(grid):
    result, env, services = execute(grid)
    for name in ("D8", "D9", "D10", "D11", "D12"):
        assert name in result["data"], name
    assert result["data"]["D8"]["Classification"] == "Orientation File"


def test_scheduler_prefers_fast_container(grid):
    result, env, services = execute(grid)
    containers = {
        span.attrs["container"] for span in env.spans.spans(kind="activity")
    }
    # ac3 (speed 4) should get essentially everything while idle.
    assert "ac3" in containers


def test_performance_reported_to_broker(grid):
    result, env, services = execute(grid)
    perf = services.brokerage.performance_of("PSF", "ac3")
    assert perf is not None and perf.successes >= 1


def test_failure_without_problem_gives_up(grid):
    env, services, fleet = grid
    for ac in fleet:
        ac.crash()
    user = services.coordination
    with pytest.raises(ServiceError):
        drive(
            env,
            user,
            lambda: user.call(
                "coordination",
                "execute-task",
                {
                    "process": process_description(),
                    "initial_data": dict(INITIAL),
                },
            ),
        )


def test_plans_when_no_process_supplied(grid):
    """The Figure-2 path: a task arrives with Need Planning and no process
    description; coordination asks planning first, then enacts."""
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "coordination",
            "execute-task",
            {
                "problem": planning_problem(),
                "initial_data": dict(INITIAL),
                "task": "planned-3DSD",
            },
        ),
        max_events=5_000_000,
    )
    assert result["status"] == "completed"
    assert result["data"]["D12"]["Classification"] == "Resolution File"
    assert services.planning.plans_created == 1


def test_unstructured_process_rejected(grid):
    env, services, fleet = grid
    from repro.process import ActivityKind, ProcessDescription

    # A Fork whose branches converge on two different Joins cannot be
    # recovered into the Section-2 language.
    bad = ProcessDescription("bad")
    bad.add("BEGIN", ActivityKind.BEGIN)
    bad.add("END", ActivityKind.END)
    bad.add("F", ActivityKind.FORK)
    for name in ("A", "B", "C", "D"):
        bad.add(name)
    bad.add("J1", ActivityKind.JOIN)
    bad.add("J2", ActivityKind.JOIN)
    bad.connect("BEGIN", "F")
    bad.connect("F", "A")
    bad.connect("F", "B")
    bad.connect("A", "J1")
    bad.connect("B", "J2")
    bad.connect("C", "J1")
    bad.connect("D", "J2")
    bad.connect("J1", "END")
    user = services.coordination
    with pytest.raises(ServiceError):
        drive(
            env,
            user,
            lambda: user.call(
                "coordination",
                "execute-task",
                {"process": bad, "initial_data": dict(INITIAL)},
            ),
        )


def test_loop_bound_guards_nonterminating_conditions(grid):
    """An always-true iterative condition is cut off at max_loop_iterations."""
    env, services, fleet = grid
    from repro.process import TRUE, WorkflowBuilder

    pd = (
        WorkflowBuilder("spinner")
        .loop(TRUE, lambda b: b.activity("POD"))
        .build()
    )
    services.coordination.max_loop_iterations = 4
    env.spans.enabled = True
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "coordination",
            "execute-task",
            {"process": pd, "initial_data": dict(INITIAL), "task": "spin"},
        ),
    )
    assert result["status"] == "completed"
    assert result["activities_run"] == 4
    (loop,) = env.spans.spans(kind="loop")
    assert loop.attrs == {"iterations": 4, "bounded": True}


def test_choice_default_branch_when_no_condition_holds(grid):
    """No condition true -> the last branch acts as the default arm."""
    env, services, fleet = grid
    from repro.process import WorkflowBuilder, parse_condition

    never = parse_condition('D1.Classification = "nope"')
    pd = (
        WorkflowBuilder("chooser")
        .choice(
            (never, lambda b: b.activity("POR")),
            (never, lambda b: b.activity("POD")),
        )
        .build()
    )
    env.spans.enabled = True
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "coordination",
            "execute-task",
            {"process": pd, "initial_data": dict(INITIAL), "task": "choose"},
        ),
    )
    assert result["status"] == "completed"
    choices = [span.attrs for span in env.spans.spans(kind="choice")]
    assert choices == [{"branch": 1, "condition": "default"}]
    # The default (last) branch ran POD, not POR.
    activities = [span.name for span in env.spans.spans(kind="activity")]
    assert activities == ["POD"]


def test_intake_refuses_semantically_broken_process(grid):
    """Error findings (here E201) refuse the case before any enactment."""
    env, services, fleet = grid
    from repro.process import WorkflowBuilder, parse_condition

    dead = parse_condition("D1.Value > 8 and D1.Value < 3")
    pd = (
        WorkflowBuilder("doomed")
        .choice(
            (dead, lambda b: b.activity("POR")),
            (None, lambda b: b.activity("POD")),
        )
        .build()
    )
    user = services.coordination
    with pytest.raises(ServiceError) as err:
        drive(
            env,
            user,
            lambda: user.call(
                "coordination",
                "execute-task",
                {"process": pd, "initial_data": dict(INITIAL), "task": "bad"},
            ),
        )
    message = str(err.value)
    assert "failed semantic analysis" in message and "E201" in message
    assert services.coordination.records == {}  # refused at intake
    assert services.coordination.metrics.total("cases_refused") == 1


def test_intake_tolerates_overlapping_guards_but_reports_them(grid):
    """E202 is tolerated (first-match resolves it) yet still surfaced in
    the reply."""
    env, services, fleet = grid
    from repro.process import WorkflowBuilder, parse_condition

    never = parse_condition('D1.Classification = "nope"')
    pd = (
        WorkflowBuilder("dup-guards")
        .choice(
            (never, lambda b: b.activity("POR")),
            (never, lambda b: b.activity("POD")),
        )
        .build()
    )
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "coordination",
            "execute-task",
            {"process": pd, "initial_data": dict(INITIAL), "task": "dup"},
        ),
    )
    assert result["status"] == "completed"
    assert [f["code"] for f in result["findings"]] == ["E202"]


def test_intake_clean_case_reply_has_no_findings_key(grid):
    result, env, services = execute(grid)
    assert "findings" not in result


def test_task_status_answers_the_newest_case_of_a_reused_name():
    """Two sequential cases under one task name: the coordinator keeps one
    record per name, and ``task-status`` answers with the second case."""
    env, services, _ = standard_environment(many_cases_services(), containers=2)
    user = services.coordination
    replies = []
    for rounds in (1, 3):
        request = {
            "process": many_cases_process(rounds),
            "initial_data": many_cases_initial_data(0),
            "task": "dup",
        }
        replies.append(
            drive(env, user, lambda: user.call("coordination", "execute-task", request))
        )
    first, second = (reply["activities_run"] for reply in replies)
    assert first != second
    assert list(user.records) == ["dup"]
    status = drive(
        env, user, lambda: user.call("coordination", "task-status", {"task": "dup"})
    )
    assert status["known"] and status["completed"]
    assert status["activities_run"] == second
    assert status["data"] == replies[1]["data"]
