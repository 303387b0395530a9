"""Plan-then-enact integration on synthetic problems (the Figure-2 path)."""

import pytest

from repro.grid import EndUserService
from repro.grid.messages import Performative
from repro.planner import GPConfig
from repro.services import standard_environment
from repro.workloads import chain_problem, diamond_problem
from tests.services.conftest import drive


def services_for(problem):
    return [
        EndUserService(spec.service or name, work=5.0, effects=spec.effects)
        for name, spec in problem.activities.items()
    ]


@pytest.mark.parametrize("problem_factory", [
    lambda: chain_problem(4),
    lambda: diamond_problem(3),
])
def test_planned_enactment_reaches_goal(problem_factory):
    problem = problem_factory()
    env, services, fleet = standard_environment(
        services_for(problem),
        containers=2,
        planner_config=GPConfig(population_size=60, generations=8),
        planner_seed=1,
    )
    initial = {
        name: dict(problem.initial_state.properties(name))
        for name in problem.initial_state.data_names()
    }
    result = drive(
        env,
        services.coordination,
        lambda: services.coordination.call(
            "coordination",
            "execute-task",
            {"problem": problem, "initial_data": initial, "task": problem.name},
        ),
        max_events=5_000_000,
    )
    assert result["status"] == "completed"
    # The final case data satisfies every goal specification.
    from repro.planner import WorldState

    final = WorldState(result["data"])
    assert problem.goal_score(final) == 1.0


def test_planned_enactment_repairs_invalid_occurrences():
    """The planning service's repair pass means the enacted plan contains
    no activity that fails its input condition (no wasted dispatches)."""
    problem = chain_problem(3)
    env, services, fleet = standard_environment(
        services_for(problem),
        containers=2,
        planner_config=GPConfig(population_size=40, generations=6),
        planner_seed=0,
    )
    initial = {"d0": {"Status": "ready"}}
    result = drive(
        env,
        services.coordination,
        lambda: services.coordination.call(
            "coordination",
            "execute-task",
            {"problem": problem, "initial_data": initial, "task": "chain"},
        ),
        max_events=5_000_000,
    )
    assert result["status"] == "completed"
    # A failed attempt's error rides in the container's FAILURE reply.
    input_condition_failures = [
        event.message.content["error"]
        for event in env.trace.events()
        if event.message.performative is Performative.FAILURE
        and "input condition" in event.message.content["error"]
    ]
    assert input_condition_failures == []
