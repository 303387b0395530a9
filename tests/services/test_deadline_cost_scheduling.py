"""Deadline- and cost-aware scheduling (Section-1 soft deadlines / costs)."""

import pytest

from repro.errors import ServiceError
from tests.services.conftest import drive


def schedule(grid, **extra):
    env, services, fleet = grid
    user = services.coordination
    content = {
        "service": "POD",
        "candidates": ["ac1", "ac2", "ac3"],
        "work": 100.0,
    }
    content.update(extra)
    return drive(
        env, user, lambda: user.call("scheduling", "schedule", content)
    )


def test_default_objective_is_time(grid):
    # speeds 1/2/4 -> estimates 100/50/25; fastest wins.
    result = schedule(grid)
    assert result["container"] == "ac3"
    assert result["estimate"] == pytest.approx(25.0)


def test_cost_objective_prefers_cheap(grid):
    # cost rates 1/2.5/6 -> costs 100/125/150; slowest-but-cheapest wins.
    result = schedule(grid, objective="cost")
    assert result["container"] == "ac1"
    assert result["cost"] == pytest.approx(100.0)


def test_deadline_filters_slow_candidates(grid):
    result = schedule(grid, deadline=60.0, objective="cost")
    # ac1 (estimate 100) is infeasible; ac2 (50s, cost 125) beats ac3
    # (25s, cost 150) on cost.
    assert result["container"] == "ac2"


def test_impossible_deadline_rejected(grid):
    with pytest.raises(ServiceError) as err:
        schedule(grid, deadline=10.0)
    assert "deadline" in str(err.value)


def test_deadline_feasible_fast_path(grid):
    result = schedule(grid, deadline=30.0)
    assert result["container"] == "ac3"


def test_unknown_objective_rejected(grid):
    with pytest.raises(ServiceError):
        schedule(grid, objective="karma")


def test_cost_reported_alongside_time(grid):
    result = schedule(grid)
    assert result["cost"] == pytest.approx(25.0 * 6.0)
    assert set(result) == {"service", "container", "estimate", "cost", "alternatives"}
