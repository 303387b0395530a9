"""Simulation service and the environment bootstrap."""

from repro.plan import concurrent, iterative, sequential
from repro.services import build_core_services, standard_environment
from repro.grid import GridEnvironment
from repro.virolab import plan_tree, planning_problem
from tests.services.conftest import drive, synthetic_services


class TestSimulationService:
    def test_simulate_plan_predicts_fig11(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call(
                "simulation",
                "simulate-plan",
                {"plan": plan_tree(), "problem": planning_problem()},
            ),
        )
        assert result["validity"] == 1.0
        assert result["goal"] == 1.0
        assert not result["truncated"]

    def test_simulate_bad_plan(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call(
                "simulation",
                "simulate-plan",
                {"plan": sequential("PSF", "POD"), "problem": planning_problem()},
            ),
        )
        assert result["validity"] == 0.5
        assert result["goal"] == 0.0

    def test_estimate_makespan_concurrency_helps(self, grid):
        env, services, fleet = grid
        user = services.coordination
        work = {"A": 10.0, "B": 10.0, "C": 10.0}
        par = drive(
            env,
            user,
            lambda: user.call(
                "simulation",
                "estimate-makespan",
                {"plan": concurrent("A", "B", "C"), "work": work},
            ),
        )
        seq = drive(
            env,
            user,
            lambda: user.call(
                "simulation",
                "estimate-makespan",
                {"plan": sequential("A", "B", "C"), "work": work},
            ),
        )
        assert par["makespan"] == 10.0
        assert seq["makespan"] == 30.0

    def test_estimate_makespan_iterations_multiply(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call(
                "simulation",
                "estimate-makespan",
                {"plan": iterative("A"), "work": {"A": 5.0}, "iterations": 3},
            ),
        )
        assert result["makespan"] == 15.0


class TestBootstrap:
    def test_build_core_services_census(self):
        env = GridEnvironment()
        services = build_core_services(env)
        assert len(services.all()) == 11
        assert len(env.agent_names) == 11
        # all registered with information
        assert sum(services.information.census.values()) == 11

    def test_standard_environment_shape(self):
        env, services, fleet = standard_environment(
            synthetic_services(), containers=5
        )
        assert len(fleet) == 5
        assert env.node_names == ("node1", "node2", "node3", "node4", "node5")
        sites = {ac.site for ac in fleet}
        assert sites == {"siteA", "siteB", "siteC"}

    def test_failure_probability_wired(self):
        env, services, fleet = standard_environment(
            synthetic_services(), containers=1, failure_probability=1.0
        )
        assert fleet[0].failures is not None
        assert fleet[0].failures.should_fail("x")

    def test_broker_knows_all_containers(self):
        env, services, fleet = standard_environment(
            synthetic_services(), containers=4
        )
        assert services.brokerage.containers_for("POD") == [
            "ac1", "ac2", "ac3", "ac4",
        ]
