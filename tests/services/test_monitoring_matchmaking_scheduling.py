"""Monitoring, matchmaking and scheduling services."""

import pytest

from repro.errors import ServiceError
from repro.grid.messages import Performative
from repro.services import standard_environment
from tests.services.conftest import drive, synthetic_services

#: The facts ``load`` returns: what matchmaking and scheduling rank on.
CAPACITY_FACTS = (
    "known", "alive", "site", "node_up", "slots", "slots_in_use",
    "slots_queued", "speed", "cost_rate",
)


class TestMonitoring:
    def test_container_status(self, grid):
        env, services, fleet = grid
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "status", {"agent": "ac3"}))
        assert status["known"] and status["alive"]
        assert status["node"] == "node3"
        assert status["speed"] == 4.0
        assert status["node_up"] is True

    def test_unknown_agent(self, grid):
        env, services, fleet = grid
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "status", {"agent": "zz"}))
        assert status == {"known": False, "alive": False}

    def test_crash_visible(self, grid):
        env, services, fleet = grid
        fleet[0].crash()
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "status", {"agent": "ac1"}))
        assert status["alive"] is False

    def test_node_status(self, grid):
        env, services, fleet = grid
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "node-status", {"node": "node2"}))
        assert status["up"] and status["slots"] == 4

    def test_census(self, grid):
        env, services, fleet = grid
        user = services.coordination
        census = drive(env, user, lambda: user.call("monitoring", "census", {}))
        assert census["agents"] == 11 + 3
        assert census["nodes"] == 3


class TestLoad:
    """The batched ``load`` lookup against per-agent ``status``."""

    def _compare(self, env, services, names):
        user = services.coordination
        load = drive(
            env, user, lambda: user.call("monitoring", "load", {"agents": names})
        )
        assert list(load["agents"]) == names
        for name in names:
            status = drive(
                env, user, lambda n=name: user.call("monitoring", "status", {"agent": n})
            )
            expected = {k: status[k] for k in CAPACITY_FACTS if k in status}
            assert load["agents"][name] == expected
        return load["agents"]

    def test_live_container_matches_status(self, grid):
        env, services, fleet = grid
        facts = self._compare(env, services, ["ac3", "ac1"])
        assert set(facts["ac3"]) == set(CAPACITY_FACTS)
        assert facts["ac3"]["speed"] == 4.0 and facts["ac3"]["alive"]

    def test_unknown_name(self, grid):
        env, services, fleet = grid
        facts = self._compare(env, services, ["zz"])
        assert facts["zz"] == {"known": False, "alive": False}

    def test_crashed_container(self, grid):
        env, services, fleet = grid
        fleet[0].crash()
        facts = self._compare(env, services, ["ac1", "ac2"])
        assert facts["ac1"]["alive"] is False
        assert facts["ac2"]["alive"] is True

    def test_node_down(self, grid):
        env, services, fleet = grid
        fleet[1].node.up = False
        facts = self._compare(env, services, ["ac2"])
        assert facts["ac2"]["node_up"] is False

    def test_reply_is_slim(self, grid):
        env, services, fleet = grid
        user = services.coordination
        load = drive(
            env, user, lambda: user.call("monitoring", "load", {"agents": ["ac1"]})
        )
        assert "metrics" not in load["agents"]["ac1"]


class TestBatchedPerformance:
    def test_rows_match_recorded_state(self, grid):
        env, services, fleet = grid
        broker = services.brokerage
        broker.record("POD", "ac1", 4.0, success=True)
        broker.record("POD", "ac1", 0.0, success=False)
        broker.record("POD", "ac3", 2.0, success=True)
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call(
                "brokerage",
                "performance",
                {"service": "POD", "containers": ["ac1", "ac2", "ac3"]},
            ),
        )
        rows = result["containers"]
        assert list(rows) == ["ac1", "ac2", "ac3"]
        for name, row in rows.items():
            perf = broker.performance_of("POD", name)
            if perf is None:
                assert row == {"runs": 0, "success_rate": 1.0, "mean_duration": 0.0}
            else:
                assert row == {
                    "runs": perf.runs,
                    "success_rate": perf.success_rate,
                    "mean_duration": perf.duration.mean,
                }
        assert rows["ac1"]["runs"] == 2 and rows["ac1"]["success_rate"] == 0.5
        assert rows["ac2"]["runs"] == 0


class TestMatchmaking:
    def test_match_ranks_by_load_then_speed(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(env, user, lambda: user.call("matchmaking", "match", {"service": "POD"}))
        # all idle -> fastest first
        assert [c["container"] for c in result["candidates"]] == ["ac3", "ac2", "ac1"]

    def test_min_speed_filter(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call("matchmaking", "match", {"service": "POD", "min_speed": 3.0}),
        )
        assert [c["container"] for c in result["candidates"]] == ["ac3"]

    def test_site_filter(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call("matchmaking", "match", {"service": "POD", "site": "siteB"}),
        )
        assert [c["container"] for c in result["candidates"]] == ["ac2"]

    def test_dead_containers_excluded(self, grid):
        env, services, fleet = grid
        fleet[2].crash()
        user = services.coordination
        result = drive(env, user, lambda: user.call("matchmaking", "match", {"service": "POD"}))
        assert "ac3" not in [c["container"] for c in result["candidates"]]

    def test_unknown_service_empty(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(env, user, lambda: user.call("matchmaking", "match", {"service": "NOPE"}))
        assert result["candidates"] == []


class TestScheduling:
    def test_prefers_fast_idle_container(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": ["ac1", "ac2", "ac3"], "work": 10.0},
            ),
        )
        assert result["container"] == "ac3"
        assert result["estimate"] == pytest.approx(10.0 / 4.0)
        assert result["alternatives"] == ["ac2", "ac1"]

    def test_reliability_penalty(self, grid):
        env, services, fleet = grid
        user = services.coordination
        # Make ac3 look unreliable: estimate doubles, ac2 wins (2.5*2 = 5 = work/2).
        for _ in range(10):
            services.brokerage.record("POD", "ac3", 0.0, success=False)
        result = drive(
            env,
            user,
            lambda: user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": ["ac2", "ac3"], "work": 10.0},
            ),
        )
        assert result["container"] == "ac2"

    def test_no_candidates_rejected(self, grid):
        env, services, fleet = grid
        user = services.coordination
        with pytest.raises(ServiceError):
            drive(
                env,
                user,
                lambda: user.call(
                    "scheduling", "schedule", {"service": "POD", "candidates": []}
                ),
            )

    def test_all_dead_rejected(self, grid):
        env, services, fleet = grid
        for ac in fleet:
            ac.crash()
        user = services.coordination
        with pytest.raises(ServiceError):
            drive(
                env,
                user,
                lambda: user.call(
                    "scheduling",
                    "schedule",
                    {"service": "POD", "candidates": ["ac1", "ac2", "ac3"]},
                ),
            )

    def test_concurrent_requests_do_not_herd(self):
        # The Figure-10 fork: three schedule requests issued at the same
        # instant over three idle, equal containers.  Each decision sees
        # the assignments the earlier ones booked, so they spread.
        env, services, fleet = standard_environment(
            synthetic_services(), containers=3, speeds=(1.0,), cost_rates=(1.0,)
        )
        user = services.coordination
        chosen = []

        def request():
            reply = yield from user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": ["ac1", "ac2", "ac3"]},
            )
            chosen.append((env.engine.now, reply["container"]))

        for i in range(3):
            env.engine.spawn(request(), f"branch{i}")
        env.run()
        assert len({time for time, _ in chosen}) == 1
        assert sorted(container for _, container in chosen) == ["ac1", "ac2", "ac3"]

    @pytest.mark.parametrize("containers", [3, 8])
    def test_one_decision_sends_two_lookups(self, containers):
        env, services, fleet = standard_environment(
            synthetic_services(), containers=containers
        )
        user = services.coordination
        candidates = [container.name for container in fleet]
        drive(
            env,
            user,
            lambda: user.call(
                "scheduling", "schedule", {"service": "POD", "candidates": candidates}
            ),
        )
        lookups = [
            (event.message.receiver, event.message.action)
            for event in env.trace.events()
            if event.message.sender == services.scheduling.name
            and event.message.performative is Performative.REQUEST
        ]
        assert lookups == [("monitoring", "load"), ("brokerage", "performance")]
