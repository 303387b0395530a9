"""End-to-end observability: a real enactment, inspected over RPC.

Acceptance path for the message-bus refactor: run a full
coordination-driven enactment on the standard environment, then — through
the **monitoring service**, i.e. over the simulated network itself —
reconstruct the multi-hop causal trace tree and read non-zero RPC latency
histograms.
"""

import pytest

from repro.grid import Agent
from repro.planner import GPConfig
from repro.services import standard_environment
from repro.virolab import planning_problem
from tests.services.conftest import drive, synthetic_services


@pytest.fixture(scope="module")
def enacted():
    """One completed enactment plus a user agent for follow-up queries."""
    env, services, fleet = standard_environment(
        synthetic_services(),
        containers=3,
        planner_config=GPConfig(population_size=30, generations=5),
    )
    user = Agent(env, "observer", "user")
    reply = drive(
        env,
        user,
        lambda: user.call(
            "coordination",
            "execute-task",
            {
                "problem": planning_problem(),
                "task": "observed-task",
                "initial_data": {
                    "D1": {"Classification": "POD-Parameter"},
                    "D2": {"Classification": "Micrograph"},
                },
            },
        ),
    )
    assert reply["status"] == "completed"
    return env, services, user


class TestMetricsOverRpc:
    def test_latency_histograms_are_nonzero(self, enacted):
        env, services, user = enacted
        dump = drive(
            env, user, lambda: user.call("monitoring", "metrics", {"name": "rpc_latency"})
        )
        latencies = dump["histograms"]["rpc_latency"]
        assert latencies, "no rpc_latency series recorded"
        # The coordination -> container execution path must show real time.
        totals = {key: stats for key, stats in latencies.items()}
        assert any(stats["count"] > 0 and stats["sum"] > 0 for stats in totals.values())
        execute = [
            stats for key, stats in totals.items() if key.endswith("|execute-activity")
        ]
        assert execute and all(stats["mean"] > 0 for stats in execute)

    def test_counters_cover_the_enactment(self, enacted):
        env, services, user = enacted
        dump = drive(env, user, lambda: user.call("monitoring", "metrics", {}))
        counters = dump["counters"]
        assert counters["enactments_completed"]["coordination|"] == 1
        assert sum(counters["rpc_ok"].values()) > 10
        assert sum(counters["requests_handled"].values()) > 10
        assert sum(counters["activities_completed"].values()) >= 1

    def test_census_uses_exact_totals(self, enacted):
        env, services, user = enacted
        census = drive(env, user, lambda: user.call("monitoring", "census", {}))
        # The handler snapshots totals before its own reply is delivered,
        # so the live trace is exactly one event ahead.
        assert census["messages_delivered"] == env.trace.total_recorded - 1
        assert census["messages_sent"] >= census["messages_delivered"]


class TestTraceTreeOverRpc:
    def test_enactment_reconstructs_as_multi_hop_tree(self, enacted):
        env, services, user = enacted
        # The enactment's trace is the one rooted at observer -> coordination.
        root_event = next(
            e
            for e in env.trace.records
            if e.message.sender == "observer" and e.message.action == "execute-task"
        )
        tree = drive(
            env,
            user,
            lambda: user.call(
                "monitoring", "trace-tree", {"trace_id": root_event.trace_id}
            ),
        )
        assert tree["roots"] == 1
        # Multi-hop: coordination fans out to matchmaking / scheduling /
        # containers / brokerage, each with nested RPCs of its own.
        assert tree["depth"] >= 4
        assert tree["size"] > 20
        senders = {node["sender"] for node in tree["nodes"]}
        assert {"observer", "coordination", "matchmaking", "scheduling"} <= senders
        assert "coordination -> matchmaking request match" in tree["rendered"]
        # Depths in the flattened walk match the rendered indentation.
        assert tree["nodes"][0]["depth"] == 0
        assert max(node["depth"] for node in tree["nodes"]) == tree["depth"] - 1

    def test_trace_query_filters_by_conversation(self, enacted):
        env, services, user = enacted
        sample = env.trace.records[0].message
        reply = drive(
            env,
            user,
            lambda: user.call(
                "monitoring", "trace", {"conversation": sample.conversation}
            ),
        )
        # One event ahead: the reply carrying this snapshot (see census test).
        assert reply["total_recorded"] == env.trace.total_recorded - 1
        assert all(e["conversation"] == sample.conversation for e in reply["events"])
        assert reply["events"], "conversation filter returned nothing"
