"""Application containers: hosting, execution, binding, failure injection."""

import pytest

from repro.bus import CallPolicy
from repro.errors import GridError, ServiceError
from repro.grid import (
    Agent,
    ApplicationContainer,
    EndUserService,
    GridEnvironment,
    HardwareProfile,
)
from repro.process.conditions import Atom
from repro.sim import BernoulliFailures


class _Storage(Agent):
    def __init__(self, env):
        super().__init__(env, env.storage_name, "core")
        self.objects = {}

    def handle_store(self, message):
        self.objects[message.content["key"]] = message.content["payload"]
        return {"key": message.content["key"]}

    def handle_retrieve(self, message):
        return {"payload": self.objects[message.content["key"]]}


@pytest.fixture
def env():
    out = GridEnvironment()
    _Storage(out)
    return out


@pytest.fixture
def container(env):
    node = env.add_node("n1", "siteA", HardwareProfile(speed=2.0), slots=1)
    ac = ApplicationContainer(env, "ac1", node)
    ac.host(
        EndUserService(
            "POD",
            work=10.0,
            effects={"D8": {"Classification": "Orientation File"}},
            input_condition=Atom("D1", "Classification", "=", "POD-Parameter"),
        )
    )
    return ac


def call(env, to, action, content, timeout=None):
    user = env.agent("user") if env.has_agent("user") else Agent(env, "user", "u")
    out = {}

    def main():
        try:
            out["result"] = yield from user.call(
                to, action, content, policy=CallPolicy(timeout=timeout)
            )
        except ServiceError as exc:
            out["error"] = str(exc)

    env.engine.spawn(main(), "call")
    env.run(max_events=50_000)
    return out


class TestHosting:
    def test_duplicate_host_rejected(self, container):
        with pytest.raises(GridError):
            container.host(EndUserService("POD"))

    def test_hosted_list(self, container):
        assert container.hosted == ("POD",)

    def test_can_execute(self, env, container):
        out = call(env, "ac1", "can-execute", {"service": "POD"})
        assert out["result"]["executable"] is True
        out = call(env, "ac1", "can-execute", {"service": "NOPE"})
        assert out["result"]["executable"] is False

    def test_can_execute_node_down(self, env, container):
        container.node.up = False
        out = call(env, "ac1", "can-execute", {"service": "POD"})
        assert out["result"]["executable"] is False

    def test_hosted_services_action(self, env, container):
        out = call(env, "ac1", "hosted-services", {})
        assert out["result"]["services"] == ["POD"]


class TestExecution:
    def test_duration_scales_with_speed(self, env, container):
        start = env.engine.now
        out = call(
            env,
            "ac1",
            "execute-activity",
            {
                "service": "POD",
                "inputs": {"D1": {"Classification": "POD-Parameter"}},
            },
        )
        assert out["result"]["duration"] == pytest.approx(5.0)  # 10 work / 2.0
        assert env.engine.now - start >= 5.0

    def test_input_condition_enforced(self, env, container):
        out = call(
            env,
            "ac1",
            "execute-activity",
            {"service": "POD", "inputs": {"D1": {"Classification": "wrong"}}},
        )
        assert "input condition" in out["error"]

    def test_unknown_service_rejected(self, env, container):
        out = call(env, "ac1", "execute-activity", {"service": "GHOST"})
        assert "does not host" in out["error"]

    def test_node_down_rejected(self, env, container):
        container.node.up = False
        out = call(
            env,
            "ac1",
            "execute-activity",
            {"service": "POD", "inputs": {"D1": {"Classification": "POD-Parameter"}}},
        )
        assert "down" in out["error"]

    def test_formal_actual_binding(self, env, container):
        container.host(
            EndUserService(
                "SUM",
                work=1.0,
                compute=lambda props, payloads: (
                    {"out": {"Value": props["left"]["Value"] + props["right"]["Value"]}},
                    {},
                ),
                inputs=("left", "right"),
                outputs=("out",),
            )
        )
        out = call(
            env,
            "ac1",
            "execute-activity",
            {
                "service": "SUM",
                "inputs": {"D10": {"Value": 2}, "D11": {"Value": 3}},
                "input_order": ["D10", "D11"],
                "output_order": ["D12"],
            },
        )
        assert out["result"]["outputs"] == {"D12": {"Value": 5}}

    def test_payload_roundtrip_through_storage(self, env, container):
        storage = env.agent(env.storage_name)
        storage.objects["in/key"] = [1, 2, 3]
        container.host(
            EndUserService(
                "DOUBLE",
                work=1.0,
                compute=lambda props, payloads: (
                    {"out": {"Classification": "List"}},
                    {"out": [x * 2 for x in payloads["data"]]},
                ),
                inputs=("data",),
                outputs=("out",),
            )
        )
        out = call(
            env,
            "ac1",
            "execute-activity",
            {
                "service": "DOUBLE",
                "inputs": {"D7": {"Classification": "List"}},
                "payload_keys": {"D7": "in/key"},
                "input_order": ["D7"],
                "output_order": ["D9"],
            },
        )
        stored_key = out["result"]["payload_keys"]["D9"]
        assert storage.objects[stored_key] == [2, 4, 6]

    def test_execution_log(self, env, container):
        call(
            env,
            "ac1",
            "execute-activity",
            {"service": "POD", "inputs": {"D1": {"Classification": "POD-Parameter"}}},
        )
        assert env.metrics.value("activities_completed", "ac1", "POD") == 1
        assert env.metrics.total("activities_failed") == 0


class TestFailureInjection:
    def test_bernoulli_failures_fail_invocations(self, env):
        node = env.add_node("n2", "siteB")
        ac = ApplicationContainer(
            env,
            "ac2",
            node,
            services={"S": EndUserService("S", work=1.0, effects={"X": {"a": 1}})},
            failures=BernoulliFailures(1.0, rng=0),
        )
        out = call(env, "ac2", "execute-activity", {"service": "S", "inputs": {}})
        assert "failed" in out["error"]
        assert env.metrics.value("activities_failed", "ac2", "S") == 1
        assert env.metrics.total("activities_completed") == 0

    def test_slot_released_after_failure(self, env):
        node = env.add_node("n3", "siteC", slots=1)
        ApplicationContainer(
            env,
            "ac3",
            node,
            services={"S": EndUserService("S", work=1.0, effects={})},
            failures=BernoulliFailures(1.0, rng=0),
        )
        call(env, "ac3", "execute-activity", {"service": "S", "inputs": {}})
        assert node.slots.in_use == 0
