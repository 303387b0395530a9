"""Agent RPC, handler dispatch, timeouts, crash semantics."""

import pytest

from repro.errors import ServiceError
from repro.grid import Agent, GridEnvironment, Performative


class Echo(Agent):
    def handle_echo(self, message):
        return {"echo": message.content.get("text", "")}

    def handle_slow(self, message):
        yield 100.0
        return {"late": True}

    def handle_boom(self, message):
        raise ServiceError("kaput")

    def handle_relay(self, message):
        # nested RPC from inside a handler
        result = yield from self.call("echo2", "echo", {"text": "deep"})
        return {"via": result["echo"]}


@pytest.fixture
def env():
    return GridEnvironment()


def run_call(env, caller, to, action, content=None, timeout=None):
    out = {}

    def main():
        try:
            result = yield from caller.call(to, action, content, timeout=timeout)
            out["result"] = result
        except ServiceError as exc:
            out["error"] = str(exc)

    env.engine.spawn(main(), "main")
    env.run(max_events=10_000)
    return out


def test_rpc_roundtrip(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    out = run_call(env, user, "echo1", "echo", {"text": "hi"})
    assert out["result"] == {"echo": "hi"}


def test_unknown_action_refused(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    out = run_call(env, user, "echo1", "nothere")
    assert "does not provide" in out["error"]


def test_handler_service_error_becomes_failure(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    out = run_call(env, user, "echo1", "boom")
    assert "kaput" in out["error"]


def test_timeout_on_slow_handler(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    out = run_call(env, user, "echo1", "slow", timeout=10.0)
    assert "timed out" in out["error"]


def test_timeout_cancelled_on_reply(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    out = run_call(env, user, "echo1", "echo", {"text": "x"}, timeout=500.0)
    assert out["result"]["echo"] == "x"
    # The pending timeout timer must not keep the clock running to 500.
    assert env.engine.now < 10.0


def test_crashed_agent_drops_traffic(env):
    echo = Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    echo.crash()
    out = run_call(env, user, "echo1", "echo", {"text": "x"}, timeout=5.0)
    assert "timed out" in out["error"]
    assert env.dropped


def test_restart_recovers(env):
    echo = Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    echo.crash()
    echo.restart()
    out = run_call(env, user, "echo1", "echo", {"text": "x"})
    assert out["result"]["echo"] == "x"


def test_nested_rpc_from_handler(env):
    Echo(env, "relay1", "s1")
    Echo(env, "echo2", "s2")
    user = Agent(env, "user", "s3")
    out = run_call(env, user, "relay1", "relay")
    assert out["result"] == {"via": "deep"}


def test_concurrent_handlers_dont_block(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    results = []

    def main():
        slow = env.engine.spawn(_call(user, "echo1", "slow"), "slow")
        fast_result = yield from user.call("echo1", "echo", {"text": "quick"})
        results.append(("fast", fast_result, env.engine.now))
        yield slow

    def _call(agent, to, action):
        result = yield from agent.call(to, action)
        results.append((action, result, env.engine.now))

    env.engine.spawn(main(), "main")
    env.run(max_events=10_000)
    # The quick echo returns long before the slow handler finishes.
    assert results[0][0] == "fast"
    assert results[0][2] < 10.0
    assert results[1][2] >= 100.0


def test_message_trace_recorded(env):
    Echo(env, "echo1", "s1")
    user = Agent(env, "user", "s2")
    run_call(env, user, "echo1", "echo", {"text": "x"})
    actions = env.trace.actions()
    assert ("user", "echo1", "request", "echo") in actions
    assert ("echo1", "user", "inform", "echo") in actions


def test_duplicate_agent_name_rejected(env):
    Agent(env, "dup", "s1")
    from repro.errors import GridError

    with pytest.raises(GridError):
        Agent(env, "dup", "s2")
