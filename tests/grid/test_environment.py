"""GridEnvironment: routing, nodes, delays."""

import pytest

from repro.errors import GridError
from repro.grid import Agent, GridEnvironment, HardwareProfile


class Pong(Agent):
    def handle_ping(self, message):
        return {"pong": True}


def test_node_management():
    env = GridEnvironment()
    node = env.add_node("n1", "siteA", HardwareProfile(speed=3.0), slots=2)
    assert env.node("n1") is node
    assert node.duration(6.0) == 2.0
    assert env.node_names == ("n1",)
    with pytest.raises(GridError):
        env.add_node("n1", "siteB")
    with pytest.raises(GridError):
        env.node("ghost")


def test_node_register_in_kb():
    from repro.ontology import builtin_shell

    env = GridEnvironment()
    node = env.add_node("n1", "siteA", HardwareProfile(speed=3.0), slots=2)
    kb = builtin_shell()
    res = node.register_in(kb)
    assert res.get("Name") == "n1"
    assert kb.resolve(res, "Hardware").get("Speed") == 3.0


def test_routing_applies_network_delay():
    env = GridEnvironment()
    env.connect_sites("s1", "s2", latency=1.0, bandwidth=1e9)
    Pong(env, "pong", "s2")
    user = Agent(env, "user", "s1")
    times = {}

    def main():
        times["sent"] = env.engine.now
        yield from user.call("pong", "ping")
        times["done"] = env.engine.now

    env.engine.spawn(main(), "m")
    env.run()
    # two crossings of a 1s-latency link
    assert times["done"] >= 2.0


def test_unknown_receiver_dropped():
    env = GridEnvironment()
    user = Agent(env, "user", "s1")
    user.request("ghost", "anything")
    env.run()
    assert len(env.dropped) == 1


def test_agent_registry():
    env = GridEnvironment()
    a = Agent(env, "a", "s1")
    assert env.agent("a") is a
    assert env.has_agent("a") and not env.has_agent("b")
    assert list(env.agents()) == [a]
    with pytest.raises(GridError):
        env.agent("b")


def test_intra_site_fast():
    env = GridEnvironment()
    Pong(env, "pong", "s1")
    user = Agent(env, "user", "s1")

    def main():
        yield from user.call("pong", "ping")

    env.engine.spawn(main(), "m")
    env.run()
    assert env.engine.now < 0.1


@pytest.mark.parametrize(
    ("journal", "enabled", "spans"),
    [(False, False, False), (True, True, True)],
)
def test_journal_modes(journal, enabled, spans):
    env = GridEnvironment(journal=journal)
    assert env.journal.enabled == enabled
    assert env.spans.enabled == spans


@pytest.mark.parametrize(
    "journal", ["record", "mirror", "mirorr", "", None, 0, 1]
)
def test_journal_rejects_other_values(journal):
    with pytest.raises(ValueError, match="journal must be"):
        GridEnvironment(journal=journal)
