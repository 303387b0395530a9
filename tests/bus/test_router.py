"""Router: identity streams, delivery, drop accounting, failure injection."""

from repro.grid import Agent, GridEnvironment, Message, Performative
from repro.services.monitoring import MonitoringService
from repro.sim.failures import BernoulliFailures


def msg(**kwargs):
    defaults = dict(
        sender="a",
        receiver="b",
        performative=Performative.REQUEST,
        action="do",
    )
    defaults.update(kwargs)
    return Message(**defaults)


class Echo(Agent):
    def handle_echo(self, message):
        return {"echo": message.content.get("text", "")}


class TestIdentity:
    def test_conversation_streams_are_per_router(self):
        one, two = GridEnvironment(), GridEnvironment()
        a, b = msg(), msg()
        one.route(a)
        one.route(b)
        assert (a.conversation, b.conversation) == ("conv-1", "conv-2")
        c = msg()
        two.route(c)
        assert c.conversation == "conv-1"  # independent stream, no leakage

    def test_message_ids_unique_and_idempotent(self):
        env = GridEnvironment()
        a, b = msg(), msg()
        env.route(a)
        env.route(b)
        assert a.message_id != b.message_id
        before = a.message_id
        env.router.prepare(a)  # idempotent: re-preparing never reassigns
        assert a.message_id == before

    def test_root_messages_open_fresh_traces(self):
        env = GridEnvironment()
        a, b = msg(), msg()
        env.route(a)
        env.route(b)
        assert a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_cause_links_trace_and_parent(self):
        env = GridEnvironment()
        root, child = msg(), msg(sender="b", receiver="a")
        env.route(root)
        env.route(child, cause=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.message_id


class TestDelivery:
    def test_delivery_records_trace_and_metrics(self):
        env = GridEnvironment()
        Echo(env, "b", "site")
        Agent(env, "a", "site")
        env.route(msg(action="echo"))
        env.run()
        assert ("a", "b", "request", "echo") in env.trace.actions()
        assert env.metrics.value("messages_sent", agent="a", action="echo") == 1
        assert env.metrics.value("messages_delivered", agent="b", action="echo") == 1

    def test_unknown_receiver_dropped(self):
        env = GridEnvironment()
        env.route(msg(receiver="ghost"))
        assert len(env.dropped) == 1
        assert env.metrics.value("drop_reason", agent="unknown-receiver") == 1
        assert env.trace.total_recorded == 0

    def test_crashed_receiver_dropped_at_delivery_time(self):
        env = GridEnvironment()
        echo = Echo(env, "b", "site")
        Agent(env, "a", "site")
        echo.crash()
        env.route(msg(action="echo"))
        env.run()
        assert len(env.dropped) == 1
        assert env.metrics.value("drop_reason", agent="receiver-down") == 1


class TestDropAccounting:
    """The drop ring is bounded like the trace; the registry keeps the
    exact counts, which the monitoring census reports in every
    configuration."""

    @staticmethod
    def census(env):
        monitoring = MonitoringService(env)
        user = Agent(env, "user", "site")
        out = {}

        def main():
            out["census"] = yield from user.call(monitoring.name, "census", {})

        env.engine.spawn(main(), "census-client")
        env.run()
        return out["census"]

    def test_drop_ring_keeps_the_newest_and_the_registry_counts_all(self):
        env = GridEnvironment(trace_capacity=2)
        lost = [msg(receiver="ghost", action=f"lost-{i}") for i in range(5)]
        for message in lost:
            env.route(message)
        assert list(env.dropped) == lost[-2:]
        assert env.metrics.total("messages_dropped") == 5
        assert self.census(env)["messages_dropped"] == 5

    def test_census_counts_deliveries_without_the_trace(self):
        env = GridEnvironment(tracing=False)
        Echo(env, "b", "site")
        for _ in range(3):
            env.route(msg(action="echo"))
        env.run()
        census = self.census(env)
        assert env.trace.total_recorded == 0
        # Three echo requests and the census request itself; the echo
        # replies go to the unregistered sender "a" and are dropped.
        assert census["messages_delivered"] == 4
        assert census["messages_dropped"] == 3
        assert census["messages_sent"] == 7


class TestDropOracle:
    def test_bernoulli_oracle_drops_everything_at_rate_one(self):
        env = GridEnvironment()
        Echo(env, "b", "site")
        Agent(env, "a", "site")
        failures = BernoulliFailures(probability=1.0, rng=0)
        env.router.use_bernoulli(failures)
        env.route(msg(action="echo"))
        env.run()
        assert len(env.dropped) == 1
        assert env.metrics.value("drop_reason", agent="oracle") == 1
        # The draw is logged against the receiver, like invocation failures.
        assert failures.log.count("invocation-failure") == 1
        assert failures.log.events[0][1] == "b"

    def test_oracle_off_by_default_and_component_mapping(self):
        env = GridEnvironment()
        Echo(env, "b", "site")
        Agent(env, "a", "site")
        assert env.router.drop_oracle is None
        failures = BernoulliFailures(per_component={"lossy-link": 1.0}, rng=0)
        env.router.use_bernoulli(failures, component_of=lambda m: "lossy-link")
        env.route(msg(action="echo"))
        env.run()
        assert env.metrics.value("drop_reason", agent="oracle") == 1
