"""CallPolicy: timeouts (the _TIMEOUT sentinel path), retries, failover."""

import pytest

from repro.bus import DEFAULT_POLICY, CallPolicy
from repro.errors import GridError, ServiceError
from repro.grid import Agent, GridEnvironment
from repro.sim.failures import BernoulliFailures


class TestPolicyObject:
    def test_defaults_match_legacy_behaviour(self):
        policy = CallPolicy()
        assert policy.timeout is None
        assert policy.attempts == 1
        assert policy.size == 1_000.0

    def test_validation(self):
        with pytest.raises(GridError):
            CallPolicy(timeout=0.0)
        with pytest.raises(GridError):
            CallPolicy(retries=-1)
        with pytest.raises(GridError):
            CallPolicy(backoff=-1.0)
        with pytest.raises(GridError):
            CallPolicy(backoff_factor=0.0)
        with pytest.raises(GridError):
            CallPolicy(size=-1.0)

    def test_deterministic_exponential_backoff(self):
        policy = CallPolicy(retries=3, backoff=2.0, backoff_factor=3.0)
        assert policy.backoff_before(0) == 0.0
        assert policy.backoff_before(1) == 2.0
        assert policy.backoff_before(2) == 6.0
        assert policy.backoff_before(3) == 18.0

    def test_with_timeout(self):
        policy = CallPolicy(retries=2).with_timeout(5.0)
        assert policy.timeout == 5.0 and policy.retries == 2


class Flaky(Agent):
    """Fails the first *failures_left* requests, then answers."""

    def __init__(self, env, name, site, failures_left=0):
        super().__init__(env, name, site)
        self.failures_left = failures_left
        self.calls = 0

    def handle_work(self, message):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise ServiceError(f"{self.name} transient failure")
        return {"worker": self.name}


class Silent(Agent):
    """Never replies (handler parks forever) — forces the timeout path."""

    def __init__(self, env, name, site):
        super().__init__(env, name, site)
        self.requests_seen = 0

    def handle_work(self, message):
        self.requests_seen += 1
        yield 1e9
        return {}


def drive(env, fn):
    out = {}

    def main():
        try:
            out["result"] = yield from fn()
        except ServiceError as exc:
            out["error"] = str(exc)
        out["at"] = env.engine.now  # when the call settled (sim time)

    env.engine.spawn(main(), "driver")
    env.run(max_events=100_000)
    return out


class TestTimeoutSentinel:
    def test_timeout_fires_and_raises(self):
        env = GridEnvironment()
        silent = Silent(env, "srv", "s1")
        user = Agent(env, "user", "s2")
        out = drive(
            env, lambda: user.call("srv", "work", policy=CallPolicy(timeout=10.0))
        )
        assert "timed out after 10.0s" in out["error"]
        assert silent.requests_seen == 1
        assert env.metrics.value("rpc_timeout", agent="srv", action="work") == 1
        # The caller gave up at exactly the timeout, not at the handler's 1e9.
        assert out["at"] == pytest.approx(10.0, abs=1.0)

    def test_late_reply_goes_to_on_unhandled(self):
        env = GridEnvironment()

        class Slow(Agent):
            def handle_work(self, message):
                yield 50.0
                return {"late": True}

        class Caller(Agent):
            def __init__(self, env, name, site):
                super().__init__(env, name, site)
                self.unhandled = []

            def on_unhandled(self, message):
                self.unhandled.append(message)

        Slow(env, "srv", "s1")
        user = Caller(env, "user", "s2")
        out = drive(
            env, lambda: user.call("srv", "work", policy=CallPolicy(timeout=10.0))
        )
        assert "timed out" in out["error"]
        env.run()  # let the stale INFORM arrive
        assert [m.action for m in user.unhandled] == ["work"]


class TestDefaultPolicy:
    def test_call_without_policy_shares_the_default(self, monkeypatch):
        # No policy means the one module-level DEFAULT_POLICY, not a fresh
        # CallPolicy built per RPC.
        seen = []
        call_once = Agent._call_once

        def spy(self, to, action, content, policy):
            seen.append(policy)
            return (yield from call_once(self, to, action, content, policy))

        monkeypatch.setattr(Agent, "_call_once", spy)
        env = GridEnvironment()
        Flaky(env, "srv", "s1")
        user = Agent(env, "user", "s2")
        out = drive(env, lambda: user.call("srv", "work"))
        assert out["result"] == {"worker": "srv"}
        assert len(seen) == 1 and seen[0] is DEFAULT_POLICY


class TestRetries:
    def test_retries_until_success(self):
        env = GridEnvironment()
        worker = Flaky(env, "srv", "s1", failures_left=2)
        user = Agent(env, "user", "s2")
        policy = CallPolicy(retries=2)
        out = drive(env, lambda: user.call("srv", "work", policy=policy))
        assert out["result"] == {"worker": "srv"}
        assert worker.calls == 3
        assert env.metrics.value("rpc_retry", agent="srv", action="work") == 2
        assert env.metrics.value("rpc_error", agent="srv", action="work") == 2
        assert env.metrics.value("rpc_ok", agent="srv", action="work") == 1

    def test_retries_exhausted_raises_last_error(self):
        env = GridEnvironment()
        worker = Flaky(env, "srv", "s1", failures_left=10)
        user = Agent(env, "user", "s2")
        out = drive(env, lambda: user.call("srv", "work", policy=CallPolicy(retries=1)))
        assert "transient failure" in out["error"]
        assert worker.calls == 2

    def test_backoff_timing_is_deterministic(self):
        env = GridEnvironment()
        Flaky(env, "srv", "s1", failures_left=2)
        user = Agent(env, "user", "s2")
        policy = CallPolicy(retries=2, backoff=100.0, backoff_factor=2.0)
        out = drive(env, lambda: user.call("srv", "work", policy=policy))
        assert "result" in out
        # Two backoff pauses: 100 before retry 1, 200 before retry 2 — the
        # round trips themselves take well under a second each.
        assert 300.0 < out["at"] < 301.0


class TestFailover:
    def test_failover_preserves_provider_order(self):
        env = GridEnvironment()
        first = Flaky(env, "p1", "s1", failures_left=10)  # always fails
        second = Flaky(env, "p2", "s1")
        third = Flaky(env, "p3", "s1")
        user = Agent(env, "user", "s2")
        out = drive(env, lambda: user.call_any(["p1", "p2", "p3"], "work"))
        assert out["result"] == {"worker": "p2"}
        assert (first.calls, second.calls, third.calls) == (1, 1, 0)
        assert env.metrics.value("rpc_failover", agent="p2", action="work") == 1
        assert env.metrics.value("rpc_failover", agent="p3", action="work") == 0

    def test_failover_under_injected_message_loss(self):
        """A lossy fabric (Bernoulli drop oracle) silences the primary; the
        policy timeout detects it and failover lands on the replica."""
        env = GridEnvironment()
        primary = Flaky(env, "p1", "s1")
        replica = Flaky(env, "p2", "s1")
        user = Agent(env, "user", "s2")
        env.router.use_bernoulli(
            BernoulliFailures(per_component={"p1": 1.0}, rng=1)
        )
        policy = CallPolicy(timeout=5.0)
        out = drive(env, lambda: user.call_any(["p1", "p2"], "work", policy=policy))
        assert out["result"] == {"worker": "p2"}
        assert primary.calls == 0  # the request to p1 never arrived
        assert replica.calls == 1
        assert env.metrics.value("rpc_timeout", agent="p1", action="work") == 1
        assert env.metrics.value("drop_reason", agent="oracle") == 1

    def test_no_providers_raises(self):
        env = GridEnvironment()
        user = Agent(env, "user", "s2")
        out = drive(env, lambda: user.call_any([], "work"))
        assert "no providers" in out["error"]
