"""Checkpointing of long-lasting activities (Section-1 requirement)."""

import pytest

from repro.bus import CallPolicy
from repro.errors import ServiceError
from repro.grid import (
    Agent,
    ApplicationContainer,
    EndUserService,
    GridEnvironment,
)
from repro.sim import BernoulliFailures


class _Storage(Agent):
    def __init__(self, env):
        super().__init__(env, env.storage_name, "core")
        self.objects = {}

    def handle_store(self, message):
        self.objects[message.content["key"]] = message.content["payload"]
        return {"key": message.content["key"]}

    def handle_retrieve(self, message):
        if message.content["key"] not in self.objects:
            raise ServiceError("missing")
        return {"payload": self.objects[message.content["key"]]}

    def handle_delete(self, message):
        return {"deleted": self.objects.pop(message.content["key"], None) is not None}


def build(failures=None, chunks=5):
    env = GridEnvironment()
    storage = _Storage(env)
    node = env.add_node("n1", "siteA", slots=1)
    ac = ApplicationContainer(
        env,
        "ac1",
        node,
        services={
            "LONG": EndUserService(
                "LONG",
                work=100.0,
                effects={"OUT": {"Status": "done"}},
                checkpointable=True,
                checkpoint_chunks=chunks,
            )
        },
        failures=failures,
    )
    user = Agent(env, "user", "u")
    return env, storage, ac, user


def call(env, user, content, timeout=None):
    out = {}

    def main():
        try:
            out["result"] = yield from user.call(
                "ac1", "execute-activity", content,
                policy=CallPolicy(timeout=timeout),
            )
        except ServiceError as exc:
            out["error"] = str(exc)

    env.engine.spawn(main(), "call")
    env.run(max_events=100_000)
    return out


def test_success_deletes_checkpoint():
    env, storage, ac, user = build()
    out = call(env, user, {"service": "LONG", "inputs": {},
                           "checkpoint_key": "ckpt/t/LONG"})
    assert out["result"]["outputs"]["OUT"]["Status"] == "done"
    assert "ckpt/t/LONG" not in storage.objects


def test_failure_leaves_progress():
    env, storage, ac, user = build(failures=BernoulliFailures(1.0, rng=0))
    out = call(env, user, {"service": "LONG", "inputs": {},
                           "checkpoint_key": "ckpt/t/LONG"})
    assert "failed at checkpoint" in out["error"]
    # With p=1 the first slice fails, so no progress is recorded; the
    # checkpoint record may be absent — that is valid resume-from-zero.
    assert storage.objects.get("ckpt/t/LONG", {"chunks_done": 0})["chunks_done"] == 0


def test_retry_resumes_from_checkpoint():
    env, storage, ac, user = build()
    # Seed a checkpoint: 4 of 5 chunks already done by a previous attempt.
    storage.objects["ckpt/t/LONG"] = {"chunks_done": 4, "chunks": 5}
    start = env.engine.now
    out = call(env, user, {"service": "LONG", "inputs": {},
                           "checkpoint_key": "ckpt/t/LONG"})
    assert "result" in out
    elapsed = env.engine.now - start
    # Only one of five slices (100 work / 5 = 20s) plus messaging overhead.
    assert elapsed < 0.5 * 100.0


def test_uncheckpointed_without_key_runs_monolithically():
    env, storage, ac, user = build()
    out = call(env, user, {"service": "LONG", "inputs": {}})
    assert "result" in out
    assert storage.objects == {}


def test_partial_failures_eventually_finish_cheaper():
    """The point of checkpointing: across retries, completed slices are
    never recomputed."""
    failures = BernoulliFailures(0.6, rng=4)
    env, storage, ac, user = build(failures=failures, chunks=10)

    attempts = 0
    result = {}

    def driver():
        nonlocal attempts
        while attempts < 50:
            attempts += 1
            try:
                reply = yield from user.call(
                    "ac1",
                    "execute-activity",
                    {"service": "LONG", "inputs": {},
                     "checkpoint_key": "ckpt/t/LONG"},
                )
                result.update(reply)
                return
            except ServiceError:
                continue

    env.engine.spawn(driver(), "driver")
    env.run(max_events=500_000)
    assert result, "never completed"
    # Total compute time across all retries is bounded: every slice is paid
    # for at most once plus the failed slice per attempt.  Without
    # checkpoints, expected time would be far larger (restart from zero).
    slice_time = 100.0 / 10
    assert env.engine.now <= (10 + attempts) * slice_time + 5.0


def test_fraction_scaling_matches_monolithic():
    """should_fail_fraction over N slices ~ should_fail once."""
    mono = BernoulliFailures(0.3, rng=1)
    sliced = BernoulliFailures(0.3, rng=2)
    n = 20_000
    mono_rate = sum(mono.should_fail("c") for _ in range(n)) / n

    def one_run():
        return any(sliced.should_fail_fraction("c", 1 / 5) for _ in range(5))

    sliced_rate = sum(one_run() for _ in range(n)) / n
    assert abs(mono_rate - sliced_rate) < 0.02
