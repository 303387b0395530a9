"""In-flight lookup coalescing on core services (single key and batches)."""

import pytest

from repro.errors import ServiceError


def _fetcher(calls, fail_first=False):
    """A batched lookup taking one simulated second; records each batch."""

    def fetch(keys):
        calls.append(list(keys))
        yield 1.0
        if fail_first and len(calls) == 1:
            raise ServiceError("lookup failed")
        return {key: key.upper() for key in keys}

    return fetch


def _run(env, requests):
    """Start every (label, generator) at the same instant; collect results
    or the ServiceError each one raised."""
    out = {}

    def wrap(label, gen):
        try:
            out[label] = yield from gen
        except ServiceError:
            out[label] = "failed"

    for label, gen in requests:
        env.engine.spawn(wrap(label, gen), label)
    env.run()
    return out


def test_batch_leads_misses_and_joins_keys_in_flight(grid):
    env, services, fleet = grid
    service = services.scheduling
    calls = []
    fetch = _fetcher(calls)
    out = _run(
        env,
        [
            ("a", service.coalesced_many(["x", "y"], fetch, "test_join")),
            ("b", service.coalesced_many(["y", "z"], fetch, "test_join")),
        ],
    )
    # "y" is fetched once, by the first batch; the second fetches only "z".
    assert calls == [["x", "y"], ["z"]]
    assert out == {"a": {"x": "X", "y": "Y"}, "b": {"y": "Y", "z": "Z"}}
    assert env.metrics.total("test_join") == 1
    assert not service._inflight


def test_failed_leader_fails_its_batch_and_joiners_retry(grid):
    env, services, fleet = grid
    service = services.scheduling
    calls = []
    fetch = _fetcher(calls, fail_first=True)
    out = _run(
        env,
        [
            ("a", service.coalesced_many(["x"], fetch)),
            ("b", service.coalesced_many(["x"], fetch)),
        ],
    )
    assert out == {"a": "failed", "b": {"x": "X"}}
    assert calls == [["x"], ["x"]]
    assert not service._inflight


@pytest.mark.parametrize("fail_first", [False, True])
def test_single_key_form_matches(grid, fail_first):
    # The one-key batch (a coordinator's match lookup): the joiner shares
    # the leader's reply, or retries alone when the leader's lookup fails.
    env, services, fleet = grid
    service = services.scheduling
    calls = []
    fetch = _fetcher(calls, fail_first)
    out = _run(
        env,
        [(label, service.coalesced_many(["k"], fetch)) for label in ("a", "b")],
    )
    assert out == (
        {"a": "failed", "b": {"k": "K"}}
        if fail_first
        else {"a": {"k": "K"}, "b": {"k": "K"}}
    )
    assert len(calls) == (2 if fail_first else 1)
