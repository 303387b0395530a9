"""The read-through cache on core services (``CoreService.cached``)."""

from repro.grid.container import ApplicationContainer
from repro.grid.messages import Message, Performative
from repro.grid.node import HardwareProfile
from repro.services import standard_environment
from repro.services.brokerage import ContainerAd
from repro.workloads.many_cases import many_cases_services


def _fetcher(calls, replies=None):
    """A batched lookup taking one simulated second; records each batch."""

    def fetch(names):
        calls.append(list(names))
        yield 1.0
        return {name: (replies or {}).get(name, name.upper()) for name in names}

    return fetch


def _lookups(env, service, requests):
    """Start each (label, delay, prefix, names, fetch) lookup after its
    delay; return every label's reply once the engine drains."""
    out = {}

    def lookup(label, delay, prefix, names, fetch):
        if delay:
            yield delay
        out[label] = yield from service.cached("test", prefix, names, fetch)

    for request in requests:
        env.engine.spawn(lookup(*request), request[0])
    env.run()
    return out


def _push(service, **content):
    """Hand *service* the broker's registry-changed INFORM."""
    service.on_unhandled(
        Message(
            sender="brokerage",
            receiver=service.name,
            performative=Performative.INFORM,
            action="registry-changed",
            content=content,
        )
    )


def test_cache_off_is_a_direct_fetch(grid):
    env, services, fleet = grid
    service = services.scheduling
    calls = []
    fetch = _fetcher(calls)
    out = _lookups(
        env, service,
        [(label, 0.0, ("k",), ["x"], fetch) for label in ("a", "b")],
    )
    assert out == {"a": {"x": "X"}, "b": {"x": "X"}}
    assert calls == [["x"], ["x"]]  # no coalescing...
    assert not service._cache  # ...nothing stored...
    assert env.metrics.total("test_miss") == 0  # ...and nothing counted


def test_fresh_entries_hit_and_misses_fetch_in_one_batch(grid):
    env, services, fleet = grid
    service = services.scheduling
    service.enable_cache(10.0)
    calls = []
    fetch = _fetcher(calls)
    out = _lookups(
        env, service,
        [
            ("cold", 0.0, ("k",), ["x", "y"], fetch),
            ("warm", 2.0, ("k",), ["y", "z"], fetch),
            ("expired", 20.0, ("k",), ["x"], fetch),
        ],
    )
    assert out == {
        "cold": {"x": "X", "y": "Y"},
        "warm": {"y": "Y", "z": "Z"},
        "expired": {"x": "X"},
    }
    assert calls == [["x", "y"], ["z"], ["x"]]
    assert env.metrics.total("test_hit") == 1
    assert env.metrics.total("test_miss") == 4
    assert set(service._cache) == {("k", "x"), ("k", "y"), ("k", "z")}


def test_empty_values_are_handed_back_but_not_stored(grid):
    env, services, fleet = grid
    service = services.scheduling
    service.enable_cache(10.0)
    calls = []
    fetch = _fetcher(calls, replies={"none": []})
    out = _lookups(
        env, service,
        [
            ("first", 0.0, ("k",), ["none", "x"], fetch),
            ("again", 2.0, ("k",), ["none", "x"], fetch),
        ],
    )
    assert out["first"] == out["again"] == {"none": [], "x": "X"}
    assert calls == [["none", "x"], ["none"]]


def test_push_during_fill_is_not_lost(grid):
    # The fill starts at t=0 and replies at t=1; the push lands at t=0.5.
    # Its requester still gets the reply, but the reply is not stored, so
    # the next lookup asks again instead of serving pre-push data.
    env, services, fleet = grid
    service = services.scheduling
    service.enable_cache(1e9)
    calls = []
    fetch = _fetcher(calls)

    def push():
        yield 0.5
        _push(service, container="x", services=[])

    env.engine.spawn(push(), "push")
    out = _lookups(
        env, service,
        [
            ("spanning", 0.0, ("k",), ["x"], fetch),
            ("next", 2.0, ("k",), ["x"], fetch),
            ("cached", 4.0, ("k",), ["x"], fetch),
        ],
    )
    assert out == {"spanning": {"x": "X"}, "next": {"x": "X"}, "cached": {"x": "X"}}
    assert calls == [["x"], ["x"]]
    assert env.metrics.total("test_hit") == 1


def test_push_drops_keys_ending_in_a_named_container_or_service(grid):
    env, services, fleet = grid
    service = services.scheduling
    service.enable_cache(1e9)
    fetch = _fetcher([])
    _lookups(
        env, service,
        [
            ("match", 0.0, ("match",), ["svcA", "svcB"], fetch),
            ("status", 0.0, ("status",), ["c1", "c2"], fetch),
            ("perf", 0.0, ("perf", "svcA"), ["c1", "c2"], fetch),
        ],
    )
    _push(service, version=1, container="c1", services=["svcA"])
    assert set(service._cache) == {
        ("match", "svcB"), ("status", "c2"), ("perf", "svcA", "c2"),
    }
    # A push naming neither a container nor services flushes everything.
    _push(service, version=2)
    assert not service._cache


def test_registration_during_match_fill_reaches_the_next_lookup():
    # A cold coordinator lookup for "ingest" starts at t=0.  A new
    # container is advertised after the broker answered the matchmaker's
    # find-containers and before the match reply lands: the spanning fill
    # answers without it, and the next lookup must see it.
    env, services, fleet = standard_environment(
        many_cases_services(), containers=2
    )
    coordinator = services.coordination
    coordinator.enable_cache(1e9, broker=services.brokerage)
    node = env.add_node(
        "node-new", "siteA", HardwareProfile(speed=8.0), slots=4,
        domain="siteA", cost_rate=1.0,
    )
    ApplicationContainer(
        env, "ac-new", node,
        services={svc.name: svc for svc in many_cases_services()},
    )
    out = {}

    def lookup(label):
        out[label] = yield from coordinator._candidates_for("ingest", None)

    def advertise():
        yield 0.003
        services.brokerage.advertise(
            ContainerAd("ac-new", "siteA", ["ingest"], 8.0, 0.003, node=node.name)
        )

    def uncached_match():
        reply = yield from coordinator.call(
            "matchmaking", "match", {"service": "ingest"}
        )
        out["match"] = [c["container"] for c in reply["candidates"]]

    env.engine.spawn(lookup("spanning"), "spanning")
    env.engine.spawn(advertise(), "advertise")
    env.run()
    assert out["spanning"] == ["ac2", "ac1"]  # the fill predates the ad
    env.engine.spawn(lookup("next"), "next")
    env.run()
    env.engine.spawn(uncached_match(), "match")
    env.run()
    assert out["next"] == out["match"] == ["ac-new", "ac2", "ac1"]
