"""Brokerage: advertisements, performance DB, equivalence classes."""

from repro.grid.messages import Message, Performative
from repro.services import standard_environment
from repro.services.brokerage import ContainerAd
from repro.workloads.many_cases import many_cases_services
from tests.services.conftest import drive


def test_find_containers(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env, user, lambda: user.call("brokerage", "find-containers", {"service": "POD"})
    )
    assert result["containers"] == ["ac1", "ac2", "ac3"]


def test_find_unknown_service_empty(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env, user, lambda: user.call("brokerage", "find-containers", {"service": "X"})
    )
    assert result["containers"] == []


def test_readvertise_replaces(grid):
    env, services, fleet = grid
    from repro.services import ContainerAd

    services.brokerage.advertise(
        ContainerAd("ac1", "siteA", ["ONLY"], 1.0, 0.0)
    )
    assert services.brokerage.containers_for("POD") == ["ac2", "ac3"]
    assert services.brokerage.containers_for("ONLY") == ["ac1"]


def test_performance_db(grid):
    env, services, fleet = grid
    user = services.coordination
    # Performance reports are one-way INFORMs: the broker books them in
    # its serve loop and sends nothing back.
    for duration, success in ((5.0, True), (7.0, True), (0.0, False)):
        user.send(
            Message(
                sender=user.name,
                receiver="brokerage",
                performative=Performative.INFORM,
                action="record-performance",
                content={
                    "service": "POD", "container": "ac1",
                    "duration": duration, "success": success,
                },
            )
        )
    result = drive(
        env,
        user,
        lambda: user.call(
            "brokerage", "performance", {"service": "POD", "containers": ["ac1"]}
        ),
    )
    assert result["service"] == "POD"
    row = result["containers"]["ac1"]
    assert row["runs"] == 3
    assert row["success_rate"] == (2 / 3)
    assert row["mean_duration"] == 6.0
    assert not [
        event for event in env.trace.events()
        if event.message.sender == "brokerage"
        and event.message.action == "record-performance"
    ]


def test_performance_unknown_pair_optimistic(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "brokerage", "performance", {"service": "X", "containers": ["Y"]}
        ),
    )
    assert result["containers"] == {
        "Y": {"runs": 0, "success_rate": 1.0, "mean_duration": 0.0}
    }


def test_equivalence_classes_by_speed(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env,
        user,
        lambda: user.call(
            "brokerage", "equivalence-classes", {"key_paths": ["Hardware/Speed"]}
        ),
    )
    # standard_environment speeds cycle (1.0, 2.0, 4.0) over 3 nodes.
    assert len(result["classes"]) == 3
    all_nodes = sorted(
        name for group in result["classes"] for name in group["resources"]
    )
    assert all_nodes == ["node1", "node2", "node3"]


def test_container_info(grid):
    env, services, fleet = grid
    user = services.coordination
    result = drive(
        env, user, lambda: user.call("brokerage", "container-info", {"container": "ac2"})
    )
    assert result["known"] is True
    assert result["site"] == "siteB"
    assert "POD" in result["services"]
    missing = drive(
        env, user, lambda: user.call("brokerage", "container-info", {"container": "zz"})
    )
    assert missing["known"] is False


class TestRegistryPushDedupe:
    def _subscribed_grid(self):
        env, services, fleet = standard_environment(
            many_cases_services(), containers=1
        )
        broker = services.brokerage
        broker.subscribe_registry(services.matchmaking.name)
        env.run()  # drain bootstrap traffic
        return env, broker

    def _ad(self, services, advertised_at):
        return ContainerAd(
            container="ac1",
            site="siteA",
            services=list(services),
            speed=1.0,
            advertised_at=advertised_at,
            node="node1",
        )

    def test_same_tick_repeat_push_is_deduped(self):
        env, broker = self._subscribed_grid()
        sent_before = env.metrics.total("messages_sent", agent=broker.name)
        # One container registering several services in one tick: the
        # repeat advertisements are strict no-ops for every subscriber.
        broker.advertise(self._ad(["ingest"], 0.0))
        broker.advertise(self._ad(["ingest"], 0.0))
        broker.advertise(self._ad(["ingest", "refine"], 0.0))
        env.run()
        assert env.metrics.total("registry_push_deduped", agent=broker.name) == 2
        sent = env.metrics.total("messages_sent", agent=broker.name) - sent_before
        assert sent == 1

    def test_new_services_same_tick_still_push(self):
        env, broker = self._subscribed_grid()
        sent_before = env.metrics.total("messages_sent", agent=broker.name)
        broker.advertise(self._ad(["ingest"], 0.0))
        # A service nobody announced this tick must still go out.
        broker.advertise(self._ad(["ingest", "extra-svc"], 0.0))
        env.run()
        assert env.metrics.total("registry_push_deduped", agent=broker.name) == 0
        sent = env.metrics.total("messages_sent", agent=broker.name) - sent_before
        assert sent == 2

    def test_next_tick_pushes_again(self):
        env, broker = self._subscribed_grid()
        broker.advertise(self._ad(["ingest"], 0.0))
        env.run()

        def later():
            yield 5.0
            broker.advertise(self._ad(["ingest"], env.engine.now))

        env.engine.spawn(later(), name="late-advertiser")
        env.run()
        assert env.metrics.total("registry_push_deduped", agent=broker.name) == 0

    def test_version_still_bumps_when_deduped(self):
        env, broker = self._subscribed_grid()
        version = broker.registry_version
        broker.advertise(self._ad(["ingest"], 0.0))
        broker.advertise(self._ad(["ingest"], 0.0))
        assert broker.registry_version == version + 2
