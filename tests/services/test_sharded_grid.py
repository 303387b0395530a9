"""The sharded multi-coordinator grid: routing, partitions, replication."""

import pytest

from repro.ontology import builtin_shell
from repro.services import sharded_environment, standard_environment
from repro.services.brokerage import ContainerAd
from repro.workloads.many_cases import (
    many_cases_initial_data,
    many_cases_process,
    many_cases_services,
)

CASES = 6


def _enact(env, services, cases=CASES, rounds=2):
    process = many_cases_process(rounds)
    outcomes = [None] * cases

    def enact_case(index):
        reply = yield from services.coordination.call(
            "coordination",
            "execute-task",
            {
                "process": process,
                "initial_data": many_cases_initial_data(index),
                "task": f"case-{index}",
            },
        )
        outcomes[index] = reply

    for index in range(cases):
        env.engine.spawn(enact_case(index), name=f"user-{index}")
    env.run(max_events=2_000_000)
    return outcomes


class TestShardCount:
    @pytest.mark.parametrize("shards", [0, 1])
    def test_one_shard_grid_is_the_standard_environment(self, shards):
        with pytest.raises(ValueError, match="standard_environment"):
            sharded_environment(many_cases_services(), shards=shards)


class TestMultiShardEnactment:
    @pytest.fixture(scope="class")
    def run(self):
        grid = sharded_environment(many_cases_services(), shards=2, containers=3)
        outcomes = _enact(grid.env, grid.services)
        return grid, outcomes

    def test_all_cases_complete(self, run):
        _, outcomes = run
        assert all(o["status"] == "completed" for o in outcomes)

    def test_cases_land_on_their_ring_assigned_coordinator(self, run):
        grid, _ = run
        for index in range(CASES):
            case = f"case-{index}"
            owner_group = grid.group_for(case)
            carried = {r.task for r in owner_group.coordination.records}
            assert case in carried
            for group in grid.groups:
                if group is not owner_group:
                    assert case not in {
                        r.task for r in group.coordination.records
                    }

    def test_both_shards_carry_cases(self, run):
        grid, _ = run
        per_shard = [len(g.coordination.records) for g in grid.groups]
        assert sum(per_shard) == CASES
        assert all(count > 0 for count in per_shard)

    def test_bus_rewrote_logical_coordination_traffic(self, run):
        grid, _ = run
        assert grid.env.metrics.total("shard_routed") >= CASES

    def test_shard_label_reaches_case_spans(self):
        grid = sharded_environment(
            many_cases_services(), shards=2, containers=3, spans=True
        )
        _enact(grid.env, grid.services, cases=2)
        case_spans = grid.env.spans.spans(kind="case")
        assert case_spans
        labels = {s.attrs.get("shard") for s in case_spans}
        assert labels <= {"s0", "s1"} and None not in labels


class TestPartitionedRegistry:
    @pytest.fixture()
    def grid(self):
        return sharded_environment(many_cases_services(), shards=2, containers=2)

    def _find(self, grid, broker, service):
        reply = {}

        def probe():
            answer = yield from grid.services.information.call(
                broker.name, "find-containers", {"service": service}
            )
            reply.update(answer)

        grid.env.engine.spawn(probe(), name="probe")
        grid.env.run()
        return reply

    def _partition_for(self, grid, owned):
        """(owning broker, other broker) for a service, by ring owner."""
        owner = grid.ring.owner(owned)
        groups = {g.shard: g for g in grid.groups}
        other = next(label for label in groups if label != owner)
        return groups[owner].brokerage, groups[other].brokerage

    def test_ads_land_on_the_ring_owner_partition(self, grid):
        for service in ("ingest", "refine", "publish_full"):
            owner_broker, other_broker = self._partition_for(grid, service)
            assert owner_broker.containers_for(service)
            assert not other_broker.containers_for(service)

    def test_local_hit_answers_without_scatter(self, grid):
        service = "ingest"
        owner_broker, _ = self._partition_for(grid, service)
        reply = self._find(grid, owner_broker, service)
        assert reply["containers"] == ["ac1", "ac2"]
        metrics = grid.env.metrics
        assert metrics.total("broker_local_hit", agent=owner_broker.name) == 1
        assert metrics.total("broker_scatter") == 0

    def test_cross_shard_miss_scatters_to_the_owner(self, grid):
        service = "ingest"
        owner_broker, other_broker = self._partition_for(grid, service)
        reply = self._find(grid, other_broker, service)
        assert reply["containers"] == ["ac1", "ac2"]
        metrics = grid.env.metrics
        assert metrics.total("broker_scatter", agent=other_broker.name) == 1
        assert metrics.total("broker_scatter_hit", agent=other_broker.name) == 1

    def test_unknown_service_scatter_misses_everywhere(self, grid):
        broker = grid.groups[0].brokerage
        reply = self._find(grid, broker, "no-such-service")
        assert reply["containers"] == []
        assert grid.env.metrics.total("broker_scatter_miss", agent=broker.name) == 1


class TestOntologyReplication:
    def test_replicas_catch_up_on_join(self):
        grid = sharded_environment(many_cases_services(), shards=2)
        grid.env.run()
        primary = grid.services.ontology
        for group in grid.groups:
            assert group.ontology.version == primary.version
            assert group.ontology.names == primary.names

    def test_delta_push_keeps_replicas_coherent(self):
        grid = sharded_environment(many_cases_services(), shards=3)
        grid.env.run()
        primary = grid.services.ontology
        primary.add_ontology("virology", builtin_shell("virology"))
        grid.env.run()
        for group in grid.groups:
            assert group.ontology.version == primary.version
            assert "virology" in group.ontology.names

    def test_gap_triggers_catch_up(self):
        from repro.services.ontology_service import OntologyService

        grid = sharded_environment(many_cases_services(), shards=2)
        grid.env.run()
        primary = grid.services.ontology
        # A replica that subscribes mid-stream without the join catch-up:
        # its first delta arrives with a version gap.
        late = OntologyService(
            grid.env, "ontology@late", replica_of=primary.name
        )
        primary.subscribe_replica(late.name)
        primary.add_ontology("virology", builtin_shell("virology"))
        grid.env.run()
        assert grid.env.metrics.total("ontology_replica_gap", agent=late.name) == 1
        assert late.version == primary.version
        assert late.names == primary.names

    def test_replica_rejects_primary_api(self):
        from repro.errors import ServiceError

        grid = sharded_environment(many_cases_services(), shards=2)
        with pytest.raises(ServiceError):
            grid.services.ontology.start_replication()


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
