"""Partitioned registry services for the sharded grid.

Each shard group (see :func:`repro.services.bootstrap.sharded_environment`)
owns the key-range of the end-user service registry that the grid's
:class:`~repro.grid.sharding.ShardRing` assigns to it: container
advertisements are split per service and placed on the owning partition,
so a shard's matchmaker answers the overwhelmingly common lookups — the
services its own coordinator dispatches — from its local partition without
crossing shards.

A local **miss** (the partition does not know the service, e.g. after ring
membership changed or when a coordinator dispatches a service owned
elsewhere) falls back to a cross-shard query: the ring owner's partition
is asked first, and if it comes back empty the query scatters across the
remaining partitions and merges their answers.  The hit/miss metrics
(``broker_local_hit`` / ``broker_scatter`` / ``broker_scatter_hit`` /
``broker_scatter_miss``) make the fallback rate observable per shard.

The layering follows renku-python's service architecture: thin controllers
(the message handlers) over per-partition cache gateways (the inherited
ad/performance state), with cross-partition traffic as explicit RPCs.
Partitions exist only in grids of two or more shards; the one-shard grid
(:func:`~repro.services.bootstrap.standard_environment`) runs the plain
:class:`~repro.services.brokerage.BrokerageService`.
"""

from __future__ import annotations

from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message
from repro.grid.sharding import ShardRing
from repro.services.brokerage import BrokerageService

__all__ = ["PartitionedBrokerageService"]


class PartitionedBrokerageService(BrokerageService):
    """A brokerage partition: one shard's slice of the service registry.

    *ring* and *shard* give the partition its identity on the consistent-
    hash ring; :meth:`set_peers` (called by the bootstrap once every
    partition exists) wires the scatter fallback.
    """

    def __init__(
        self,
        env: GridEnvironment,
        name: str,
        ring: ShardRing,
        shard: str,
        site: str = "core",
    ) -> None:
        super().__init__(env, name, site)
        self.ring = ring
        self.shard = shard
        #: shard label -> peer partition agent name (never includes self).
        self._peers: dict[str, str] = {}

    def set_peers(self, peers: dict[str, str]) -> None:
        """Install the other partitions (shard label -> agent name)."""
        self._peers = {
            shard: agent for shard, agent in peers.items() if agent != self.name
        }

    # -- message API ------------------------------------------------------------ #
    def handle_find_containers(self, message: Message):
        """Containers for a service: local partition first, cross-shard
        scatter on miss (ring owner queried before the remainder)."""
        service = message.content["service"]
        local = self.containers_for(service)
        if local:
            self.metrics.inc("broker_local_hit", agent=self.name)
            return {"service": service, "containers": local}
        self.metrics.inc("broker_scatter", agent=self.name, action=service)
        owner = self.ring.owner(service)
        ordered = sorted(
            self._peers.items(), key=lambda item: (item[0] != owner, item[0])
        )
        merged: set[str] = set()
        for shard, peer in ordered:
            reply = yield from self.call(
                peer, "find-containers-local", {"service": service}
            )
            merged.update(reply["containers"])
            if merged and shard == owner:
                # The authoritative partition answered; the rest of the
                # scatter cannot add providers it does not know about.
                break
        self.metrics.inc(
            "broker_scatter_hit" if merged else "broker_scatter_miss",
            agent=self.name,
        )
        return {"service": service, "containers": sorted(merged)}

    def handle_find_containers_local(self, message: Message):
        """Partition-local lookup — the scatter's leaf query (never
        recurses into another scatter)."""
        service = message.content["service"]
        return {"service": service, "containers": self.containers_for(service)}
