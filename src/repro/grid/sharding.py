"""Consistent-hash sharding: the case-routing seam for replicated services.

The paper's architecture runs one coordination agent, one broker and one
matchmaker for the whole grid.  Scaling past the Figure-10 demos means
replicating those services and partitioning the work across the replicas
— the decentralized-scheduling shape of Yu & Buyya's taxonomy.  Two small,
pure pieces make that possible without touching delivery semantics:

* :class:`ShardRing` — a consistent-hash ring (virtual nodes, stable
  byte-hash, no interpreter salt) that maps any string key to one of N
  shard labels.  Case ids hash to coordination shards; end-user service
  names hash to broker/matchmaker partitions.  Adding or removing a shard
  moves only the keys that land on the new/removed shard (bounded key
  movement), so a scale-out event invalidates a bounded slice of every
  cache and registry instead of all of them.
* :class:`ShardRouter` — the bus-level resolver the environment's
  :class:`~repro.bus.router.Router` consults per routed message: traffic
  addressed to a *logical* service name (``coordination``) is rewritten to
  the owning shard's agent (``coordination@s2``) keyed by the case id in
  the message content.  Replies are untouched (they address concrete
  agents).  Only grids of two or more shards install one; the one-shard
  grid routes with no resolver at all.

Both classes are deterministic and engine-free: hashing uses
:func:`hashlib.blake2b` (never the salted builtin ``hash``), and the ring
walk is a ``bisect`` over a sorted point list.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.messages import Message

__all__ = ["ShardRing", "ShardRouter", "stable_hash"]

#: Virtual nodes per shard: enough for an even spread at single-digit
#: shard counts without making ring rebuilds noticeable.
DEFAULT_REPLICAS = 64


def stable_hash(key: str) -> int:
    """A 64-bit hash of *key* that is identical across interpreter runs
    (the builtin ``hash`` is salted per process and banned here)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash ring over a set of shard labels.

    ``owner(key)`` walks clockwise from the key's hash to the next virtual
    node and returns that node's shard.  With *replicas* virtual nodes per
    shard the key population spreads near-uniformly, and membership
    changes move only the keys whose arc gained or lost its owner.
    """

    def __init__(
        self,
        shards: Sequence[str],
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if not shards:
            raise ValueError("ShardRing needs at least one shard")
        if replicas < 1:
            raise ValueError("ShardRing needs at least one virtual node")
        self.replicas = replicas
        self._shards: list[str] = []
        #: Sorted (point, shard) pairs — the ring itself.
        self._ring: list[tuple[int, str]] = []
        self._points: list[int] = []
        for shard in shards:
            self.add(shard)

    # -- membership -------------------------------------------------------- #
    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(self._shards)

    def _vnodes(self, shard: str) -> list[tuple[int, str]]:
        return [
            (stable_hash(f"{shard}#{index}"), shard)
            for index in range(self.replicas)
        ]

    def add(self, shard: str) -> None:
        """Join *shard*; only keys on the new shard's arcs move."""
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.append(shard)
        for pair in self._vnodes(shard):
            insort(self._ring, pair)
        self._points = [point for point, _ in self._ring]

    def remove(self, shard: str) -> None:
        """Leave *shard*; only its keys move (to their next neighbours)."""
        if shard not in self._shards:
            raise ValueError(f"shard {shard!r} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.remove(shard)
        self._ring = [pair for pair in self._ring if pair[1] != shard]
        self._points = [point for point, _ in self._ring]

    # -- lookup ------------------------------------------------------------ #
    def owner(self, key: str) -> str:
        """The shard owning *key* (first virtual node clockwise)."""
        index = bisect_right(self._points, stable_hash(key))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """Key count per shard (uniformity checks and docs tables)."""
        counts = dict.fromkeys(self._shards, 0)
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self._shards)

    def __repr__(self) -> str:
        return f"ShardRing({list(self._shards)!r}, replicas={self.replicas})"


class ShardRouter:
    """Rewrites logical service names to shard agents at the bus.

    *targets* maps a logical receiver name to ``{shard label: agent
    name}``; the shard is chosen by hashing the message's case key on
    *ring*.  The case key is, in order of preference, the ``case`` or
    ``task`` entry of the message content, falling back to the
    conversation id — so ``execute-task`` / ``task-status`` traffic for
    one case always lands on the same coordination shard, and keyless
    traffic still routes deterministically.

    Installed on :class:`~repro.bus.router.Router` via its ``sharding``
    attribute; the router consults :meth:`resolve` once per routed
    message, after identity assignment and before delivery lookup.
    """

    #: Content fields tried, in order, for the routing key of a logical
    #: name with no explicit override.
    DEFAULT_KEY_FIELDS = ("case", "task")

    def __init__(
        self,
        ring: ShardRing,
        targets: dict[str, dict[str, str]],
        keys: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        self.ring = ring
        self.targets = targets
        #: Per-logical-name override of the content fields keyed on (e.g.
        #: a registry partition routes by ``("service",)``).
        self.keys = dict(keys or {})

    def case_key(self, message: "Message") -> str:
        content = message.content
        for field in self.keys.get(message.receiver, self.DEFAULT_KEY_FIELDS):
            key = content.get(field)
            if key is not None:
                return str(key)
        return str(message.conversation or "")

    def resolve(self, message: "Message") -> str | None:
        """The concrete shard agent for *message*, or None when its
        receiver is not a sharded logical name."""
        shard_map = self.targets.get(message.receiver)
        if shard_map is None:
            return None
        return shard_map[self.ring.owner(self.case_key(message))]
