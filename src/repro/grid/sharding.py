"""Consistent-hash case assignment for the process-split driver.

``run_many_cases(shards=N)`` enacts a case population on N standard grids
in N processes (the decentralized-scheduling shape of Yu & Buyya's
taxonomy); :class:`ShardRing` decides which shard enacts which case.  It
is a consistent-hash ring (virtual nodes, stable byte-hash, no
interpreter salt) that maps a case id to one of N shard labels, so the
mapping depends only on the case id and the shard count.

Hashing uses :func:`hashlib.blake2b` (never the salted builtin ``hash``),
and the ring walk is a ``bisect`` over a sorted point list.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence

__all__ = ["ShardRing", "stable_hash"]

#: Virtual nodes per shard: enough for an even spread at single-digit
#: shard counts.
VIRTUAL_NODES = 64


def stable_hash(key: str) -> int:
    """A 64-bit hash of *key* that is identical across interpreter runs
    (the builtin ``hash`` is salted per process and banned here)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash ring over a fixed set of shard labels.

    ``owner(key)`` walks clockwise from the key's hash to the next virtual
    node and returns that node's shard.  With :data:`VIRTUAL_NODES`
    virtual nodes per shard the key population spreads near-uniformly.
    """

    def __init__(self, shards: Sequence[str]) -> None:
        if not shards:
            raise ValueError("ShardRing needs at least one shard")
        self.shards = tuple(shards)
        #: Sorted (point, shard) pairs — the ring itself.
        self._ring = sorted(
            (stable_hash(f"{shard}#{index}"), shard)
            for shard in self.shards
            for index in range(VIRTUAL_NODES)
        )
        self._points = [point for point, _ in self._ring]

    def owner(self, key: str) -> str:
        """The shard owning *key* (first virtual node clockwise)."""
        index = bisect_right(self._points, stable_hash(key))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]
