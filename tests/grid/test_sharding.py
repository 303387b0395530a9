"""Consistent-hash case assignment for the process-split driver."""

import pytest

from repro.grid.sharding import ShardRing, stable_hash
from repro.workloads import shard_assignment

CASE_IDS = [f"case-{index}" for index in range(1000)]


class TestStableHash:
    def test_is_process_independent(self):
        # blake2b, not the salted builtin hash: the value is a constant.
        assert stable_hash("case-0") == stable_hash("case-0")
        assert stable_hash("case-0") != stable_hash("case-1")
        assert 0 <= stable_hash("anything") < 2**64

    def test_two_rings_agree(self):
        a = ShardRing(["s0", "s1", "s2"])
        b = ShardRing(["s0", "s1", "s2"])
        assert [a.owner(key) for key in CASE_IDS] == [
            b.owner(key) for key in CASE_IDS
        ]


class TestShardRing:
    def test_rejects_degenerate_construction(self):
        with pytest.raises(ValueError):
            ShardRing([])

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_uniform_spread_over_1k_cases(self, shards):
        counts = {
            label: len(indices)
            for label, indices in shard_assignment(len(CASE_IDS), shards).items()
        }
        assert sorted(counts) == sorted(f"s{k}" for k in range(shards))
        assert sum(counts.values()) == len(CASE_IDS)
        expected = len(CASE_IDS) / shards
        # 64 virtual nodes per shard keep every shard within 2x of fair.
        for shard, count in counts.items():
            assert count > expected / 2, (shard, counts)
            assert count < expected * 2, (shard, counts)
