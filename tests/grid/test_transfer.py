"""Migration data transformations (Section 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GridError
from repro.grid.transfer import (
    COMPRESSION_RATIO,
    TransferSpec,
    execute_plan,
    plan_transfer,
)


class TestPlanning:
    def test_no_transformations_needed(self):
        plan = plan_transfer(TransferSpec(1e6), dest_byte_order="little")
        assert plan.steps == ()
        assert plan.wire_size == 1e6
        assert plan.delivered_spec == plan.source_spec

    def test_byteswap_between_unlike_architectures(self):
        plan = plan_transfer(
            TransferSpec(1e6, byte_order="big"), dest_byte_order="little"
        )
        assert [s.kind for s in plan.steps] == ["byteswap"]
        assert plan.delivered_spec.byte_order == "little"

    def test_compression_shrinks_wire(self):
        plan = plan_transfer(TransferSpec(1e6), compress_over_wan=True)
        assert [s.kind for s in plan.steps] == ["compress", "decompress"]
        assert plan.wire_size == pytest.approx(1e6 * COMPRESSION_RATIO)
        assert not plan.delivered_spec.compressed

    def test_encryption_symmetric(self):
        plan = plan_transfer(TransferSpec(1e6), encrypt_in_transit=True)
        assert [s.kind for s in plan.steps] == ["encrypt", "decrypt"]

    def test_full_pipeline_order(self):
        plan = plan_transfer(
            TransferSpec(1e6, byte_order="big"),
            dest_byte_order="little",
            encrypt_in_transit=True,
            compress_over_wan=True,
        )
        assert [s.kind for s in plan.steps] == [
            "compress", "encrypt", "decrypt", "decompress", "byteswap",
        ]

    def test_already_compressed_not_recompressed(self):
        plan = plan_transfer(
            TransferSpec(1e6, compressed=True), compress_over_wan=True
        )
        assert [s.kind for s in plan.steps] == ["decompress"]
        assert plan.wire_size == 1e6

    def test_opaque_delivery_skips_unpacking(self):
        plan = plan_transfer(
            TransferSpec(1e6, byte_order="big"),
            dest_byte_order="little",
            compress_over_wan=True,
            deliver_plain=False,
        )
        assert [s.kind for s in plan.steps] == ["compress"]
        assert plan.delivered_spec.compressed

    def test_invalid_byte_order(self):
        with pytest.raises(GridError):
            TransferSpec(1.0, byte_order="middle")
        with pytest.raises(GridError):
            plan_transfer(TransferSpec(1.0), dest_byte_order="pdp")


class TestExecution:
    def test_costs_split_by_side(self):
        plan = plan_transfer(
            TransferSpec(10e6),
            encrypt_in_transit=True,
            compress_over_wan=True,
        )
        wire, src, dst = execute_plan(plan, source_speed=2.0, dest_speed=1.0)
        assert wire == pytest.approx(4e6)
        # source: compress(0.2) + encrypt(0.4) per 10 MB, at speed 2
        assert src == pytest.approx((0.2 + 0.4) * 10 / 2.0)
        # destination sees 4 MB: decrypt(0.4) + decompress(0.1)
        assert dst == pytest.approx((0.4 + 0.1) * 4 / 1.0)

    def test_zero_steps_zero_cost(self):
        plan = plan_transfer(TransferSpec(1e6))
        assert execute_plan(plan) == (1e6, 0.0, 0.0)

    def test_invalid_speed(self):
        plan = plan_transfer(TransferSpec(1e6))
        with pytest.raises(GridError):
            execute_plan(plan, source_speed=0.0)

    def test_compression_tradeoff_shape(self):
        """Compressing pays on slow links, costs on fast ones."""
        size = 100e6
        plain = plan_transfer(TransferSpec(size))
        packed = plan_transfer(TransferSpec(size), compress_over_wan=True)

        def total_time(plan, bandwidth):
            wire, src, dst = execute_plan(plan)
            return src + wire / bandwidth + dst

        slow, fast = 1e6, 10e9
        assert total_time(packed, slow) < total_time(plain, slow)
        assert total_time(packed, fast) > total_time(plain, fast)


@given(
    size=st.floats(0, 1e9),
    src_order=st.sampled_from(["little", "big"]),
    dst_order=st.sampled_from(["little", "big"]),
    compress=st.booleans(),
    encrypt=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_plain_delivery_always_native(size, src_order, dst_order, compress, encrypt):
    plan = plan_transfer(
        TransferSpec(size, byte_order=src_order),
        dest_byte_order=dst_order,
        compress_over_wan=compress,
        encrypt_in_transit=encrypt,
        deliver_plain=True,
    )
    delivered = plan.delivered_spec
    assert not delivered.compressed
    assert not delivered.encrypted
    assert delivered.byte_order == dst_order
    assert plan.wire_size <= max(size, 1e-12) or size == 0


class TestContainerIntegration:
    def test_foreign_payload_costs_conversion_time(self):
        from repro.grid import (
            Agent,
            ApplicationContainer,
            EndUserService,
            GridEnvironment,
            HardwareProfile,
        )
        from repro.errors import ServiceError

        env = GridEnvironment()

        class Storage(Agent):
            def __init__(self, env):
                super().__init__(env, env.storage_name, "core")
                self.meta = {
                    "blob": {"format": {"size": 50e6, "byte_order": "big"}}
                }
                self.objects = {"blob": b"..."}

            def handle_retrieve(self, message):
                key = message.content["key"]
                return {"payload": self.objects[key], "meta": self.meta.get(key, {})}

            def handle_store(self, message):
                self.objects[message.content["key"]] = message.content["payload"]
                return {}

        Storage(env)
        node = env.add_node(
            "n1", "siteA", HardwareProfile(speed=1.0, byte_order="little")
        )
        ac = ApplicationContainer(env, "ac1", node)
        ac.host(EndUserService("S", work=1.0, effects={"OUT": {"ok": True}},
                               inputs=("data",), outputs=("OUT",)))
        user = Agent(env, "user", "u")
        out = {}

        def main():
            out["r"] = yield from user.call(
                "ac1",
                "execute-activity",
                {"service": "S", "inputs": {"D": {}},
                 "payload_keys": {"D": "blob"},
                 "input_order": ["D"], "output_order": ["OUT"]},
            )

        env.engine.spawn(main(), "m")
        env.run(max_events=10_000)
        # byteswap on 50 MB at 0.1 work/MB = 5 s on a speed-1 node
        assert env.engine.now >= 5.0
        assert env.metrics.value("transfer_steps", "ac1", "byteswap") == 1
        assert env.metrics.total("transfer_steps") == 1
