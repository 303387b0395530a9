"""Data transformations for task migration (Section 1).

"Task migration is likely to be more difficult in this environment.
Additional data transformations may be necessary before and/or after
migrating a task.  Transformation[s] such as data compression /
decompression, encryption / decryption and byte swapping are likely to be
necessary."

This module models exactly those three families:

* :func:`plan_transfer` — given a payload's :class:`TransferSpec` (size,
  byte order, flags) and the destination's requirements, produce the
  ordered list of :class:`Transformation` steps with their CPU work and
  size effects;
* :func:`execute_plan` — fold the plan into (bytes over the wire,
  sender CPU seconds, receiver CPU seconds) for given node speeds.

The cost model is deliberately simple and fully documented: each
transformation charges ``work_per_mb`` CPU work per (input) megabyte;
compression scales the wire size by ``COMPRESSION_RATIO``.  The shape the
experiments care about: compressing pays off on slow links and costs on
fast ones, byte swapping only appears between unlike architectures, and
encryption adds symmetric cost on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import GridError

__all__ = [
    "TransferSpec",
    "Transformation",
    "TransferPlan",
    "plan_transfer",
    "execute_plan",
    "COMPRESSION_RATIO",
]

#: Wire-size multiplier achieved by compression (scientific data: ~2.5x).
COMPRESSION_RATIO = 0.4

_BYTE_ORDERS = ("little", "big")

#: CPU work units per megabyte for each transformation kind (roughly:
#: a speed-1 node compresses at 5 MB/s, swaps bytes at 10 MB/s).
_WORK_PER_MB = {
    "compress": 0.20,
    "decompress": 0.10,
    "encrypt": 0.40,
    "decrypt": 0.40,
    "byteswap": 0.10,
}


@dataclass(frozen=True)
class TransferSpec:
    """A payload as it sits at its source."""

    size: float  # bytes
    byte_order: str = "little"
    compressed: bool = False
    encrypted: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise GridError(f"negative payload size {self.size}")
        if self.byte_order not in _BYTE_ORDERS:
            raise GridError(f"unknown byte order {self.byte_order!r}")


@dataclass(frozen=True)
class Transformation:
    """One step: where it runs and what it does."""

    kind: str  # compress | decompress | encrypt | decrypt | byteswap
    side: str  # "source" | "destination"

    @property
    def work_per_mb(self) -> float:
        return _WORK_PER_MB[self.kind]


@dataclass(frozen=True)
class TransferPlan:
    """An ordered transformation pipeline plus the resulting wire size."""

    steps: tuple[Transformation, ...]
    wire_size: float
    source_spec: TransferSpec
    delivered_spec: TransferSpec

    def work_on(self, side: str) -> float:
        """Total CPU work units charged on *side*."""
        mb = self.source_spec.size / 1e6
        wire_mb = self.wire_size / 1e6
        total = 0.0
        for step in self.steps:
            if step.side != side:
                continue
            # Source-side steps see the raw size; destination-side steps
            # see what came over the wire.
            reference = mb if side == "source" else wire_mb
            total += step.work_per_mb * reference
        return total


def plan_transfer(
    spec: TransferSpec,
    dest_byte_order: str = "little",
    encrypt_in_transit: bool = False,
    compress_over_wan: bool = False,
    deliver_plain: bool = True,
) -> TransferPlan:
    """Decide which transformations a migration needs.

    * ``compress_over_wan`` — compress at the source (unless already
      compressed) to shrink the wire size; the destination decompresses
      when *deliver_plain*.
    * ``encrypt_in_transit`` — encrypt at the source, decrypt at the
      destination when *deliver_plain* (non-cooperative environments,
      Section 1).
    * byte swapping happens at the destination when architectures differ
      — but only for *plain* delivery, since compressed/encrypted blobs
      are order-agnostic until unpacked.
    """
    if dest_byte_order not in _BYTE_ORDERS:
        raise GridError(f"unknown byte order {dest_byte_order!r}")
    steps: list[Transformation] = []
    current = spec
    wire_size = spec.size

    if compress_over_wan and not current.compressed:
        steps.append(Transformation("compress", "source"))
        current = replace(current, compressed=True)
        wire_size = spec.size * COMPRESSION_RATIO

    if encrypt_in_transit and not current.encrypted:
        steps.append(Transformation("encrypt", "source"))
        current = replace(current, encrypted=True)

    if deliver_plain:
        if current.encrypted:
            steps.append(Transformation("decrypt", "destination"))
            current = replace(current, encrypted=False)
        if current.compressed:
            steps.append(Transformation("decompress", "destination"))
            current = replace(current, compressed=False)
        if current.byte_order != dest_byte_order:
            steps.append(Transformation("byteswap", "destination"))
            current = replace(current, byte_order=dest_byte_order)

    return TransferPlan(
        steps=tuple(steps),
        wire_size=wire_size,
        source_spec=spec,
        delivered_spec=current,
    )


def execute_plan(
    plan: TransferPlan,
    source_speed: float = 1.0,
    dest_speed: float = 1.0,
    metrics: "MetricsRegistry | None" = None,
    component: str = "transfer",
) -> tuple[float, float, float]:
    """(wire bytes, source CPU seconds, destination CPU seconds).

    With a *metrics* registry (the bus's
    :class:`~repro.bus.metrics.MetricsRegistry`), the execution is also
    recorded: wire bytes and per-side CPU seconds as histograms labelled
    with *component*, plus a counter per transformation kind — so
    migration costs show up in the same observability plane as RPC
    latencies.  (A container's migrate ``transfer`` span carries the
    steps and wire bytes; the case journal files it from there.)
    """
    if source_speed <= 0 or dest_speed <= 0:
        raise GridError("node speeds must be positive")
    source_seconds = plan.work_on("source") / source_speed
    dest_seconds = plan.work_on("destination") / dest_speed
    if metrics is not None:
        metrics.inc("transfer_plans", agent=component)
        metrics.observe("transfer_wire_bytes", plan.wire_size, agent=component)
        if source_seconds > 0:
            metrics.observe(
                "transfer_cpu_seconds", source_seconds, agent=component, action="source"
            )
        if dest_seconds > 0:
            metrics.observe(
                "transfer_cpu_seconds", dest_seconds, agent=component, action="destination"
            )
        for step in plan.steps:
            metrics.inc("transfer_steps", agent=component, action=step.kind)
    return (plan.wire_size, source_seconds, dest_seconds)
