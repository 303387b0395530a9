"""Metrics registry: per-agent / per-action counters and latency histograms.

The paper's monitoring service promises "accurate information about the
status of a resource"; beyond liveness, a production-grade fabric needs
*rates* and *latencies*.  The :class:`MetricsRegistry` is the bus's
observability sink: the router counts every send/delivery/drop, the agent
RPC layer times every round-trip, and services add domain counters — all
keyed by ``(metric name, agent, action)`` so the monitoring service can
serve per-service breakdowns over RPC.

Everything here is synchronous arithmetic on plain dicts: recording a
metric never schedules a simulation event, so instrumentation cannot
perturb message ordering.  Recording is always on, and it stays cheap
enough for that: a counter bump writes one dict entry, and the rare
aggregate reads (:meth:`MetricsRegistry.total`, behind the monitoring
service's ``status``/``census`` and the workload summaries) sum the
counter table when they are asked.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any

__all__ = ["LatencyHistogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Geometric bucket ladder, 100 µs .. 30 ks simulated seconds — wide enough
#: for loopback RPCs (sub-ms) and hour-long activity executions alike.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    coefficient * 10.0**exponent
    for exponent in range(-4, 5)
    for coefficient in (1.0, 3.0)
)


@dataclass
class LatencyHistogram:
    """Fixed-bucket histogram with sum/count/min/max accounting.

    ``buckets[i]`` counts observations ``<= bounds[i]``; one overflow
    bucket counts the rest (Prometheus-style cumulative semantics are
    derivable, we store per-bucket counts).
    """

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    buckets: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def __post_init__(self) -> None:
        if not self.buckets:
            self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value; past-the-end lands in the overflow bucket.
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound holding the q-quantile (0 < q <= 1), clamped
        to the observed ``[min, max]`` — a bucket's nominal upper bound can
        exceed every observation (e.g. a single 5.0 lands in the <=10.0
        bucket), and a quantile above the true maximum misleads."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.buckets):
            running += bucket
            if running >= target:
                if index < len(self.bounds):
                    return min(max(self.bounds[index], self.min), self.max)
                return self.max
        return self.max

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


#: A metric series key: (metric name, agent, action).
_Key = tuple[str, str, str]


class MetricsRegistry:
    """Counters and latency histograms for the message bus.

    Series are addressed by ``(name, agent, action)``; empty strings mean
    "unlabelled".  The registry is deliberately schema-free — services
    may add their own counters — but the bus itself maintains a standard
    vocabulary:

    ``messages_sent`` / ``messages_delivered`` / ``messages_dropped``
        routed by the :class:`~repro.bus.router.Router`, labelled with the
        sender (sent) or receiver (delivered/dropped) and the action;
    ``requests_handled``
        incremented when an agent dispatches a REQUEST/QUERY handler;
    ``rpc_ok`` / ``rpc_error`` / ``rpc_timeout`` / ``rpc_failover``
        the client-side RPC outcome counters, labelled with the callee;
    ``rpc_latency``
        round-trip histogram (request sent -> reply received), labelled
        with the callee and action.
    """

    def __init__(self) -> None:
        self._counters: dict[_Key, int] = {}
        self._histograms: dict[_Key, LatencyHistogram] = {}

    # -- recording ---------------------------------------------------------- #
    def inc(self, name: str, agent: str = "", action: str = "", amount: int = 1) -> None:
        key = (name, agent, action)
        self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, name: str, value: float, agent: str = "", action: str = "") -> None:
        key = (name, agent, action)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = LatencyHistogram()
        histogram.observe(value)

    # -- reading ------------------------------------------------------------ #
    def value(self, name: str, agent: str = "", action: str = "") -> int:
        return self._counters.get((name, agent, action), 0)

    def total(self, name: str, agent: str | None = None) -> int:
        """Sum of a counter across actions (and agents when None): one
        scan of the counter table, which holds 133 series after a
        500-case ``many_cases`` run (no series is per case, so the table
        does not grow with the population)."""
        return sum(
            count
            for (metric, who, _), count in self._counters.items()
            if metric == name and (agent is None or who == agent)
        )

    def histogram(
        self, name: str, agent: str = "", action: str = ""
    ) -> LatencyHistogram | None:
        return self._histograms.get((name, agent, action))

    def histograms(self, name: str) -> Iterator[tuple[str, str, LatencyHistogram]]:
        for (metric, agent, action), histogram in sorted(self._histograms.items()):
            if metric == name:
                yield agent, action, histogram

    def counters(self, name: str) -> Iterator[tuple[str, str, int]]:
        for (metric, agent, action), count in sorted(self._counters.items()):
            if metric == name:
                yield agent, action, count

    def dump(
        self, agent: str | None = None, name: str | None = None
    ) -> dict[str, Any]:
        """JSON-serializable snapshot, optionally filtered.

        Shape: ``{"counters": {name: {"agent|action": value}},
        "histograms": {name: {"agent|action": {...stats...}}}}`` with keys
        sorted for deterministic output.
        """

        def keep(metric: str, who: str) -> bool:
            if name is not None and metric != name:
                return False
            if agent is not None and who != agent:
                return False
            return True

        counters: dict[str, dict[str, int]] = {}
        for (metric, who, action), count in sorted(self._counters.items()):
            if keep(metric, who):
                counters.setdefault(metric, {})[f"{who}|{action}"] = count
        histograms: dict[str, dict[str, Any]] = {}
        for (metric, who, action), histogram in sorted(self._histograms.items()):
            if keep(metric, who):
                histograms.setdefault(metric, {})[f"{who}|{action}"] = (
                    histogram.as_dict()
                )
        return {"counters": counters, "histograms": histograms}

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
