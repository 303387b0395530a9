"""The message bus: routing, causal tracing, metrics.

This package is the messaging fabric of the agent substrate — the piece
the Figure-1 architecture "lives or dies on".  It factors the message
path out of :class:`~repro.grid.environment.GridEnvironment` and
:class:`~repro.grid.agent.Agent` into three orthogonal parts (the RPC
helpers themselves, ``Agent.call`` with its optional timeout and
``Agent.call_any`` failover, live on the agent):

* :class:`Router` — delivery over the network model, per-environment
  identity (conversation/message/trace ids), drop/failure-oracle hooks;
* :class:`MessageTrace` / :class:`TraceEvent` / :class:`TraceNode` —
  bounded causal tracing; any protocol exchange reconstructs as a tree;
* :class:`MetricsRegistry` / :class:`LatencyHistogram` — per-agent /
  per-action counters and latency histograms, served over RPC by the
  monitoring service.
"""

from repro.bus.metrics import DEFAULT_BUCKETS, LatencyHistogram, MetricsRegistry
from repro.bus.router import Router
from repro.bus.tracing import (
    DEFAULT_TRACE_CAPACITY,
    MessageTrace,
    TraceEvent,
    TraceNode,
    format_tree,
)

__all__ = [
    "Router",
    "MessageTrace",
    "TraceEvent",
    "TraceNode",
    "format_tree",
    "DEFAULT_TRACE_CAPACITY",
    "MetricsRegistry",
    "LatencyHistogram",
    "DEFAULT_BUCKETS",
]
