"""The grid environment: agents, nodes, wiring helpers.

:class:`GridEnvironment` owns the simulation engine, the network model and
the agent registry; the message path itself — delivery, conversation /
trace identity, drop injection, metrics — lives in the environment's
:class:`~repro.bus.router.Router`, so any experiment gets a faithful,
deterministic, *observable* message fabric for free.

The environment is substrate only; the Figure-1 core services live in
:mod:`repro.services` and are attached by
:func:`repro.services.bootstrap.build_core_services` (or the one-call
:func:`repro.services.bootstrap.standard_environment`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.bus.metrics import MetricsRegistry
from repro.bus.router import Router
from repro.bus.tracing import MessageTrace
from repro.errors import GridError
from repro.grid.agent import Agent
from repro.grid.messages import Message
from repro.grid.network import LinkProfile, Network
from repro.grid.node import GridNode, HardwareProfile
from repro.obs.gauges import GaugeSampler
from repro.obs.journal import CaseJournal
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Engine

__all__ = ["GridEnvironment"]


class GridEnvironment:
    """Container for one simulated grid."""

    #: Name the persistent-storage service registers under; containers use
    #: it for payload traffic.
    storage_name = "storage"

    def __init__(
        self,
        trace_capacity: int | None = None,
        tracing: bool = True,
        spans: bool = False,
        journal: bool | str = False,
    ) -> None:
        self.engine = Engine()
        self.network = Network()
        self._agents: dict[str, Agent] = {}
        self._nodes: dict[str, GridNode] = {}
        # Span recording is default-off: every instrumented layer guards
        # on ``spans.enabled``, so the default configuration's event
        # stream and protocol traces are byte-identical to an
        # uninstrumented build (recording itself never schedules events).
        # The case flight recorder is filed from span boundaries, so
        # enabling it enables spans: journal="record" records in memory
        # only, journal=True additionally mirrors each completed case
        # into the storage service as a JSONL blob.
        self.spans = SpanRecorder(self.engine, enabled=spans or bool(journal))
        self.journal = CaseJournal(
            self.engine,
            enabled=bool(journal),
            mirror=journal is True or journal == "mirror",
        )
        self.spans.journal = self.journal
        #: The attached gauge sampler (None until :meth:`attach_gauges`).
        self.gauges: GaugeSampler | None = None
        trace = (
            MessageTrace(capacity=trace_capacity)
            if trace_capacity is not None
            else MessageTrace()
        )
        # tracing=False keeps id streams identical but skips per-message
        # TraceEvent recording — the throughput configuration.
        self.router = Router(
            self.engine,
            self.network,
            agents=self._agents,
            trace=trace,
            record_trace=tracing,
        )

    # -- bus views --------------------------------------------------------------- #
    @property
    def trace(self) -> MessageTrace:
        """The router's bounded delivery trace (Figure-2/3 assertions)."""
        return self.router.trace

    @property
    def metrics(self) -> MetricsRegistry:
        return self.router.metrics

    @property
    def dropped(self) -> deque[Message]:
        """The newest messages the fabric lost (unknown receiver, crashed
        agent, or the drop oracle), bounded like the trace; the exact
        count is the registry's ``messages_dropped`` total.  The sender's
        timeout policy handles each loss."""
        return self.router.dropped

    # -- agents ---------------------------------------------------------------- #
    def _register_agent(self, agent: Agent) -> None:
        if agent.name in self._agents:
            raise GridError(f"duplicate agent name {agent.name!r}")
        self._agents[agent.name] = agent
        self.network.add_site(agent.site)

    def agent(self, name: str) -> Agent:
        try:
            return self._agents[name]
        except KeyError:
            raise GridError(f"unknown agent {name!r}") from None

    def has_agent(self, name: str) -> bool:
        return name in self._agents

    @property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._agents))

    def agents(self) -> Iterator[Agent]:
        return iter(self._agents.values())

    # -- nodes ------------------------------------------------------------------ #
    def add_node(
        self,
        name: str,
        site: str,
        hardware: HardwareProfile | None = None,
        slots: int = 4,
        domain: str = "default",
        cost_rate: float = 1.0,
    ) -> GridNode:
        if name in self._nodes:
            raise GridError(f"duplicate node name {name!r}")
        node = GridNode(self.engine, name, site, hardware, slots, domain, cost_rate)
        self._nodes[name] = node
        self.network.add_site(site)
        return node

    def node(self, name: str) -> GridNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GridError(f"unknown node {name!r}") from None

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    # -- routing ----------------------------------------------------------------- #
    def route(self, message: Message, cause: Message | None = None) -> None:
        """Hand *message* to the router (see :meth:`Router.route`)."""
        self.router.route(message, cause=cause)

    # -- observability ------------------------------------------------------------ #
    def attach_gauges(self, period: float = 1.0) -> GaugeSampler:
        """Start periodic sim-time gauge sampling (opt-in; see
        :class:`~repro.obs.gauges.GaugeSampler`).  Idempotent: a second
        call resumes the existing sampler."""
        if self.gauges is None:
            self.gauges = GaugeSampler(self, period=period)
        self.gauges.start()
        return self.gauges

    # -- running ------------------------------------------------------------------ #
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Advance the simulation (delegates to the engine)."""
        return self.engine.run(until=until, max_events=max_events)

    def connect_sites(self, a: str, b: str, latency: float, bandwidth: float) -> None:
        self.network.connect(a, b, LinkProfile(latency, bandwidth))
