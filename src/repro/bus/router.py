"""The message router: delivery, identity, causality, drop injection.

The router owns everything that used to be welded into
``GridEnvironment.route`` plus the identity state that used to leak
through module globals:

* **Delivery** — each routed message is scheduled after the network model's
  delay and lands in the receiver's mailbox, recording a
  :class:`~repro.bus.tracing.TraceEvent` at delivery time.  Messages to
  unknown or crashed agents are dropped (the sender's RPC timeout
  handles it), exactly as before.
* **Identity** — conversation ids, message ids and trace ids are counters
  *per router*, so two environments in one process produce independent,
  reproducible id streams (the old module-global conversation counter
  broke test isolation).
* **Causality** — ``route(message, cause=...)`` links the message to the
  message whose handler produced it: same ``trace_id``, ``parent_id`` =
  the cause's ``message_id``.  Root messages open a fresh trace.
* **Failure injection** — an optional *drop oracle* (any callable
  ``Message -> bool``; :meth:`Router.bernoulli_oracle` adapts a
  :class:`~repro.sim.failures.BernoulliFailures` model) makes the fabric
  itself lossy, which is what recovery experiments need to exercise
  timeout/retry/failover paths without crashing whole agents.

Metrics for every send, delivery and drop go to the router's
:class:`~repro.bus.metrics.MetricsRegistry`, whatever the trace records:
they are the exact message accounting in every configuration.  All
accounting is synchronous: the router schedules exactly one engine event
per routed message, so migrating onto it preserves event ordering
byte-for-byte.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.bus.metrics import MetricsRegistry
from repro.bus.tracing import MessageTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.agent import Agent
    from repro.grid.messages import Message
    from repro.grid.network import Network
    from repro.sim.engine import Engine
    from repro.sim.failures import BernoulliFailures

__all__ = ["Router"]

#: A drop oracle decides, per routed message, whether the fabric loses it.
DropOracle = Callable[["Message"], bool]


class Router:
    """Owns the message path of one environment."""

    def __init__(
        self,
        engine: "Engine",
        network: "Network",
        agents: dict[str, "Agent"] | None = None,
        trace: MessageTrace | None = None,
        metrics: MetricsRegistry | None = None,
        drop_oracle: DropOracle | None = None,
        record_trace: bool = True,
    ) -> None:
        self.engine = engine
        self.network = network
        #: Live registry view — shared with the owning environment.
        self._agents: dict[str, "Agent"] = agents if agents is not None else {}
        self.trace = trace if trace is not None else MessageTrace()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.drop_oracle = drop_oracle
        #: Fast path: when False, delivery skips TraceEvent construction
        #: entirely.  Identity assignment is untouched, so message/trace id
        #: streams stay bit-for-bit identical either way.
        self.record_trace = record_trace
        #: The newest dropped messages, bounded by the trace's capacity so
        #: a long lossy run cannot grow it without limit; the exact count
        #: is the registry's ``messages_dropped`` total.
        self.dropped: deque["Message"] = deque(maxlen=self.trace.capacity)
        self._conversations = itertools.count(1)
        self._message_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- identity ------------------------------------------------------------ #
    def fresh_conversation(self) -> str:
        return f"conv-{next(self._conversations)}"

    def _fresh_trace(self) -> str:
        return f"trace-{next(self._trace_ids)}"

    def prepare(self, message: "Message", cause: "Message | None" = None) -> None:
        """Assign identity and causal links in place (idempotent).

        Fields live on a frozen dataclass and are excluded from equality;
        the router is their single writer.
        """
        if not message.conversation:
            object.__setattr__(message, "conversation", self.fresh_conversation())
        if message.message_id is None:
            object.__setattr__(message, "message_id", next(self._message_ids))
        if message.trace_id is None:
            if cause is not None and cause.trace_id is not None:
                object.__setattr__(message, "trace_id", cause.trace_id)
                object.__setattr__(message, "parent_id", cause.message_id)
            else:
                object.__setattr__(message, "trace_id", self._fresh_trace())

    # -- delivery ------------------------------------------------------------ #
    def route(self, message: "Message", cause: "Message | None" = None) -> None:
        """Deliver *message* after the network delay; the trace records at
        delivery time.  Messages to unknown or crashed agents — or taken
        by the drop oracle — are dropped; the sender's timeout handles it.
        """
        self.prepare(message, cause)
        self.metrics.inc("messages_sent", agent=message.sender, action=message.action)
        agents = self._agents
        target = agents.get(message.receiver)
        if target is None:
            self._drop(message, "unknown-receiver")
            return
        oracle = self.drop_oracle
        if oracle is not None and oracle(message):
            self._drop(message, "oracle")
            return
        sender = agents.get(message.sender)
        src_site = sender.site if sender is not None else target.site
        delay = self.network.delay(src_site, target.site, message.size)
        # Bound method + args through the engine's pooled fire-and-forget
        # path: no per-message closure, no per-message event allocation.
        self.engine.schedule_discard(delay, self._deliver, target, message)

    def route_many(
        self, messages: "list[Message]", cause: "Message | None" = None
    ) -> None:
        """Route a burst of messages, handing the engine pre-batched
        delivery lists: consecutive messages that share a delivery delay
        ride one engine event instead of one event each.

        Ordering is exactly that of consecutive :meth:`route` calls —
        their per-message delivery events would carry consecutive sequence
        numbers and therefore execute back-to-back, which is precisely
        what one batch event delivering them in order does.  Identity
        assignment (conversation/message/trace ids) is per message and
        untouched, so id streams and traces stay byte-identical.
        """
        batch: list[tuple["Agent", "Message"]] = []
        batch_delay: float | None = None
        agents = self._agents
        metrics_inc = self.metrics.inc
        for message in messages:
            self.prepare(message, cause)
            metrics_inc("messages_sent", agent=message.sender, action=message.action)
            target = agents.get(message.receiver)
            if target is None:
                self._drop(message, "unknown-receiver")
                continue
            oracle = self.drop_oracle
            if oracle is not None and oracle(message):
                self._drop(message, "oracle")
                continue
            sender = agents.get(message.sender)
            src_site = sender.site if sender is not None else target.site
            delay = self.network.delay(src_site, target.site, message.size)
            if batch and delay != batch_delay:
                self._flush(batch_delay, batch)
                batch = []
            batch_delay = delay
            batch.append((target, message))
        if batch:
            self._flush(batch_delay, batch)

    def _flush(self, delay: float, batch: "list[tuple[Agent, Message]]") -> None:
        if len(batch) == 1:
            target, message = batch[0]
            self.engine.schedule_discard(delay, self._deliver, target, message)
        else:
            self.engine.schedule_discard(delay, self._deliver_many, batch)

    def _deliver_many(self, batch: "list[tuple[Agent, Message]]") -> None:
        deliver = self._deliver
        for target, message in batch:
            deliver(target, message)

    def _deliver(self, target: "Agent", message: "Message") -> None:
        if not target.alive:
            self._drop(message, "receiver-down")
            return
        if self.record_trace:
            self.trace.record(self.engine.now, message)
        self.metrics.inc(
            "messages_delivered", agent=message.receiver, action=message.action
        )
        target.mailbox.deliver(message)

    def _drop(self, message: "Message", reason: str) -> None:
        self.dropped.append(message)
        self.metrics.inc(
            "messages_dropped", agent=message.receiver, action=message.action
        )
        self.metrics.inc("drop_reason", agent=reason)

    # -- failure-injection adapters ------------------------------------------- #
    def bernoulli_oracle(
        self,
        failures: "BernoulliFailures",
        component_of: Callable[["Message"], str] | None = None,
    ) -> DropOracle:
        """Adapt a :class:`~repro.sim.failures.BernoulliFailures` model
        into a drop oracle (assign the result to :attr:`drop_oracle`, or
        use :meth:`use_bernoulli`).

        *component_of* maps a message to the failure-oracle component name
        (default: the receiver, so per-component probabilities address
        agents).  Draws share the model's RNG stream and are logged to its
        :class:`~repro.sim.failures.FailureLog` at the current simulated
        time, so experiments can assert on injected drops exactly like on
        injected invocation failures.
        """

        def oracle(message: "Message") -> bool:
            component = (
                component_of(message) if component_of is not None else message.receiver
            )
            return failures.should_fail(component, self.engine.now)

        return oracle

    def use_bernoulli(
        self,
        failures: "BernoulliFailures",
        component_of: Callable[["Message"], str] | None = None,
    ) -> None:
        """Install a Bernoulli drop oracle on this router."""
        self.drop_oracle = self.bernoulli_oracle(failures, component_of)
