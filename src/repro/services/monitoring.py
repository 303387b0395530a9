"""Monitoring service: ground-truth status of agents, nodes and the bus.

"Accurate information about the status of a resource may be obtained using
monitoring services" — in contrast to the broker's possibly-stale
advertisements, the monitor inspects the live environment at query time.

Beyond per-agent/per-node status it exposes the message fabric's
observability plane over plain RPC:

* ``metrics`` — a dump of the environment's
  :class:`~repro.bus.metrics.MetricsRegistry` (counters + latency
  histograms), filterable by agent or metric name;
* ``trace`` — the router's bounded delivery trace (exact totals survive
  eviction);
* ``trace-tree`` — a causal call tree reconstructed from
  ``trace_id``/``parent_id`` links, rendered and structured.
"""

from __future__ import annotations

from repro.bus.tracing import TraceEvent, format_tree
from repro.errors import ObservabilityError, ServiceError
from repro.grid.container import ApplicationContainer
from repro.grid.messages import Message
from repro.obs.journal import JOURNAL_KEY_PREFIX, decode_events, journal_storage_key
from repro.obs.profile import case_profile
from repro.obs.provenance import ProvenanceGraph
from repro.obs.spans import WatchRule
from repro.services.base import CoreService

__all__ = ["MonitoringService"]


def _event_dict(event: TraceEvent) -> dict:
    m = event.message
    return {
        "time": event.time,
        "sender": m.sender,
        "receiver": m.receiver,
        "performative": m.performative.value,
        "action": m.action,
        "conversation": m.conversation,
        "message_id": m.message_id,
        "trace_id": m.trace_id,
        "parent_id": m.parent_id,
    }


class MonitoringService(CoreService):
    service_type = "monitoring"

    def _capacity(self, name: str) -> dict:
        """The live capacity facts matchmaking and scheduling rank on:
        liveness and site for any agent, plus node state, slot occupancy,
        speed and cost rate for an application container."""
        if not self.env.has_agent(name):
            return {"known": False, "alive": False}
        agent = self.env.agent(name)
        facts = {"known": True, "alive": agent.alive, "site": agent.site}
        if isinstance(agent, ApplicationContainer):
            node = agent.node
            slots = node.slots
            facts.update(
                node_up=node.up,
                slots=slots.capacity,
                slots_in_use=slots.in_use,
                slots_queued=slots.queued,
                speed=node.hardware.speed,
                cost_rate=node.cost_rate,
            )
        return facts

    def handle_load(self, message: Message):
        """Capacity facts for many agents in one round trip.

        Content: ``agents`` (names).  Reply: ``agents`` — name -> the
        slim facts of :meth:`_capacity`.  This is the lookup matchmaking
        and scheduling use; it deliberately omits the per-agent ``metrics``
        health block of ``status``, which no ranking reads and which the
        message trace would otherwise retain for every decision.
        """
        capacity = self._capacity
        return {
            "agents": {name: capacity(name) for name in message.content["agents"]}
        }

    def handle_status(self, message: Message):
        """Live status of an agent (and its node, for containers): the
        capacity facts of ``load`` plus mailbox depth, node name and the
        agent's message health — the operator's view."""
        name = message.content["agent"]
        status = self._capacity(name)
        if not status["known"]:
            return status
        agent = self.env.agent(name)
        status["queued_messages"] = len(agent.mailbox)
        if isinstance(agent, ApplicationContainer):
            status["node"] = agent.node.name
        # Health as seen by the metrics registry: message and error
        # counts summed across actions for this agent.
        metrics = self.env.metrics
        status["metrics"] = {
            "messages_sent": metrics.total("messages_sent", agent=name),
            "messages_delivered": metrics.total("messages_delivered", agent=name),
            "messages_dropped": metrics.total("messages_dropped", agent=name),
            "requests_handled": metrics.total("requests_handled", agent=name),
            "rpc_errors": metrics.total("rpc_error", agent=name)
            + metrics.total("rpc_timeout", agent=name),
        }
        return status

    def handle_node_status(self, message: Message):
        name = message.content["node"]
        if name not in self.env.node_names:
            return {"known": False}
        node = self.env.node(name)
        return {
            "known": True,
            "up": node.up,
            "site": node.site,
            "slots": node.slots.capacity,
            "slots_in_use": node.slots.in_use,
            "utilization": node.slots.utilization(),
            "speed": node.hardware.speed,
        }

    def handle_census(self, message: Message):
        """Environment-wide summary (agents, nodes, messages).

        Message counts come from the metrics registry, which counts every
        send, delivery and drop whatever the trace records — so they stay
        exact with ``tracing=False`` and after the bounded trace and drop
        ring start evicting old entries.
        """
        metrics = self.env.metrics
        return {
            "agents": len(self.env.agent_names),
            "nodes": len(self.env.node_names),
            "messages_sent": metrics.total("messages_sent"),
            "messages_delivered": metrics.total("messages_delivered"),
            "messages_dropped": metrics.total("messages_dropped"),
            "time": self.engine.now,
        }

    # -- bus observability ------------------------------------------------- #
    def handle_metrics(self, message: Message):
        """Dump the environment's metrics registry.

        Content (all optional): ``agent`` and ``name`` filter the dump to
        one agent / one metric family.  Reply: ``counters`` (name ->
        "agent|action" -> value) and ``histograms`` (name -> "agent|action"
        -> count/sum/mean/min/max/p50/p99).
        """
        content = message.content
        return self.env.metrics.dump(
            agent=content.get("agent"), name=content.get("name")
        )

    def handle_trace(self, message: Message):
        """Query the router's bounded delivery trace.

        Content (optional): ``trace_id``, ``conversation``, ``limit``.
        Reply: serialized events plus the exact totals (``total_recorded``,
        ``evicted``) and the distinct ``trace_ids`` seen.
        """
        content = message.content
        trace = self.env.trace
        events = trace.events(
            trace_id=content.get("trace_id"),
            conversation=content.get("conversation"),
        )
        limit = content.get("limit")
        if limit is not None:
            events = events[-int(limit):]
        return {
            "total_recorded": trace.total_recorded,
            "resident": len(trace),
            "evicted": trace.evicted,
            "trace_ids": trace.trace_ids(),
            "events": [_event_dict(e) for e in events],
        }

    def handle_trace_tree(self, message: Message):
        """Reconstruct one trace's causal call tree.

        Content: ``trace_id``.  Reply: a ``rendered`` indented transcript,
        the flattened ``nodes`` in walk order (each with its depth), and
        size/depth summaries.
        """
        trace_id = message.content["trace_id"]
        roots = self.env.trace.tree(trace_id)
        nodes = []
        for root in roots:
            for depth, event in root.walk():
                nodes.append({"depth": depth, **_event_dict(event)})
        return {
            "trace_id": trace_id,
            "roots": len(roots),
            "size": sum(root.size for root in roots),
            "depth": max((root.depth for root in roots), default=0),
            "rendered": format_tree(roots),
            "nodes": nodes,
        }

    # -- span telemetry (the workflow observability plane) ------------------ #
    def handle_spans(self, message: Message):
        """Query the environment's span recorder.

        Content (all optional): ``trace_id``, ``kind``, ``name`` filter
        the closed spans; ``limit`` keeps the newest N.  Reply:
        serialized spans plus exact accounting (``total_started``,
        ``total_closed``, ``evicted``, ``open``) and the recorder's
        enablement — callers can tell "no spans" from "recording off".
        """
        content = message.content
        recorder = self.env.spans
        spans = recorder.spans(
            trace_id=content.get("trace_id"),
            kind=content.get("kind"),
            name=content.get("name"),
        )
        limit = content.get("limit")
        if limit is not None:
            spans = spans[-int(limit):]
        return {
            "enabled": recorder.enabled,
            "total_started": recorder.total_started,
            "total_closed": recorder.total_closed,
            "evicted": recorder.evicted,
            "open": len(recorder.open_spans()),
            "kinds": recorder.kinds(),
            "spans": [span.as_dict() for span in spans],
        }

    def handle_case_profile(self, message: Message):
        """Per-case time attribution (the ``repro profile`` table).

        Content: ``case`` (root span name) or ``trace_id``.  Reply: the
        :func:`repro.obs.profile.case_profile` dict — per-kind rows with
        count/total/mean/p50/p99/max/share, per-activity totals, and the
        coverage fraction of the case window.
        """
        content = message.content
        try:
            return case_profile(
                self.env.spans,
                case=content.get("case"),
                trace_id=content.get("trace_id"),
            )
        except ObservabilityError as exc:
            raise ServiceError(str(exc)) from exc

    def handle_add_watch(self, message: Message):
        """Install a threshold watch rule, evaluated on every span close.

        Content: ``name``, ``field`` (``"duration"`` or an attribute),
        ``bound``, optional ``op`` (default ``">"``) and ``kind`` filter.
        """
        content = message.content
        try:
            rule = WatchRule(
                name=content["name"],
                field=content.get("field", "duration"),
                bound=float(content["bound"]),
                op=content.get("op", ">"),
                kind=content.get("kind"),
            )
            self.env.spans.add_rule(rule)
        except ObservabilityError as exc:
            raise ServiceError(str(exc)) from exc
        return {"installed": rule.name, "rules": len(self.env.spans.rules)}

    def handle_watches(self, message: Message):
        return {
            "rules": [
                {
                    "name": rule.name,
                    "field": rule.field,
                    "op": rule.op,
                    "bound": rule.bound,
                    "kind": rule.kind,
                }
                for rule in self.env.spans.rules
            ]
        }

    def handle_alerts(self, message: Message):
        """Alerts fired by watch rules (newest last; bounded ring)."""
        content = message.content
        alerts = list(self.env.spans.alerts)
        rule = content.get("rule")
        if rule is not None:
            alerts = [a for a in alerts if a.rule == rule]
        limit = content.get("limit")
        if limit is not None:
            alerts = alerts[-int(limit):]
        return {
            "total_alerts": self.env.spans.total_alerts,
            "alerts": [
                {
                    "time": a.time,
                    "rule": a.rule,
                    "span_id": a.span_id,
                    "span_name": a.span_name,
                    "kind": a.kind,
                    "agent": a.agent,
                    "trace_id": a.trace_id,
                    "value": a.value,
                }
                for a in alerts
            ],
        }

    def handle_gauges(self, message: Message):
        """Summaries of the attached sim-time gauge sampler's series."""
        sampler = self.env.gauges
        if sampler is None:
            return {"attached": False, "series": {}}
        return {"attached": True, "series": sampler.summary()}

    # -- case journal / provenance ------------------------------------------- #
    def _journal_case_events(self, case_id: str):
        """Resident journal events for *case_id*, lazily synced from the
        storage mirror when the recorder no longer holds them (a case the
        LRU cap evicted is materialized on first query).  Generator."""
        journal = self.env.journal
        if journal.has_case(case_id):
            return journal.events(case_id)
        try:
            reply = yield from self.call(
                self.env.storage_name,
                "retrieve",
                {"key": journal_storage_key(case_id)},
            )
        except ServiceError:
            return []
        try:
            stored_case, events = decode_events(reply["payload"])
        except ObservabilityError:
            return []
        journal.absorb(stored_case, events)
        return journal.events(stored_case)

    def handle_journal(self, message: Message):
        """Query the case flight recorder.

        Content (optional): ``case`` — return that case's ordered event
        timeline (lazily synced from the storage mirror if not resident);
        ``limit`` keeps the newest N events.  The reply always carries
        the journal's enablement and exact accounting, so callers can
        tell "no events" from "recording off".
        """
        journal = self.env.journal
        content = message.content
        reply = {
            "enabled": journal.enabled,
            "stats": journal.stats(),
            "cases": list(journal.case_ids()),
        }
        case_id = content.get("case")
        if case_id is not None:
            events = yield from self._journal_case_events(case_id)
            limit = content.get("limit")
            if limit is not None:
                events = events[-int(limit):]
            reply["case"] = case_id
            reply["events"] = [event.as_dict() for event in events]
        return reply

    def handle_provenance(self, message: Message):
        """A case's full provenance graph (activity runs, data artifacts,
        edges) derived from its journal, plus the raw timeline."""
        journal = self.env.journal
        case_id = message.content["case"]
        events = yield from self._journal_case_events(case_id)
        graph = ProvenanceGraph.from_events(case_id, events)
        return {
            "enabled": journal.enabled,
            "case": case_id,
            "events": len(events),
            **graph.to_json(),
        }

    def handle_lineage(self, message: Message):
        """Lineage (backward closure) of a data artifact, or — with
        ``direction: "descendants"`` — the forward closure of an
        activity run.

        Content: ``key`` (artifact/activity id, bare name, or payload
        storage key), optional ``case`` to scope the search and trigger
        lazy mirror sync, optional ``direction``.
        """
        journal = self.env.journal
        content = message.content
        key = content["key"]
        case_id = content.get("case")
        graph = ProvenanceGraph()
        if case_id is not None:
            events = yield from self._journal_case_events(case_id)
            graph.add_events(case_id, events)
        else:
            graph = ProvenanceGraph.from_journal(journal)
        try:
            if content.get("direction") == "descendants":
                result = graph.descendants(key, case_id)
            else:
                result = graph.lineage(key, case_id)
        except ObservabilityError as exc:
            raise ServiceError(str(exc)) from exc
        return {"enabled": journal.enabled, "key": key, **result}

    def handle_journal_purge(self, message: Message):
        """Retention RPC: drop resident journal cases and delete their
        storage-mirrored blobs; exact purge counters in the reply."""
        journal = self.env.journal
        reply = yield from self.call(
            self.env.storage_name, "list-keys", {"prefix": JOURNAL_KEY_PREFIX}
        )
        storage_deleted = 0
        for key in reply["keys"]:
            outcome = yield from self.call(
                self.env.storage_name, "delete", {"key": key}
            )
            if outcome.get("deleted"):
                storage_deleted += 1
        cases, events = journal.purge()
        return {
            "purged_cases": cases,
            "purged_events": events,
            "storage_deleted": storage_deleted,
            "stats": journal.stats(),
        }
