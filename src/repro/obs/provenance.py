"""Queryable provenance derived from the case journal.

A :class:`ProvenanceGraph` is the bipartite activity → data-artifact
DAG a case's journal implies: activity *runs* (one node per dispatch
occurrence, ``status: pending | running | completed | failed``) wired
to the data artifacts they consumed and produced, joined across agents
by the ``trace_id`` every journal event carries.  ``compile`` events
pre-seed *pending* runs for every activity the chosen process names, so
work that was planned but never dispatched — or aborted by a replan —
stays visible instead of vanishing from the record.

Three queries cover the post-mortem questions:

* :meth:`ProvenanceGraph.lineage` — everything upstream of a data
  artifact (which runs, on which nodes, from which inputs);
* :meth:`ProvenanceGraph.descendants` — everything downstream of an
  activity run;
* :meth:`ProvenanceGraph.case_timeline` — the case's raw ordered
  event log.

The journal is filed from span boundaries
(:data:`~repro.obs.journal.SPAN_EVENTS`), so the graph and the spans
are one record, not two to reconcile.
"""

from __future__ import annotations

import json

from repro.errors import ObservabilityError
from repro.obs.journal import JournalEvent

__all__ = [
    "ActivityRun",
    "DataArtifact",
    "ProvenanceGraph",
    "lineage_jsonl",
    "provenance_dot",
]

ACTIVITY_STATUSES = ("pending", "running", "completed", "failed")


class ActivityRun:
    """One dispatch occurrence of an activity within a case."""

    __slots__ = (
        "id",
        "case",
        "name",
        "service",
        "status",
        "container",
        "node",
        "started",
        "ended",
        "retries",
        "trace",
        "inputs",
        "outputs",
        "error",
    )

    def __init__(self, run_id, case, name, service=""):
        self.id = run_id
        self.case = case
        self.name = name
        self.service = service
        self.status = "pending"
        self.container = ""
        self.node = ""
        self.started = None
        self.ended = None
        self.retries = 0
        self.trace = None
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.error = ""

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "case": self.case,
            "name": self.name,
            "service": self.service,
            "status": self.status,
            "container": self.container,
            "node": self.node,
            "started": self.started,
            "ended": self.ended,
            "retries": self.retries,
            "trace": self.trace,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "error": self.error,
        }


class DataArtifact:
    """One named piece of case data, with its producer/consumer runs."""

    __slots__ = ("id", "case", "name", "initial", "producers", "consumers", "keys", "transfers")

    def __init__(self, artifact_id, case, name, initial=False):
        self.id = artifact_id
        self.case = case
        self.name = name
        self.initial = initial
        self.producers: list[str] = []
        self.consumers: list[str] = []
        #: Storage keys this artifact's payload was stored under.
        self.keys: list[str] = []
        #: ``(direction, key, node)`` rows from transfer events.
        self.transfers: list[dict] = []

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "case": self.case,
            "name": self.name,
            "initial": self.initial,
            "producers": list(self.producers),
            "consumers": list(self.consumers),
            "keys": list(self.keys),
            "transfers": list(self.transfers),
        }


class ProvenanceGraph:
    """Bipartite activity-run / data-artifact DAG built from journal events."""

    def __init__(self):
        self.activities: dict[str, ActivityRun] = {}
        self.data: dict[str, DataArtifact] = {}
        #: Raw per-case timelines (insertion-ordered journal events).
        self.cases: dict[str, list[JournalEvent]] = {}
        #: ``(case, name) -> [run ids]`` in occurrence order.
        self._runs: dict[tuple[str, str], list[str]] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_events(cls, case_id: str, events: list[JournalEvent]) -> ProvenanceGraph:
        graph = cls()
        graph.add_events(case_id, events)
        return graph

    @classmethod
    def from_journal(cls, journal, case_id: str | None = None) -> ProvenanceGraph:
        graph = cls()
        cases = (case_id,) if case_id is not None else journal.case_ids()
        for case in cases:
            graph.add_events(case, journal.events(case))
        return graph

    def add_events(self, case_id: str, events: list[JournalEvent]) -> None:
        self.cases.setdefault(case_id, []).extend(events)
        for event in events:
            handler = self._HANDLERS.get(event.kind)
            if handler is not None:
                handler(self, event)

    def _artifact(self, case, name, initial=False) -> DataArtifact:
        artifact_id = f"{case}:{name}"
        node = self.data.get(artifact_id)
        if node is None:
            self.data[artifact_id] = node = DataArtifact(artifact_id, case, name, initial)
        elif initial:
            node.initial = True
        return node

    def _new_run(self, case, name, service="") -> ActivityRun:
        runs = self._runs.setdefault((case, name), [])
        run = ActivityRun(f"{case}:{name}#{len(runs) + 1}", case, name, service)
        runs.append(run.id)
        self.activities[run.id] = run
        return run

    def _live_run(self, case, name, statuses) -> ActivityRun | None:
        """Latest run of ``(case, name)`` whose status is in *statuses*."""
        for run_id in reversed(self._runs.get((case, name), ())):
            run = self.activities[run_id]
            if run.status in statuses:
                return run
        return None

    # -- per-kind event handlers --------------------------------------

    def _on_case_intake(self, event):
        for name in event.attrs.get("initial", ()):
            self._artifact(event.case, name, initial=True)

    def _on_compile(self, event):
        # Pre-seed a pending run for each planned activity that has no
        # open run yet, so never-dispatched work stays in the record.
        for name in event.attrs.get("activities", ()):
            if self._live_run(event.case, name, ("pending", "running")) is None:
                self._new_run(event.case, name)

    def _on_dispatch(self, event):
        attrs = event.attrs
        name = attrs.get("activity", "")
        run = self._live_run(event.case, name, ("pending",))
        if run is None:
            run = self._new_run(event.case, name)
        run.status = "running"
        run.service = attrs.get("service", run.service)
        run.container = attrs.get("container", "")
        run.started = event.time
        run.retries = attrs.get("attempt", 0)
        run.trace = event.trace
        for data_name in attrs.get("inputs", ()):
            artifact = self._artifact(event.case, data_name)
            if run.id not in artifact.consumers:
                artifact.consumers.append(run.id)
            if data_name not in run.inputs:
                run.inputs.append(data_name)

    def _on_execute(self, event):
        attrs = event.attrs
        run = self._live_run(event.case, attrs.get("activity", ""), ("running",))
        if run is None:
            return
        run.node = attrs.get("node", run.node)
        run.container = attrs.get("container", run.container)

    def _on_activity_complete(self, event):
        attrs = event.attrs
        run = self._live_run(event.case, attrs.get("activity", ""), ("running", "pending"))
        if run is None:
            run = self._new_run(event.case, attrs.get("activity", ""), attrs.get("service", ""))
        run.status = "completed"
        run.ended = event.time
        run.retries = attrs.get("retries", run.retries)
        run.container = attrs.get("container", run.container)
        payload_keys = attrs.get("payload_keys", {})
        for data_name in attrs.get("outputs", ()):
            artifact = self._artifact(event.case, data_name)
            if run.id not in artifact.producers:
                artifact.producers.append(run.id)
            if data_name not in run.outputs:
                run.outputs.append(data_name)
            key = payload_keys.get(data_name)
            if key and key not in artifact.keys:
                artifact.keys.append(key)

    def _on_activity_fail(self, event):
        attrs = event.attrs
        run = self._live_run(event.case, attrs.get("activity", ""), ("running", "pending"))
        if run is None:
            run = self._new_run(event.case, attrs.get("activity", ""), attrs.get("service", ""))
        run.status = "failed"
        run.ended = event.time
        run.error = attrs.get("reason", "")

    def _on_transfer(self, event):
        attrs = event.attrs
        data_name = attrs.get("data")
        if not data_name:
            return
        artifact = self._artifact(event.case, data_name)
        key = attrs.get("key")
        if key and key not in artifact.keys:
            artifact.keys.append(key)
        artifact.transfers.append(
            {
                "direction": attrs.get("direction", ""),
                "key": key,
                "node": attrs.get("node", ""),
                "time": event.time,
            }
        )

    _HANDLERS = {
        "case-intake": _on_case_intake,
        "compile": _on_compile,
        "dispatch": _on_dispatch,
        "execute": _on_execute,
        "activity-complete": _on_activity_complete,
        "activity-fail": _on_activity_fail,
        "transfer": _on_transfer,
    }

    # -- queries ------------------------------------------------------

    def case_timeline(self, case_id: str) -> list[dict]:
        """The case's ordered raw event log, as plain dicts."""
        if case_id not in self.cases:
            raise ObservabilityError(f"no journal for case {case_id!r}")
        return [event.as_dict() for event in self.cases[case_id]]

    def _resolve_data(self, key: str, case: str | None = None) -> DataArtifact:
        if key in self.data:
            return self.data[key]
        if case is not None and f"{case}:{key}" in self.data:
            return self.data[f"{case}:{key}"]
        # Bare data name or payload storage key: first match in
        # insertion order (dict order is deterministic).
        for artifact in self.data.values():
            if artifact.name == key or key in artifact.keys:
                return artifact
        raise ObservabilityError(f"unknown data artifact {key!r}")

    def _resolve_activity(self, key: str, case: str | None = None) -> ActivityRun:
        if key in self.activities:
            return self.activities[key]
        if case is not None:
            runs = self._runs.get((case, key))
            if runs:
                return self.activities[runs[-1]]
        for (run_case, name), runs in self._runs.items():
            if name == key and (case is None or run_case == case):
                return self.activities[runs[-1]]
        raise ObservabilityError(f"unknown activity {key!r}")

    def lineage(self, data_key: str, case: str | None = None) -> dict:
        """Backward closure of *data_key*: every run and artifact it
        (transitively) derives from, plus the edges between them."""
        target = self._resolve_data(data_key, case)
        data_seen: dict[str, DataArtifact] = {}
        runs_seen: dict[str, ActivityRun] = {}
        edges: list[tuple[str, str]] = []
        frontier = [target]
        while frontier:
            artifact = frontier.pop()
            if artifact.id in data_seen:
                continue
            data_seen[artifact.id] = artifact
            for run_id in artifact.producers:
                edges.append((run_id, artifact.id))
                run = self.activities[run_id]
                if run_id not in runs_seen:
                    runs_seen[run_id] = run
                    for data_name in run.inputs:
                        upstream = self._artifact(run.case, data_name)
                        edges.append((upstream.id, run_id))
                        frontier.append(upstream)
        return {
            "target": target.id,
            "activities": [run.as_dict() for run in runs_seen.values()],
            "data": [artifact.as_dict() for artifact in data_seen.values()],
            "edges": edges,
        }

    def descendants(self, activity: str, case: str | None = None) -> dict:
        """Forward closure of an activity run: everything derived from
        its outputs, transitively."""
        root = self._resolve_activity(activity, case)
        data_seen: dict[str, DataArtifact] = {}
        runs_seen: dict[str, ActivityRun] = {root.id: root}
        edges: list[tuple[str, str]] = []
        frontier = [root]
        while frontier:
            run = frontier.pop()
            for data_name in run.outputs:
                artifact = self._artifact(run.case, data_name)
                edges.append((run.id, artifact.id))
                if artifact.id in data_seen:
                    continue
                data_seen[artifact.id] = artifact
                for consumer_id in artifact.consumers:
                    edges.append((artifact.id, consumer_id))
                    if consumer_id not in runs_seen:
                        consumer = self.activities[consumer_id]
                        runs_seen[consumer_id] = consumer
                        frontier.append(consumer)
        return {
            "root": root.id,
            "activities": [run.as_dict() for run in runs_seen.values()],
            "data": [artifact.as_dict() for artifact in data_seen.values()],
            "edges": edges,
        }

    # -- export -------------------------------------------------------

    def to_json(self, case: str | None = None) -> dict:
        runs = [
            run.as_dict()
            for run in self.activities.values()
            if case is None or run.case == case
        ]
        data = [
            artifact.as_dict()
            for artifact in self.data.values()
            if case is None or artifact.case == case
        ]
        edges: list[tuple[str, str]] = []
        for run in self.activities.values():
            if case is not None and run.case != case:
                continue
            for name in run.inputs:
                edges.append((f"{run.case}:{name}", run.id))
            for name in run.outputs:
                edges.append((run.id, f"{run.case}:{name}"))
        return {"schema": 1, "activities": runs, "data": data, "edges": edges}

    def to_dot(self, case: str | None = None) -> str:
        payload = self.to_json(case)
        return provenance_dot(payload["activities"], payload["data"], payload["edges"])


_DOT_STATUS_COLOR = {
    "pending": "lightgrey",
    "running": "lightyellow",
    "completed": "lightgreen",
    "failed": "salmon",
}


def _dot_quote(text: str) -> str:
    return '"' + str(text).replace('"', '\\"') + '"'


def provenance_dot(activities, data, edges) -> str:
    """Render activity/data dicts + edges as a Graphviz digraph:
    status-colored boxes for activity runs, ellipses for artifacts."""
    lines = ["digraph provenance {", "  rankdir=LR;"]
    for run in activities:
        color = _DOT_STATUS_COLOR.get(run.get("status", ""), "white")
        label = f"{run['name']}\\n{run.get('status', '')}"
        if run.get("node"):
            label += f"\\n@{run['node']}"
        lines.append(
            f"  {_dot_quote(run['id'])} [shape=box,style=filled,"
            f"fillcolor={color},label={_dot_quote(label)}];"
        )
    for artifact in data:
        shape = "ellipse" if not artifact.get("initial") else "doublecircle"
        lines.append(
            f"  {_dot_quote(artifact['id'])} [shape={shape},label={_dot_quote(artifact['name'])}];"
        )
    for src, dst in edges:
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lineage_jsonl(result: dict) -> str:
    """Serialize a :meth:`ProvenanceGraph.lineage` /
    :meth:`~ProvenanceGraph.descendants` result as JSONL (one node or
    edge per line, key-sorted)."""
    lines = []
    for run in result.get("activities", ()):
        lines.append(json.dumps({"type": "activity", **run}, sort_keys=True, default=str))
    for artifact in result.get("data", ()):
        lines.append(json.dumps({"type": "data", **artifact}, sort_keys=True, default=str))
    for src, dst in result.get("edges", ()):
        lines.append(json.dumps({"type": "edge", "src": src, "dst": dst}, sort_keys=True))
    return "\n".join(lines) + "\n"
