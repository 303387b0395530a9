"""Append-only, schema-versioned per-case event journal.

The :class:`SpanRecorder` answers *how long* each stage of a case took;
the journal answers *what happened*: an ordered, replayable record of
case intake, the plan chosen (with its plan-library ``source``), every
compile, every :class:`~repro.process.program.ActivityStep` dispatch /
completion / failure with the executing node and the input/output data
keys, replans, data transfers, and refusals.

Spans are the one emission.  The span recorder hands each span start
and close to :meth:`CaseJournal.record_span`, which files an event when
:data:`SPAN_EVENTS` has a rule for the span's ``(kind, phase, status)``.
Events join across agents by the span's message ``trace_id``: a
``case`` span's start binds its trace to the case id, and every event
resolves its case through that binding (no journal ids ever ride in
message content).  A trace with no binding — never bound, or its case
evicted — files nothing and is counted.

Recording follows the :class:`~repro.obs.spans.SpanRecorder` contract:

* **Default-off.**  A disabled journal is never fed; enabling it
  enables span recording too.
* **Never schedules.**  Appending is plain arithmetic on in-memory
  lists — it sends no messages and creates no simulation events, so a
  *recording* journal (``journal="record"``) leaves the protocol trace
  byte-identical to a disabled one.  Only *mirroring* (``journal=True``)
  talks to the storage service, at case completion, and that traffic is
  an explicitly observable part of the protocol.
* **Exact accounting.**  ``total_appended`` / ``total_flushed`` /
  ``cases_evicted`` / ``events_evicted`` / ``events_lost`` /
  ``unbound_dropped`` / ``cases_synced`` are exact counters; the LRU
  case cap evicts whole cases oldest-first and counts every event it
  drops (``events_lost`` additionally counts evicted events that had
  not reached the storage mirror).

The wire encoding (:func:`encode_events` / :func:`decode_events`) is
deliberately boring: a UTF-8 JSONL blob — one compact, key-sorted JSON
object per line under a schema-versioned header line — so a mirrored
journal can be decoded back into the recorder after eviction (lazy sync
via :meth:`absorb`) and by the post-mortem tools in
:mod:`repro.obs.provenance` long after the producing environment is
gone.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Iterable

from repro.errors import ObservabilityError

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "SPAN_EVENTS",
    "CaseJournal",
    "JournalEvent",
    "decode_events",
    "encode_events",
    "journal_storage_key",
]

#: Bump on any incompatible change to the event dict shape; decoders
#: refuse blobs with a different major version.
JOURNAL_SCHEMA_VERSION = 1

#: Storage-key namespace for mirrored journals (one blob per case).
JOURNAL_KEY_PREFIX = "journal/"

#: Default LRU cap on resident cases (whole cases, not events).
DEFAULT_JOURNAL_CASES = 4096

#: The journal's one source: ``(span kind, phase, span status)`` ->
#: ``(event kind, event attribute the span's name fills or None, span
#: attributes the event carries when present)``.  Other boundaries file
#: nothing.
SPAN_EVENTS: dict[tuple[str, str, str], tuple[str, str | None, tuple[str, ...]]] = {
    ("case", "start", "ok"): ("case-intake", None, ("process", "initial", "payload_keys")),
    ("case", "end", "ok"): ("case-complete", None, ("activities_run", "replans")),
    ("case", "end", "error"): ("case-fail", None, ("error",)),
    ("refusal", "end", "ok"): ("refusal", None, ("reason", "findings", "source", "process")),
    ("plan", "end", "ok"): ("plan", None, ("source", "process", "solved", "fitness")),
    ("compile", "end", "ok"): ("compile", "process", ("activities", "choices", "loops")),
    ("compile", "end", "error"): ("compile", "process", ("error",)),
    ("replan", "start", "ok"): ("replan", None, ("round", "excluded", "aborted")),
    ("dispatch", "start", "ok"): (
        "dispatch", None, ("activity", "service", "container", "inputs", "attempt"),
    ),
    ("execute", "start", "ok"): ("execute", "activity", ("service", "node", "container", "inputs")),
    ("payload", "end", "ok"): ("transfer", "data", ("key", "direction", "node")),
    ("transfer", "start", "ok"): (
        "transfer", "data", ("key", "direction", "node", "steps", "wire_bytes"),
    ),
    ("activity", "end", "ok"): (
        "activity-complete", "activity",
        ("service", "container", "outputs", "payload_keys", "retries"),
    ),
    ("activity", "end", "error"): ("activity-fail", "activity", ("service", "reason")),
}


def journal_storage_key(case_id: str) -> str:
    """The storage-service key a case's journal blob is mirrored under."""
    return f"{JOURNAL_KEY_PREFIX}{case_id}"


class JournalEvent:
    """One immutable journal entry.

    ``seq`` is a journal-global monotonic sequence number (total order
    across cases), ``time`` the simulation time of emission, ``trace``
    the message ``trace_id`` the event joins the span/message streams
    by, and ``attrs`` the kind-specific payload (data keys, node ids,
    plan source, ...).
    """

    __slots__ = ("seq", "case", "kind", "time", "agent", "trace", "attrs")

    def __init__(self, seq, case, kind, time, agent="", trace=None, attrs=None):
        self.seq = seq
        self.case = case
        self.kind = kind
        self.time = time
        self.agent = agent
        self.trace = trace
        self.attrs = attrs or {}

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "case": self.case,
            "kind": self.kind,
            "time": self.time,
            "agent": self.agent,
            "trace": self.trace,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JournalEvent({self.seq}, {self.case!r}, {self.kind!r}, t={self.time})"


def encode_events(case_id: str, events: Iterable[JournalEvent]) -> bytes:
    """Encode *events* as the schema-versioned UTF-8 JSONL mirror blob.

    Line 1 is a header record (schema version, case id, event count);
    each following line is one event, compact and key-sorted so the
    encoding of a given journal is byte-stable.
    """
    rows = list(events)
    header = {
        "schema": JOURNAL_SCHEMA_VERSION,
        "case": case_id,
        "events": len(rows),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for event in rows:
        lines.append(
            json.dumps(
                event.as_dict(), sort_keys=True, separators=(",", ":"), default=str
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def decode_events(blob) -> tuple[str, list[JournalEvent]]:
    """Decode a mirror blob back into ``(case_id, events)``.

    Raises :class:`~repro.errors.ObservabilityError` on a malformed
    blob or a schema-version mismatch.
    """
    if isinstance(blob, bytes):
        blob = blob.decode("utf-8")
    if not isinstance(blob, str):
        raise ObservabilityError(f"journal blob must be bytes or str, got {type(blob).__name__}")
    lines = [line for line in blob.split("\n") if line]
    if not lines:
        raise ObservabilityError("empty journal blob")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"unreadable journal header: {exc}") from exc
    if not isinstance(header, dict) or "schema" not in header:
        raise ObservabilityError("journal blob missing schema header")
    if header["schema"] != JOURNAL_SCHEMA_VERSION:
        raise ObservabilityError(
            f"journal schema {header['schema']} != supported {JOURNAL_SCHEMA_VERSION}"
        )
    case_id = header.get("case", "")
    events = []
    for line in lines[1:]:
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"unreadable journal event: {exc}") from exc
        events.append(
            JournalEvent(
                row.get("seq", 0),
                row.get("case", case_id),
                row.get("kind", ""),
                row.get("time", 0.0),
                row.get("agent", ""),
                row.get("trace"),
                row.get("attrs") or {},
            )
        )
    declared = header.get("events")
    if declared is not None and declared != len(events):
        raise ObservabilityError(
            f"journal blob declares {declared} events, found {len(events)}"
        )
    return case_id, events


class CaseJournal:
    """Bounded in-memory journal recorder with exact accounting."""

    def __init__(self, engine, enabled=False, mirror=False, max_cases=DEFAULT_JOURNAL_CASES):
        self.engine = engine
        self.enabled = enabled
        #: Whether case completion mirrors the journal into storage.
        self.mirror = mirror
        self.max_cases = max(1, int(max_cases))
        self._cases: OrderedDict[str, list[JournalEvent]] = OrderedDict()
        self._trace_to_case: dict[str, str] = {}
        self._case_traces: dict[str, list[str]] = {}
        #: Per-case count of events already mirrored into storage.
        self._flushed: dict[str, int] = {}
        self._seq = 0
        self.total_appended = 0
        self.total_flushed = 0
        self.cases_evicted = 0
        self.events_evicted = 0
        #: Evicted events that had never reached the storage mirror.
        self.events_lost = 0
        #: Events dropped because their trace had no case binding.
        self.unbound_dropped = 0
        #: Cases re-materialized from the storage mirror via ``absorb``.
        self.cases_synced = 0

    # -- recording ----------------------------------------------------

    def bind(self, trace_id, case_id) -> None:
        """Bind a message ``trace_id`` to *case_id*, so every event with
        that trace lands in the case bucket (a ``case`` span's start
        does this; a case may be bound to several traces)."""
        if not self.enabled or trace_id is None:
            return
        self._trace_to_case[trace_id] = case_id
        self._case_traces.setdefault(case_id, []).append(trace_id)

    def case_for_trace(self, trace_id):
        return self._trace_to_case.get(trace_id)

    def trace_for_case(self, case_id):
        """The first trace bound to *case_id* (None when unbound)."""
        traces = self._case_traces.get(case_id)
        return traces[0] if traces else None

    def record_span(self, span, phase: str):
        """File the event :data:`SPAN_EVENTS` maps the boundary of *span*
        to (*phase* is ``"start"`` or ``"end"``); None when the boundary
        has no rule or its trace no case."""
        rule = SPAN_EVENTS.get((span.kind, phase, span.status))
        if rule is None:
            return None
        kind, name_attr, carried = rule
        attrs = span.attrs
        if kind == "case-intake":
            self.bind(span.trace_id, attrs.get("case"))
        fields = {name_attr: span.name} if name_attr is not None else {}
        for key in carried:
            if key in attrs:
                fields[key] = attrs[key]
        return self.append_traced(span.trace_id, kind, span.agent, **fields)

    def append(self, case_id, kind, agent="", trace_id=None, **attrs):
        """Append one event to *case_id*'s journal; ``None`` when disabled.

        Pure in-memory arithmetic: never sends a message, never creates
        a simulation event.  ``trace_id`` defaults to the case's first
        bound trace.
        """
        if not self.enabled:
            return None
        if trace_id is None:
            trace_id = self.trace_for_case(case_id)
        event = JournalEvent(
            self._seq, case_id, kind, self.engine.now, agent, trace_id, attrs
        )
        self._seq += 1
        bucket = self._cases.get(case_id)
        if bucket is None:
            self._cases[case_id] = bucket = []
        else:
            self._cases.move_to_end(case_id)
        bucket.append(event)
        self.total_appended += 1
        self._evict()
        return event

    def append_traced(self, trace_id, kind, agent="", **attrs):
        """Append an event resolved through the trace→case binding.

        Unbindable events are dropped and counted, never misfiled.
        """
        if not self.enabled:
            return None
        case_id = self._trace_to_case.get(trace_id)
        if case_id is None:
            self.unbound_dropped += 1
            return None
        return self.append(case_id, kind, agent=agent, trace_id=trace_id, **attrs)

    # -- retention ----------------------------------------------------

    def _evict(self) -> None:
        while len(self._cases) > self.max_cases:
            case_id, events = self._cases.popitem(last=False)
            flushed = self._flushed.pop(case_id, 0)
            self.cases_evicted += 1
            self.events_evicted += len(events)
            self.events_lost += max(0, len(events) - flushed)
            for trace_id in self._case_traces.pop(case_id, ()):
                self._trace_to_case.pop(trace_id, None)

    def purge(self) -> tuple[int, int]:
        """Drop every resident case; returns ``(cases, events)`` purged.

        Counters other than the purge return value are left intact —
        purging is administrative, not eviction.
        """
        cases = len(self._cases)
        events = sum(len(bucket) for bucket in self._cases.values())
        self._cases.clear()
        self._trace_to_case.clear()
        self._case_traces.clear()
        self._flushed.clear()
        return cases, events

    # -- mirroring ----------------------------------------------------

    def mark_flushed(self, case_id) -> int:
        """Record that *case_id*'s current events reached the storage
        mirror; returns the number newly flushed."""
        events = self._cases.get(case_id)
        if events is None:
            return 0
        already = self._flushed.get(case_id, 0)
        fresh = max(0, len(events) - already)
        self._flushed[case_id] = len(events)
        self.total_flushed += fresh
        return fresh

    def pending_flush(self, case_id) -> int:
        events = self._cases.get(case_id)
        if events is None:
            return 0
        return max(0, len(events) - self._flushed.get(case_id, 0))

    def absorb(self, case_id, events: list[JournalEvent]) -> None:
        """Install a decoded mirror blob for a non-resident case (lazy
        sync: a case the LRU cap evicted is materialized from its storage
        mirror on first query)."""
        if case_id in self._cases:
            return
        self._cases[case_id] = list(events)
        # A synced case is already fully mirrored by definition.
        self._flushed[case_id] = len(events)
        self.cases_synced += 1
        for event in events:
            if event.trace is not None:
                self._trace_to_case.setdefault(event.trace, case_id)
                self._case_traces.setdefault(case_id, []).append(event.trace)
                break
        self._evict()

    # -- queries ------------------------------------------------------

    def has_case(self, case_id) -> bool:
        return case_id in self._cases

    def events(self, case_id) -> list[JournalEvent]:
        return list(self._cases.get(case_id, ()))

    def case_ids(self) -> tuple[str, ...]:
        return tuple(self._cases)

    def encode_case(self, case_id) -> bytes:
        return encode_events(case_id, self._cases.get(case_id, ()))

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "mirror": self.mirror,
            "max_cases": self.max_cases,
            "cases": len(self._cases),
            "events": sum(len(bucket) for bucket in self._cases.values()),
            "appended": self.total_appended,
            "flushed": self.total_flushed,
            "cases_evicted": self.cases_evicted,
            "events_evicted": self.events_evicted,
            "events_lost": self.events_lost,
            "unbound_dropped": self.unbound_dropped,
            "cases_synced": self.cases_synced,
        }

    def clear(self) -> None:
        """Full reset, counters included (tests and bench harnesses)."""
        self.purge()
        self._seq = 0
        self.total_appended = 0
        self.total_flushed = 0
        self.cases_evicted = 0
        self.events_evicted = 0
        self.events_lost = 0
        self.unbound_dropped = 0
        self.cases_synced = 0
