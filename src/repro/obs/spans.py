"""Span-based workflow telemetry: where does enactment time go?

The monitoring service is the paper's ground-truth observability plane,
but message counters alone cannot answer the profiling question a
production workflow engine faces daily: *which part of a case's enactment
spent the time* — planning, scheduling, container queues, transfers, the
activities themselves?  A :class:`Span` is one named, sim-time-stamped
interval of work; spans nest (``parent_id``) into a per-case tree whose
root is the case enactment itself, and every span carries the causal
``trace_id`` of the message exchange that produced it, so a span joins to
its messages through :class:`~repro.bus.tracing.MessageTrace` (filter the
trace by ``trace_id`` and the span's ``[start, end]`` window).

The :class:`SpanRecorder` is the environment-wide sink.  Its contract
mirrors the metrics registry's: **recording is synchronous arithmetic and
never schedules a simulation event**, so instrumentation cannot perturb
message ordering — and it is **disabled by default**.  Instrumented
sites own no lifecycle logic: they open spans with
:meth:`SpanRecorder.span`, a context manager that closes the span ``ok``
when its block exits normally and ``error`` when an exception leaves it,
and record zero-length spans with :meth:`SpanRecorder.instant`.  A
disabled recorder hands out one shared no-op handle, so no site reads
:attr:`SpanRecorder.enabled`, and the default configuration's protocol
traces stay byte-identical to an uninstrumented build.

Closed spans live in a bounded ring (like the message trace) with exact
``total_closed`` / ``evicted`` accounting; open spans are tracked by id so
lifecycle bugs (double close, close-after-evict) surface as
:class:`~repro.errors.ObservabilityError` instead of silent corruption.

The recorder is also the case journal's one source: every span start
and close goes to the attached, enabled journal's
:meth:`~repro.obs.journal.CaseJournal.record_span`.

Threshold **watch rules** ride on the recorder: a :class:`WatchRule`
names a span population (by kind) and a bound over a field (the span's
duration or any attribute — e.g. an activity span's retry count, a
slot-wait span's queue depth) and is evaluated synchronously on span
close; firings append to a bounded alert log the monitoring service
serves over RPC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.journal import CaseJournal
    from repro.sim.engine import Engine

__all__ = [
    "Span", "SpanRecorder", "WatchRule", "Alert", "DEFAULT_SPAN_CAPACITY",
    "NO_SPAN",
]

#: Default resident bound for closed spans — same order as the message
#: trace: complete for every experiment in the repo, bounded for soaks.
DEFAULT_SPAN_CAPACITY = 100_000


class Span:
    """One named interval of simulated time, nested under a parent span.

    A span opened by :meth:`SpanRecorder.span` is its own ``with``
    handle: the block's exit closes it through the recorder.
    """

    __slots__ = (
        "span_id", "name", "kind", "agent", "trace_id", "parent_id",
        "start", "end", "status", "attrs", "_recorder",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        kind: str,
        agent: str,
        trace_id: str | None,
        parent_id: int | None,
        start: float,
        recorder: SpanRecorder,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.agent = agent
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.status = "ok"
        self.attrs: dict[str, Any] = {}
        self._recorder = recorder

    def set(self, **attrs: Any) -> None:
        """Record attributes known only after the span opened."""
        self.attrs.update(attrs)

    def rename(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> Span:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Only an Exception is a failure of the work.  A GeneratorExit (a
        # parked process closed at teardown) leaves the span open: the
        # work never ended.
        if exc_type is None:
            self._recorder.end(self)
        elif issubclass(exc_type, Exception):
            self._recorder.end(self, status="error")

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds from start to close (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "agent": self.agent,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"closed dur={self.duration:.4f}" if self.closed else "open"
        return f"Span(#{self.span_id} {self.kind}:{self.name!r} {state})"


class _NoSpan:
    """The handle a disabled recorder hands out for every span: entering,
    leaving, setting attributes and renaming all do nothing.  Used as a
    parent it reads as no parent."""

    __slots__ = ()
    span_id = None
    trace_id = None

    def set(self, **attrs: Any) -> None:
        pass

    def rename(self, name: str) -> None:
        pass

    def __enter__(self) -> _NoSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The one shared no-op handle (see :class:`_NoSpan`).
NO_SPAN = _NoSpan()


@dataclass(frozen=True)
class WatchRule:
    """Alert when a closing span's *field* crosses *bound*.

    *field* is ``"duration"`` or the name of a span attribute (missing
    attributes never fire).  *op* is one of ``> >= < <= ==``; *kind*
    restricts the rule to spans of that kind (None = every span).
    """

    name: str
    field: str
    bound: float
    op: str = ">"
    kind: str | None = None

    _OPS = {
        ">": lambda v, b: v > b,
        ">=": lambda v, b: v >= b,
        "<": lambda v, b: v < b,
        "<=": lambda v, b: v <= b,
        "==": lambda v, b: v == b,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ObservabilityError(
                f"watch rule {self.name!r}: unknown op {self.op!r}"
            )

    def check(self, span: Span) -> float | None:
        """The observed value when this rule fires on *span*, else None."""
        if self.kind is not None and span.kind != self.kind:
            return None
        value = span.duration if self.field == "duration" else span.attrs.get(self.field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return None
        return float(value) if self._OPS[self.op](value, self.bound) else None

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "field": self.field,
            "bound": self.bound,
            "op": self.op,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class Alert:
    """One watch-rule firing, stamped with the closing span's identity."""

    time: float
    rule: str
    span_id: int
    span_name: str
    kind: str
    agent: str
    trace_id: str | None
    value: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "rule": self.rule,
            "span_id": self.span_id,
            "span_name": self.span_name,
            "kind": self.kind,
            "agent": self.agent,
            "trace_id": self.trace_id,
            "value": self.value,
        }


class SpanRecorder:
    """Bounded, environment-wide sink for workflow spans.

    Sites open spans with :meth:`span` and record zero-length ones with
    :meth:`instant`; :meth:`start` and :meth:`end` are the primitives
    both build on.  When :attr:`enabled` is False (the default),
    :meth:`span` returns the shared no-op handle, :meth:`instant` returns
    at once, :meth:`start` returns None and :meth:`end` ignores None.
    Enable at construction (``GridEnvironment(spans=True)``) or flip
    :attr:`enabled` before the run — spans opened while enabled close
    normally after disabling.
    """

    def __init__(
        self,
        engine: "Engine",
        enabled: bool = False,
        capacity: int | None = DEFAULT_SPAN_CAPACITY,
        alert_capacity: int = 10_000,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ObservabilityError(
                f"span capacity must be >= 1 or None, got {capacity}"
            )
        self.engine = engine
        self.enabled = enabled
        self.capacity = capacity
        self.closed: deque[Span] = deque(maxlen=capacity)
        self._open: dict[int, Span] = {}
        self._ids = 0
        #: Exact lifecycle accounting (survives ring eviction).
        self.total_started = 0
        self.total_closed = 0
        self.rules: list[WatchRule] = []
        self.alerts: deque[Alert] = deque(maxlen=alert_capacity)
        self.total_alerts = 0
        #: The case journal fed from span boundaries (None = none).
        self.journal: CaseJournal | None = None

    # -- lifecycle ----------------------------------------------------------- #
    def span(
        self,
        name: str,
        kind: str,
        agent: str = "",
        trace_id: str | None = None,
        parent: Span | _NoSpan | None = None,
        **attrs: Any,
    ) -> Span | _NoSpan:
        """Open a span for a ``with`` block.

        The span closes ``ok`` when the block exits normally and
        ``error`` when an exception leaves it; the exception propagates.
        An error close sets only the status: a site that records a
        failure's details sets them on the handle before re-raising.
        A disabled recorder returns :data:`NO_SPAN`.
        """
        if not self.enabled:
            return NO_SPAN
        return self.start(name, kind, agent, trace_id, parent, **attrs)

    def instant(
        self,
        name: str,
        kind: str,
        agent: str = "",
        trace_id: str | None = None,
        parent: Span | _NoSpan | None = None,
        **attrs: Any,
    ) -> None:
        """Record a zero-length span: opened and closed ``ok`` now."""
        if self.enabled:
            self.end(self.start(name, kind, agent, trace_id, parent, **attrs))

    def start(
        self,
        name: str,
        kind: str,
        agent: str = "",
        trace_id: str | None = None,
        parent: Span | _NoSpan | None = None,
        **attrs: Any,
    ) -> Span | None:
        """Open a span at the current simulated time (None when disabled).

        *parent* nests this span under an open span of the same tree;
        the child inherits the parent's ``trace_id`` unless given its own.
        """
        if not self.enabled:
            return None
        self._ids += 1
        if parent is not None and trace_id is None:
            trace_id = parent.trace_id
        span = Span(
            self._ids, name, kind, agent, trace_id,
            parent.span_id if parent is not None else None,
            self.engine.now,
            self,
        )
        if attrs:
            span.attrs.update(attrs)
        self._open[span.span_id] = span
        self.total_started += 1
        if self.journal is not None and self.journal.enabled:
            self.journal.record_span(span, "start")
        return span

    def end(
        self, span: Span | None, status: str = "ok", **attrs: Any
    ) -> None:
        """Close *span* (no-op for None, so disabled sites need no guard)."""
        if span is None:
            return
        if self._open.pop(span.span_id, None) is None:
            raise ObservabilityError(
                f"span #{span.span_id} ({span.kind}:{span.name!r}) closed twice"
            )
        span.end = self.engine.now
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        if self.journal is not None and self.journal.enabled:
            self.journal.record_span(span, "end")
        self.closed.append(span)
        self.total_closed += 1
        for rule in self.rules:
            value = rule.check(span)
            if value is not None:
                self.alerts.append(
                    Alert(
                        span.end, rule.name, span.span_id, span.name,
                        span.kind, span.agent, span.trace_id, value,
                    )
                )
                self.total_alerts += 1

    # -- accounting ----------------------------------------------------------- #
    @property
    def evicted(self) -> int:
        """Closed spans the capacity bound has discarded."""
        return self.total_closed - len(self.closed)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def open_spans(self, kind: str | None = None) -> list[Span]:
        spans = self._open.values()
        if kind is None:
            return list(spans)
        return [s for s in spans if s.kind == kind]

    # -- queries -------------------------------------------------------------- #
    def spans(
        self,
        trace_id: str | None = None,
        kind: str | None = None,
        name: str | None = None,
    ) -> list[Span]:
        """Closed spans in close order, optionally filtered."""
        out = []
        for span in self.closed:
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if kind is not None and span.kind != kind:
                continue
            if name is not None and span.name != name:
                continue
            out.append(span)
        return out

    def kinds(self) -> list[str]:
        """Distinct span kinds, in first-appearance order."""
        seen: dict[str, None] = {}
        for span in self.closed:
            seen.setdefault(span.kind, None)
        return list(seen)

    def tree(self, root: Span) -> Iterator[tuple[int, Span]]:
        """Walk *root*'s closed descendants depth-first as (depth, span)."""
        children: dict[int, list[Span]] = {}
        for span in self.closed:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)

        def walk(span: Span, depth: int) -> Iterator[tuple[int, Span]]:
            yield depth, span
            for child in children.get(span.span_id, ()):
                yield from walk(child, depth + 1)

        return walk(root, 0)

    # -- watch rules ---------------------------------------------------------- #
    def add_rule(self, rule: WatchRule) -> None:
        if any(existing.name == rule.name for existing in self.rules):
            raise ObservabilityError(f"duplicate watch rule {rule.name!r}")
        self.rules.append(rule)

    def remove_rule(self, name: str) -> bool:
        before = len(self.rules)
        self.rules = [r for r in self.rules if r.name != name]
        return len(self.rules) != before

    def clear(self) -> None:
        """Drop recorded spans and alerts and reset the accounting; the
        watch rules stay installed."""
        self.closed.clear()
        self._open.clear()
        self.alerts.clear()
        self.total_started = 0
        self.total_closed = 0
        self.total_alerts = 0
