"""Workflow telemetry: spans, gauges, case journal, provenance, exporters.

The observability subsystem on top of the message bus's metrics/trace
plane (see DESIGN.md §5f and §5k):

* :mod:`repro.obs.spans` — the :class:`SpanRecorder` attached to every
  :class:`~repro.grid.environment.GridEnvironment` (disabled by default),
  hierarchical sim-time spans, and threshold :class:`WatchRule` alerts;
* :mod:`repro.obs.gauges` — the opt-in :class:`GaugeSampler` feeding
  per-node/per-agent gauges into :class:`~repro.sim.stats.TimeSeries`;
* :mod:`repro.obs.profile` — per-case time attribution
  (:func:`case_profile`, served as monitoring's ``case-profile`` RPC);
* :mod:`repro.obs.journal` — the opt-in append-only per-case
  :class:`CaseJournal` (the case flight recorder), filed in memory from
  span boundaries through one rule table;
* :mod:`repro.obs.provenance` — the :class:`ProvenanceGraph` derived
  from the journal (activity → data-artifact DAG with lineage /
  descendants / timeline queries);
* :mod:`repro.obs.export` — Chrome trace-event JSON and flat JSONL
  exporters (``repro-grid trace export``).
"""

from repro.obs.export import (
    chrome_trace,
    spans_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.gauges import GaugeSampler
from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    CaseJournal,
    JournalEvent,
    encode_events,
)
from repro.obs.profile import case_profile, interval_union, render_profile
from repro.obs.provenance import (
    ActivityRun,
    DataArtifact,
    ProvenanceGraph,
    lineage_jsonl,
    provenance_dot,
)
from repro.obs.spans import (
    DEFAULT_SPAN_CAPACITY,
    Alert,
    Span,
    SpanRecorder,
    WatchRule,
)

__all__ = [
    "Alert",
    "ActivityRun",
    "CaseJournal",
    "DEFAULT_SPAN_CAPACITY",
    "DataArtifact",
    "GaugeSampler",
    "JOURNAL_SCHEMA_VERSION",
    "JournalEvent",
    "ProvenanceGraph",
    "Span",
    "SpanRecorder",
    "WatchRule",
    "case_profile",
    "chrome_trace",
    "encode_events",
    "interval_union",
    "lineage_jsonl",
    "provenance_dot",
    "render_profile",
    "spans_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
