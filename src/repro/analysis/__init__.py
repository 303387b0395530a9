"""Semantic workflow verification (static analysis over process descriptions).

One vocabulary of :class:`~repro.analysis.findings.Finding` codes spans
structural validation (E1xx/W101, produced by
:mod:`repro.process.validate`), guard satisfiability (E2xx), loop analysis
(E301), dataflow (E401/W402), ontology resolvability (E5xx/W502) and
fork concurrency (E601/W602/E611/E612/W621).
:func:`analyze_process` runs every applicable pass;
:class:`~repro.analysis.plan_filter.PlanStaticFilter` applies the same
machinery per GP candidate inside the planner.
"""

from repro.analysis.analyzer import (
    analyze_process,
    has_errors,
    unresolvable_loci,
    verify_resolvable,
    verify_reusable,
)
from repro.analysis.bindings import (
    ProcessBindings,
    analyze_source,
    load_bindings,
    process_from_graph,
)
from repro.analysis.concurrency import (
    Conflict,
    ForkBranch,
    ForkRegion,
    WitnessReport,
    WitnessVerdict,
    concurrency_findings,
    fork_metrics,
    fork_regions,
    interference_conflicts,
    race_witness,
)
from repro.analysis.conditions_pass import condition_findings
from repro.analysis.dataflow import bindings_known, dataflow_findings
from repro.analysis.findings import (
    FINDING_CODES,
    Finding,
    Severity,
    render_findings,
)
from repro.analysis.plan_filter import PlanStaticFilter
from repro.analysis.resolvability import resolvability_findings
from repro.analysis.sat import (
    conditions_overlap,
    definitely_unsatisfiable,
    possibly_true,
)

__all__ = [
    "FINDING_CODES",
    "Conflict",
    "Finding",
    "ForkBranch",
    "ForkRegion",
    "PlanStaticFilter",
    "ProcessBindings",
    "Severity",
    "WitnessReport",
    "WitnessVerdict",
    "analyze_process",
    "analyze_source",
    "bindings_known",
    "concurrency_findings",
    "condition_findings",
    "conditions_overlap",
    "dataflow_findings",
    "definitely_unsatisfiable",
    "fork_metrics",
    "fork_regions",
    "has_errors",
    "interference_conflicts",
    "load_bindings",
    "possibly_true",
    "process_from_graph",
    "race_witness",
    "render_findings",
    "resolvability_findings",
    "unresolvable_loci",
    "verify_resolvable",
    "verify_reusable",
]
