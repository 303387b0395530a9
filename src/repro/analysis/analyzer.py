"""The multi-pass driver: one call, every finding.

:func:`analyze_process` chains the structural checks of
:mod:`repro.process.validate` with the semantic passes of this package:

1. **structure** — E101-E105/W101 (degree rules, reachability, pairing);
2. **conditions** — E201/E202 guard satisfiability (needs only the
   transition table, so it runs even on structurally broken graphs);
3. **dataflow** — E401/W402/E301 (runs only on structurally clean graphs:
   the must-reach fixpoint assumes a unique Begin and full reachability);
4. **concurrency** — E601/W602/E611/E612/W621 (also gated on structural
   cleanliness: its fork regions are read off the AST the structure pass
   recovers);
5. **resolvability** — E501/W502, only when a knowledge base is supplied.

The pass set degrades gracefully with the information available: a bare
parsed ``.process`` file gets structure + condition analysis; add
input/output bindings and the dataflow pass wakes up; add a
``KnowledgeBase`` and services are resolved too.  Analysis never enacts,
simulates or messages anything — it is pure graph work, which is what
makes it cheap enough for the planner's per-candidate pre-filter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.concurrency import concurrency_findings
from repro.analysis.conditions_pass import condition_findings
from repro.analysis.dataflow import dataflow_findings
from repro.analysis.findings import Finding, Severity
from repro.analysis.resolvability import resolvability_findings
from repro.process.model import ProcessDescription
from repro.process.validate import check_process_findings

if TYPE_CHECKING:  # pragma: no cover
    from repro.ontology.frames import KnowledgeBase

__all__ = [
    "analyze_process",
    "has_errors",
    "unresolvable_loci",
    "verify_resolvable",
    "verify_reusable",
]


def analyze_process(
    pd: ProcessDescription,
    *,
    kb: "KnowledgeBase | None" = None,
    initial_data: set[str] | None = None,
    classifications: dict[str, str] | None = None,
    reservations: dict[str, tuple[str, ...]] | None = None,
) -> list[Finding]:
    """All findings for *pd*, structural first.

    *initial_data* — data names present in the case's initial data set;
    None presumes any never-produced data arrives with the case.
    *classifications* — data name -> classification, supplementing the
    KB's Data instances for the W502 capability check.
    *reservations* — activity -> ordered resources it reserves while
    running, feeding the concurrency pass's lock-order check.
    """
    findings = check_process_findings(pd)
    structurally_clean = not findings
    findings.extend(condition_findings(pd))
    if structurally_clean:
        findings.extend(dataflow_findings(pd, initial_data=initial_data))
        findings.extend(concurrency_findings(pd, reservations=reservations))
    if kb is not None:
        findings.extend(
            resolvability_findings(pd, kb, classifications=classifications)
        )
    return findings


def has_errors(findings: list[Finding]) -> bool:
    return any(f.severity is Severity.ERROR for f in findings)


def verify_resolvable(
    pd: ProcessDescription,
    kb: "KnowledgeBase",
    *,
    classifications: dict[str, str] | None = None,
) -> list[Finding]:
    """Re-verification entry point for plan reuse: resolvability only.

    A plan retrieved from the plan library was fully analyzed when it was
    stored; the only thing that can rot while it sits in the repository is
    the *registry* — a Service instance it depends on may have vanished
    (E501) or changed capabilities (W502).  This runs exactly the
    resolvability pass against the current knowledge base, so the planning
    service can re-verify a hit in microseconds before letting it anywhere
    near enactment.
    """
    return resolvability_findings(pd, kb, classifications=classifications)


def verify_reusable(
    pd: ProcessDescription,
    kb: "KnowledgeBase",
    *,
    classifications: dict[str, str] | None = None,
    reservations: dict[str, tuple[str, ...]] | None = None,
) -> list[Finding]:
    """Re-verification for plan-library hits: resolvability *plus* the
    concurrency pass.

    Resolvability can rot while a plan sits in the library (the registry
    moved); concurrency hazards cannot — but plans stored before the
    E6xx codes existed were never screened for them, so the ladder
    re-checks here.  The two passes differ in disposition: an E501 names
    the terminal to swap (repairable), while an E6xx condemns the plan's
    *shape* — the caller rejects such a hit outright rather than
    repairing it.
    """
    findings = resolvability_findings(pd, kb, classifications=classifications)
    findings.extend(concurrency_findings(pd, reservations=reservations))
    return findings


def unresolvable_loci(findings: list[Finding]) -> tuple[str, ...]:
    """The activity names flagged E501 (sorted, deduplicated).

    These are process-level loci; callers mapping back to plan terminals
    must undo the ``X_2`` repeated-activity renaming of
    :func:`repro.plan.convert.tree_to_process`.
    """
    return tuple(sorted({f.locus for f in findings if f.code == "E501"}))
