"""Whole-graph structural validation of process descriptions.

Section 3.1 fixes the degree rules for every activity kind; a valid process
description additionally has a unique Begin/End, every activity reachable
from Begin and co-reachable to End, and a well-structured (Fork/Join,
Choice/Merge properly paired) topology — the latter checked by attempting
AST recovery.

Violations are reported as structured :class:`~repro.analysis.findings.Finding`
objects (codes E101-E105, W101) by :func:`check_process_findings`, sharing
one vocabulary and renderer with the semantic passes of
:mod:`repro.analysis`.  :func:`check_process` is the string-compatible shim
for existing callers; :func:`validate_process` raises
:class:`ProcessStructureError` listing every violation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConversionError, ProcessStructureError
from repro.process.model import ActivityKind, ProcessDescription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> process)
    from repro.analysis.findings import Finding

__all__ = ["validate_process", "check_process", "check_process_findings"]

# (min_in, max_in, min_out, max_out); None = unbounded.
_DEGREE_RULES: dict[ActivityKind, tuple[int, int | None, int, int | None]] = {
    ActivityKind.BEGIN: (0, 0, 1, 1),
    ActivityKind.END: (1, 1, 0, 0),
    ActivityKind.END_USER: (1, 1, 1, 1),
    ActivityKind.FORK: (1, 1, 2, None),
    ActivityKind.JOIN: (2, None, 1, 1),
    ActivityKind.CHOICE: (1, 1, 2, None),
    ActivityKind.MERGE: (2, None, 1, 1),
}


def check_process_findings(pd: ProcessDescription) -> "list[Finding]":
    """Structural findings for *pd* (empty = valid).

    Every violation of Section 3.1's rules becomes one finding anchored to
    the offending activity or transition; aggregate properties (Begin/End
    multiplicity, well-structuredness) anchor to the whole process.
    """
    from repro.analysis.findings import Finding  # lazy: analysis imports process

    findings: list[Finding] = []

    begins = [a for a in pd if a.kind is ActivityKind.BEGIN]
    ends = [a for a in pd if a.kind is ActivityKind.END]
    if len(begins) != 1:
        findings.append(
            Finding(
                "E101", "",
                f"expected exactly one Begin activity, found {len(begins)}",
            )
        )
    if len(ends) != 1:
        findings.append(
            Finding(
                "E101", "",
                f"expected exactly one End activity, found {len(ends)}",
            )
        )

    for activity in pd:
        min_in, max_in, min_out, max_out = _DEGREE_RULES[activity.kind]
        din, dout = pd.in_degree(activity.name), pd.out_degree(activity.name)
        if din < min_in or (max_in is not None and din > max_in):
            findings.append(
                Finding(
                    "E102", activity.name,
                    f"{activity.kind.value} activity {activity.name!r} has "
                    f"in-degree {din} (expected "
                    f"{min_in if max_in == min_in else f'>= {min_in}'})",
                )
            )
        if dout < min_out or (max_out is not None and dout > max_out):
            findings.append(
                Finding(
                    "E102", activity.name,
                    f"{activity.kind.value} activity {activity.name!r} has "
                    f"out-degree {dout} (expected "
                    f"{min_out if max_out == min_out else f'>= {min_out}'})",
                )
            )

    # Conditions may only decorate transitions leaving a Choice.
    for tr in pd.transitions:
        if tr.condition is None:
            continue
        if pd.activity(tr.source).kind is not ActivityKind.CHOICE:
            findings.append(
                Finding(
                    "E103", tr.id,
                    f"transition {tr.id} ({tr.source!r} -> "
                    f"{tr.destination!r}) carries a condition but does not "
                    f"leave a Choice",
                )
            )

    if len(begins) == 1 and len(ends) == 1:
        reachable = _forward_closure(pd, begins[0].name)
        for name in sorted(a.name for a in pd if a.name not in reachable):
            findings.append(
                Finding(
                    "W101", name,
                    f"activity {name!r} is unreachable from Begin",
                )
            )
        coreachable = _backward_closure(pd, ends[0].name)
        for name in sorted(a.name for a in pd if a.name not in coreachable):
            findings.append(
                Finding("E105", name, f"activity {name!r} cannot reach End")
            )

        if not findings:
            from repro.process.structure import process_to_ast

            try:
                process_to_ast(pd)
            except ConversionError as exc:
                findings.append(
                    Finding("E104", "", f"not well-structured: {exc}")
                )

    return findings


def check_process(pd: ProcessDescription) -> list[str]:
    """String-compatible shim over :func:`check_process_findings` (empty =
    valid); each entry renders one finding's code, severity and message."""
    return [str(f) for f in check_process_findings(pd)]


def validate_process(pd: ProcessDescription) -> None:
    """Raise :class:`ProcessStructureError` if *pd* is invalid."""
    problems = check_process(pd)
    if problems:
        raise ProcessStructureError(
            f"process {pd.name!r} is invalid: " + "; ".join(problems)
        )


def _forward_closure(pd: ProcessDescription, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for succ in pd.successors(node):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _backward_closure(pd: ProcessDescription, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for pred in pd.predecessors(node):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return seen
