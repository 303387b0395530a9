"""Fork regions come from the one region parser, ``process_to_ast``.

A graph the structural pass rejects as E104 has no regions, so the
concurrency pass stays silent on it, even where a sibling pair of its
fork branches would race.
"""

import pytest

from repro.analysis import concurrency_findings, fork_regions
from repro.process import ActivityKind, ProcessDescription
from repro.process.validate import check_process_findings


def _racy_fork(flow_control, edges):
    """BEGIN -> F -> {A, second branch} -> J -> END, where A and the second
    branch's B both write r."""
    pd = ProcessDescription("drift")
    pd.add("BEGIN", ActivityKind.BEGIN)
    pd.add("F", ActivityKind.FORK)
    pd.add("J", ActivityKind.JOIN)
    pd.add("END", ActivityKind.END)
    pd.add("A", ActivityKind.END_USER, "SA", (), ("r",))
    pd.add("B", ActivityKind.END_USER, "SB", (), ("r",))
    for name, kind in flow_control:
        pd.add(name, kind)
    for source, destination in [("BEGIN", "F"), ("F", "A"), ("A", "J"), *edges, ("J", "END")]:
        pd.connect(source, destination)
    return pd


def choice_with_empty_arm():
    """The second branch is Choice C with arms {B} and {} (C -> M)."""
    return _racy_fork(
        [("C", ActivityKind.CHOICE), ("M", ActivityKind.MERGE)],
        [("F", "C"), ("C", "B"), ("C", "M"), ("B", "M"), ("M", "J")],
    )


def loop_with_empty_body():
    """The second branch is a loop H -> L with back edge L -> H, then B."""
    return _racy_fork(
        [("H", ActivityKind.MERGE), ("L", ActivityKind.CHOICE)],
        [("F", "H"), ("H", "L"), ("L", "H"), ("L", "B"), ("B", "J")],
    )


@pytest.mark.parametrize("build", [choice_with_empty_arm, loop_with_empty_body])
def test_rejected_structure_has_no_regions(build):
    pd = build()
    assert [f.code for f in check_process_findings(pd)] == ["E104"]
    assert fork_regions(pd) == ()
    assert concurrency_findings(pd) == []
