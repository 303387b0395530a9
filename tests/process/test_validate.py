"""Structural validation rules (Section 3.1 degree constraints etc.)."""

import pytest

from repro.errors import ProcessStructureError
from repro.process import (
    ActivityKind,
    ProcessDescription,
    TRUE,
    check_process,
    parse_process,
    ast_to_process,
    validate_process,
)


def minimal():
    pd = ProcessDescription("min")
    pd.add("BEGIN", ActivityKind.BEGIN)
    pd.add("A")
    pd.add("END", ActivityKind.END)
    pd.connect("BEGIN", "A")
    pd.connect("A", "END")
    return pd


def test_minimal_valid():
    validate_process(minimal())
    assert check_process(minimal()) == []


def test_missing_begin():
    pd = ProcessDescription("x")
    pd.add("A")
    pd.add("END", ActivityKind.END)
    pd.connect("A", "END")
    problems = check_process(pd)
    assert any("Begin" in p for p in problems)


def test_two_ends():
    pd = minimal()
    pd.add("END2", ActivityKind.END)
    problems = check_process(pd)
    assert any("one End" in p for p in problems)


def test_end_user_degree_rule():
    pd = minimal()
    pd.add("B")
    pd.connect("A", "B")  # A now has out-degree 2; B has no successor
    problems = check_process(pd)
    assert any("'A'" in p and "out-degree" in p for p in problems)


def test_fork_needs_two_successors():
    pd = ProcessDescription("x")
    pd.add("BEGIN", ActivityKind.BEGIN)
    pd.add("F", ActivityKind.FORK)
    pd.add("A")
    pd.add("END", ActivityKind.END)
    pd.connect("BEGIN", "F")
    pd.connect("F", "A")
    pd.connect("A", "END")
    problems = check_process(pd)
    assert any("'F'" in p for p in problems)


def test_unreachable_activity_detected():
    pd = minimal()
    pd.add("orphan")
    problems = check_process(pd)
    assert any("unreachable" in p.lower() for p in problems)
    assert any("cannot reach End" in p for p in problems)


def test_condition_only_on_choice_transitions():
    pd = minimal()
    pd.set_condition("A", "END", TRUE)
    problems = check_process(pd)
    assert any("condition" in p for p in problems)


def test_structured_check_catches_bad_pairing():
    # Fork closed by a Merge instead of a Join.
    pd = ProcessDescription("x")
    pd.add("BEGIN", ActivityKind.BEGIN)
    pd.add("F", ActivityKind.FORK)
    pd.add("A")
    pd.add("B")
    pd.add("M", ActivityKind.MERGE)
    pd.add("END", ActivityKind.END)
    pd.connect("BEGIN", "F")
    pd.connect("F", "A")
    pd.connect("F", "B")
    pd.connect("A", "M")
    pd.connect("B", "M")
    pd.connect("M", "END")
    problems = check_process(pd)
    assert any("well-structured" in p for p in problems)
    # Degree rules alone are satisfied: pairing is the only problem.
    assert len(problems) == 1


def test_validate_raises_with_all_problems():
    pd = ProcessDescription("x")
    pd.add("A")
    with pytest.raises(ProcessStructureError) as err:
        validate_process(pd)
    assert "invalid" in str(err.value)


def test_figure10_text_is_valid():
    pd = ast_to_process(
        parse_process(
            "BEGIN; POD; P3DR1; {ITERATIVE {COND D12.Value > 8} "
            "{POR; {FORK {P3DR2} {P3DR3} {P3DR4} JOIN}; PSF}}; END"
        )
    )
    validate_process(pd)
