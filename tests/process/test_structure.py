"""AST <-> graph conversion: elaboration, recovery, back edges, round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConversionError
from repro.process import (
    Activity,
    ActivityKind,
    ActivityNode,
    Atom,
    ChoiceNode,
    ForkNode,
    IterativeNode,
    ProcessDescription,
    SequenceNode,
    TRUE,
    ast_to_process,
    find_back_edges,
    normalize_ast,
    parse_process,
    process_to_ast,
    seq,
    validate_process,
)

FIG10 = (
    "BEGIN; POD; P3DR1; "
    '{ITERATIVE {COND D12.Value > 8} '
    "{POR; {FORK {P3DR2} {P3DR3} {P3DR4} JOIN}; PSF}}; END"
)


class TestElaboration:
    def test_sequential(self):
        pd = ast_to_process(parse_process("BEGIN; A; B; END"))
        assert pd.successors("BEGIN") == ("A",)
        assert pd.successors("A") == ("B",)
        assert pd.successors("B") == ("END",)

    def test_fork_join_pair_created(self):
        pd = ast_to_process(parse_process("BEGIN; {FORK {A} {B} JOIN}; END"))
        assert pd.activity("FORK1").kind is ActivityKind.FORK
        assert pd.activity("JOIN1").kind is ActivityKind.JOIN
        assert set(pd.successors("FORK1")) == {"A", "B"}
        assert set(pd.predecessors("JOIN1")) == {"A", "B"}

    def test_choice_merge_conditions_attached(self):
        pd = ast_to_process(
            parse_process(
                'BEGIN; {CHOICE {COND X.Size > 1} {A} {COND true} {B} MERGE}; END'
            )
        )
        tr = pd.transition_between("CHOICE1", "A")
        assert tr.condition == Atom("X", "Size", ">", 1)

    def test_loop_back_edge(self):
        pd = ast_to_process(
            parse_process('BEGIN; {ITERATIVE {COND X.Size > 1} {A}}; END')
        )
        # merge-first topology: MERGE1 -> A -> CHOICE1 -> {MERGE1, END}
        assert pd.successors("MERGE1") == ("A",)
        assert set(pd.successors("CHOICE1")) == {"MERGE1", "END"}
        assert find_back_edges(pd) == [("CHOICE1", "MERGE1")]

    def test_duplicate_activity_name_rejected(self):
        with pytest.raises(ConversionError):
            ast_to_process(parse_process("BEGIN; A; A; END"))

    def test_library_binding(self):
        lib = {"A": Activity("A", service="SVC", inputs=("D1",), outputs=("D2",))}
        pd = ast_to_process(parse_process("BEGIN; A; END"), library=lib)
        assert pd.activity("A").service == "SVC"
        assert pd.activity("A").inputs == ("D1",)

    def test_fig10_census(self):
        pd = ast_to_process(parse_process(FIG10), name="3DSD")
        assert len(pd.end_user_activities()) == 7
        assert len(pd.flow_control_activities()) == 6
        assert len(pd.transitions) == 15
        validate_process(pd)


class TestRecovery:
    @pytest.mark.parametrize(
        "text",
        [
            "BEGIN; A; END",
            "BEGIN; A; B; C; END",
            "BEGIN; {FORK {A} {B} JOIN}; END",
            "BEGIN; {FORK {A; B} {C} {D} JOIN}; END",
            'BEGIN; {CHOICE {COND X.Size > 1} {A} {COND true} {B} MERGE}; END',
            'BEGIN; {ITERATIVE {COND X.Size > 1} {A; B}}; END',
            FIG10,
            # nested constructs
            "BEGIN; {FORK {{FORK {A} {B} JOIN}} {C} JOIN}; END",
            'BEGIN; {ITERATIVE {COND X.v > 1} {{ITERATIVE {COND Y.v > 1} {A}}}}; END',
            'BEGIN; {CHOICE {COND true} {{FORK {A} {B} JOIN}} {COND true} {C} MERGE}; D; END',
        ],
    )
    def test_roundtrip(self, text):
        ast = parse_process(text)
        pd = ast_to_process(ast)
        assert process_to_ast(pd) == normalize_ast(ast)

    def test_recovered_composites_carry_their_anchors(self):
        text = (
            "BEGIN; {ITERATIVE {COND X.v > 1} "
            "{{CHOICE {COND Y.v = 1} {A} {COND true} {B} MERGE}; "
            "{FORK {C} {D} JOIN}}}; END"
        )
        ast = parse_process(text)
        recovered = process_to_ast(ast_to_process(ast))
        assert recovered == normalize_ast(ast)
        assert hash(recovered) == hash(normalize_ast(ast))
        assert repr(recovered) == repr(normalize_ast(ast))
        anchors = {
            type(node).__name__: node.anchor
            for node in recovered.walk()
            if not isinstance(node, (ActivityNode, SequenceNode))
        }
        assert anchors == {
            "IterativeNode": ("MERGE1", "CHOICE1"),
            "ChoiceNode": ("CHOICE2", "MERGE2"),
            "ForkNode": ("FORK1", "JOIN1"),
        }
        assert all(
            node.anchor is None
            for node in ast.walk()
            if not isinstance(node, (ActivityNode, SequenceNode))
        )

    def test_loop_containing_choice(self):
        text = (
            'BEGIN; {ITERATIVE {COND X.v > 1} '
            '{{CHOICE {COND Y.v = 1} {A} {COND true} {B} MERGE}; C}}; END'
        )
        ast = parse_process(text)
        pd = ast_to_process(ast)
        assert process_to_ast(pd) == normalize_ast(ast)

    def test_unstructured_fork_rejected(self):
        pd = ProcessDescription("bad")
        pd.add("BEGIN", ActivityKind.BEGIN)
        pd.add("END", ActivityKind.END)
        pd.add("F", ActivityKind.FORK)
        pd.add("A")
        pd.add("B")
        pd.add("J1", ActivityKind.JOIN)
        pd.add("J2", ActivityKind.JOIN)
        pd.add("C")
        pd.add("D")
        pd.connect("BEGIN", "F")
        pd.connect("F", "A")
        pd.connect("F", "B")
        pd.connect("A", "J1")
        pd.connect("B", "J2")
        pd.connect("C", "J1")
        pd.connect("D", "J2")
        pd.connect("J1", "END")  # branches converge on different joins
        with pytest.raises(ConversionError):
            process_to_ast(pd)

    def test_empty_branch_rejected(self):
        pd = ProcessDescription("bad")
        pd.add("BEGIN", ActivityKind.BEGIN)
        pd.add("END", ActivityKind.END)
        pd.add("F", ActivityKind.FORK)
        pd.add("A")
        pd.add("J", ActivityKind.JOIN)
        pd.connect("BEGIN", "F")
        pd.connect("F", "A")
        pd.connect("F", "J")  # empty branch straight to join
        pd.connect("A", "J")
        pd.connect("J", "END")
        with pytest.raises(ConversionError):
            process_to_ast(pd)

    def test_back_edge_not_choice_to_merge_rejected(self):
        pd = ProcessDescription("bad")
        pd.add("BEGIN", ActivityKind.BEGIN)
        pd.add("END", ActivityKind.END)
        pd.add("M", ActivityKind.MERGE)
        pd.add("A")
        pd.add("B")
        pd.connect("BEGIN", "M")
        pd.connect("M", "A")
        pd.connect("A", "B")
        pd.connect("B", "M")  # back edge from an end-user activity
        pd.connect("A", "END")  # (also makes A out-degree 2, unstructured)
        with pytest.raises(ConversionError):
            process_to_ast(pd)


# -- property: elaborate-then-recover is identity on normalized ASTs ----------- #
_names = st.sampled_from([f"N{i}" for i in range(40)])
_conds = st.one_of(
    st.just(TRUE),
    st.builds(Atom, _names, st.just("Size"), st.just(">"), st.integers(0, 9)),
)


@st.composite
def _unique_ast(draw):
    """Random AST with globally unique activity names (graph requirement)."""
    counter = [0]

    def fresh_leaf():
        counter[0] += 1
        return ActivityNode(f"U{counter[0]}")

    def build(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return fresh_leaf()
        kind = draw(st.sampled_from(["seq", "fork", "choice", "iter"]))
        if kind == "seq":
            return seq(*[build(depth - 1) for _ in range(draw(st.integers(2, 4)))])
        if kind == "fork":
            return ForkNode(
                tuple(build(depth - 1) for _ in range(draw(st.integers(2, 3))))
            )
        if kind == "choice":
            return ChoiceNode(
                tuple(
                    (draw(_conds), build(depth - 1))
                    for _ in range(draw(st.integers(2, 3)))
                )
            )
        return IterativeNode(draw(_conds), build(depth - 1))

    return build(3)


@given(_unique_ast())
@settings(max_examples=120, deadline=None)
def test_elaborate_recover_identity(ast):
    pd = ast_to_process(ast)
    validate_process(pd)
    assert process_to_ast(pd) == normalize_ast(ast)
