"""Tree <-> AST <-> process conversions (Figures 4-7, 10-11)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import (
    ast_to_tree,
    concurrent,
    iterative,
    normalize,
    plan_activity_name,
    process_to_tree,
    random_tree,
    selective,
    sequential,
    terminal,
    tree_to_ast,
    tree_to_process,
)
from repro.process import (
    Atom,
    IterativeNode,
    parse_process,
    validate_process,
)
from repro.process.conditions import TRUE


FIG10_TEXT = (
    "BEGIN; POD; P3DR1; "
    '{ITERATIVE {COND D12.Value > 8} '
    "{POR; {FORK {P3DR2} {P3DR3} {P3DR4} JOIN}; PSF}}; END"
)
FIG11_TREE = sequential(
    "POD", "P3DR1", iterative("POR", concurrent("P3DR2", "P3DR3", "P3DR4"), "PSF")
)


class TestAstTree:
    def test_fig10_to_fig11(self):
        assert ast_to_tree(parse_process(FIG10_TEXT)) == FIG11_TREE

    def test_iterative_sequence_body_becomes_children(self):
        ast = parse_process("BEGIN; {ITERATIVE {COND X.v > 1} {A; B; C}}; END")
        tree = ast_to_tree(ast)
        assert len(tree.children) == 3

    def test_tree_to_ast_true_conditions(self):
        ast = tree_to_ast(FIG11_TREE)
        loop = ast.children[2]
        assert isinstance(loop, IterativeNode)
        assert loop.condition is TRUE

    def test_tree_to_ast_condition_provider(self):
        cond = Atom("D12", "Value", ">", 8)
        ast = tree_to_ast(FIG11_TREE, condition_provider=lambda node: cond)
        assert ast.children[2].condition == cond

    def test_single_child_concurrent_collapses(self):
        tree = sequential("A", concurrent("B"))
        ast = tree_to_ast(tree)
        assert ast.activity_names() == ["A", "B"]
        # round-trip yields the normalized tree
        assert ast_to_tree(ast) == normalize(tree)


class TestNormalize:
    def test_flatten_nested_sequential(self):
        tree = sequential("A", sequential("B", "C"))
        assert normalize(tree) == sequential("A", "B", "C")

    def test_collapse_single_child(self):
        assert normalize(selective(terminal("A"))) == terminal("A")
        assert normalize(concurrent(terminal("A"))) == terminal("A")
        assert normalize(sequential(terminal("A"))) == terminal("A")

    def test_iterative_keeps_identity(self):
        tree = iterative("A")
        assert normalize(tree) == tree

    def test_iterative_splices_sequential_child(self):
        tree = iterative(sequential("A", "B"))
        assert normalize(tree) == iterative("A", "B")

    def test_idempotent(self):
        tree = sequential("A", sequential(selective(terminal("B")), "C"))
        once = normalize(tree)
        assert normalize(once) == once


class TestTreeProcess:
    def test_fig11_to_process_census(self):
        pd = tree_to_process(FIG11_TREE, name="3DSD")
        validate_process(pd)
        assert len(pd.end_user_activities()) == 7
        assert len(pd.transitions) == 15

    def test_roundtrip(self):
        pd = tree_to_process(FIG11_TREE)
        assert normalize(process_to_tree(pd)) == normalize(FIG11_TREE)

    def test_duplicate_activities_renamed(self):
        tree = sequential("P3DR", "P3DR", "P3DR")
        pd = tree_to_process(tree)
        names = [a.name for a in pd.end_user_activities()]
        assert names == ["P3DR", "P3DR_2", "P3DR_3"]
        # all occurrences share one service
        assert {a.service for a in pd.end_user_activities()} == {"P3DR"}

    def test_renamed_activities_inherit_library_bindings(self):
        from repro.process import Activity

        lib = {"X": Activity("X", service="SVC", inputs=("D1",), outputs=("D2",))}
        pd = tree_to_process(sequential("X", "X"), library=lib)
        renamed = pd.activity("X_2")
        assert renamed.service == "SVC"
        assert renamed.inputs == ("D1",)

    def test_digit_suffixed_activity_keeps_its_own_binding(self):
        from repro.process import Activity

        # "stage_1" is an activity of its own, not a renamed "stage".
        lib = {"stage_1": Activity("stage_1", service="SVC")}
        pd = tree_to_process(sequential("stage_1", "stage_1"), library=lib)
        assert [(a.name, a.service) for a in pd.end_user_activities()] == [
            ("stage_1", "SVC"),
            ("stage_1_2", "SVC"),
        ]

    def test_repeat_skips_a_real_activity_named_like_its_rename(self):
        # T holds both "X" and "X_2": the second "X" must not take "X_2".
        tree = sequential("X", "X", "X_2")
        pd = tree_to_process(tree)
        activities = [(a.name, a.service) for a in pd.end_user_activities()]
        assert activities == [("X", "X"), ("X_3", "X"), ("X_2", "X_2")]
        assert [
            plan_activity_name(name, {"X", "X_2"}) for name, _ in activities
        ] == ["X", "X", "X_2"]

    @pytest.mark.parametrize(
        ("name", "original"),
        [
            ("P3DR_3", "P3DR"),
            ("stage_1", "stage_1"),
            ("stage_1_2", "stage_1"),
            ("ghost_2", "ghost_2"),
        ],
    )
    def test_plan_activity_name_undoes_the_renaming(self, name, original):
        assert plan_activity_name(name, {"P3DR", "stage_1"}) == original


@given(
    st.integers(0, 10_000),
    st.integers(1, 40),
)
@settings(max_examples=100, deadline=None)
def test_random_tree_process_roundtrip(seed, size):
    tree = random_tree(["A", "B", "C"], size=size, max_size=40, rng=seed)
    pd = tree_to_process(tree)
    validate_process(pd)
    recovered = process_to_tree(pd)

    def services(t):
        """Multiset of services in execution order, via the rename scheme."""
        out = []
        for name in t.activities():
            base, _, suffix = name.rpartition("_")
            out.append(base if suffix.isdigit() and base else name)
        return out

    assert services(recovered) == services(normalize(tree))
