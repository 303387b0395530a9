"""Conversions between plan trees, ASTs and process descriptions.

The paper converts in both directions (Figures 4-7 illustrate the pairs):

* :func:`ast_to_tree` — drop conditions, map Fork->Concurrent,
  Choice->Selective, Iterative->Iterative, Sequence->Sequential.
* :func:`tree_to_ast` — the inverse; selective/iterative nodes get ``true``
  conditions unless a *condition_provider* supplies real ones (the planning
  service wires in goal-derived conditions when emitting a final plan).
* :func:`tree_to_process` / :func:`process_to_tree` — compose the above
  with :mod:`repro.process.structure`.  Because a plan tree may use the same
  end-user activity several times while graph activity names must be
  unique, ``tree_to_process`` renames repeated occurrences ``X, X_2, X_3``
  — all bound to service ``X``, skipping any ``X_<n>`` the tree already
  uses as an activity — mirroring the paper's ``P3DR1..P3DR4``
  convention.

Normalization: single-child concurrent/selective/iterative-with-no-loop
semantics degenerate; ``tree_to_ast`` collapses single-child CONCURRENT and
SELECTIVE controllers into their lone child (their semantics coincide with
plain sequencing), and nested SEQUENTIAL controllers flatten.  The
round-trip property therefore holds on *normalized* trees
(:func:`normalize`).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping

from repro.errors import ConversionError
from repro.plan.tree import (
    Controller,
    ControllerKind,
    PlanNode,
    Terminal,
)
from repro.process.ast_nodes import (
    ActivityNode,
    ChoiceNode,
    ForkNode,
    IterativeNode,
    Node,
    SequenceNode,
    seq,
)
from repro.process.conditions import TRUE, Condition
from repro.process.model import Activity, ActivityKind, ProcessDescription
from repro.process.structure import ast_to_process, process_to_ast

__all__ = [
    "ast_to_tree",
    "tree_to_ast",
    "tree_to_process",
    "process_to_tree",
    "normalize",
    "plan_activity_name",
]

ConditionProvider = Callable[[Controller], Condition]


def _true_provider(node: Controller) -> Condition:
    return TRUE


def ast_to_tree(ast: Node) -> PlanNode:
    """Map a process-description AST onto a plan tree (conditions dropped)."""
    if isinstance(ast, ActivityNode):
        return Terminal(ast.name)
    if isinstance(ast, SequenceNode):
        return Controller(
            ControllerKind.SEQUENTIAL,
            tuple(ast_to_tree(child) for child in ast.children),
        )
    if isinstance(ast, ForkNode):
        return Controller(
            ControllerKind.CONCURRENT,
            tuple(ast_to_tree(branch) for branch in ast.branches),
        )
    if isinstance(ast, ChoiceNode):
        return Controller(
            ControllerKind.SELECTIVE,
            tuple(ast_to_tree(branch) for _, branch in ast.branches),
        )
    if isinstance(ast, IterativeNode):
        body = ast.body
        # Loop bodies that are sequences become the iterative node's child
        # list, matching Figure 11 where Iterative has children POR,
        # Concurrent, PSF rather than a single Sequential child.
        children = (
            tuple(ast_to_tree(child) for child in body.children)
            if isinstance(body, SequenceNode)
            else (ast_to_tree(body),)
        )
        return Controller(ControllerKind.ITERATIVE, children)
    raise ConversionError(f"cannot convert AST node {type(ast).__name__}")


def tree_to_ast(
    tree: PlanNode,
    condition_provider: ConditionProvider | None = None,
) -> Node:
    """Map a plan tree back onto an AST.

    *condition_provider* is called once per SELECTIVE / ITERATIVE controller
    to obtain the guarding condition (default: ``true``).  For SELECTIVE
    nodes the provided condition guards the first branch; remaining branches
    get ``true`` (default) guards — the planner refines these later.
    """
    provider = condition_provider or _true_provider
    return _to_ast(tree, provider)


def _to_ast(tree: PlanNode, provider: ConditionProvider) -> Node:
    if isinstance(tree, Terminal):
        return ActivityNode(tree.activity)
    assert isinstance(tree, Controller)
    kind = tree.kind
    if kind is ControllerKind.SEQUENTIAL:
        return seq(*(_to_ast(child, provider) for child in tree.children))
    if kind is ControllerKind.CONCURRENT:
        if len(tree.children) == 1:
            return _to_ast(tree.children[0], provider)
        return ForkNode(tuple(_to_ast(child, provider) for child in tree.children))
    if kind is ControllerKind.SELECTIVE:
        if len(tree.children) == 1:
            return _to_ast(tree.children[0], provider)
        first = provider(tree)
        branches = []
        for idx, child in enumerate(tree.children):
            condition = first if idx == 0 else TRUE
            branches.append((condition, _to_ast(child, provider)))
        return ChoiceNode(tuple(branches))
    if kind is ControllerKind.ITERATIVE:
        body = seq(*(_to_ast(child, provider) for child in tree.children))
        return IterativeNode(provider(tree), body)
    raise ConversionError(f"unknown controller kind {kind!r}")


def normalize(tree: PlanNode) -> PlanNode:
    """Canonical form: flatten nested sequentials, collapse trivial nodes.

    * single-child SEQUENTIAL / CONCURRENT / SELECTIVE controllers collapse
      to their child (their execution semantics are identical);
    * a SEQUENTIAL child of a SEQUENTIAL parent splices its children into
      the parent;
    * ITERATIVE nodes keep their children but a SEQUENTIAL single child is
      spliced (Figure-11 convention).

    Normalization never changes the set of execution traces of the plan.
    """
    if isinstance(tree, Terminal):
        return tree
    assert isinstance(tree, Controller)
    children = tuple(normalize(child) for child in tree.children)
    kind = tree.kind
    if kind is ControllerKind.ITERATIVE:
        if len(children) == 1 and (
            isinstance(children[0], Controller)
            and children[0].kind is ControllerKind.SEQUENTIAL
        ):
            children = children[0].children
        return Controller(kind, children)
    if len(children) == 1 and kind in (
        ControllerKind.SEQUENTIAL,
        ControllerKind.CONCURRENT,
        ControllerKind.SELECTIVE,
    ):
        return children[0]
    if kind is ControllerKind.SEQUENTIAL:
        flat: list[PlanNode] = []
        for child in children:
            if isinstance(child, Controller) and child.kind is ControllerKind.SEQUENTIAL:
                flat.extend(child.children)
            else:
                flat.append(child)
        children = tuple(flat)
    return Controller(kind, children)


def tree_to_process(
    tree: PlanNode,
    name: str = "plan",
    library: Mapping[str, Activity] | None = None,
    condition_provider: ConditionProvider | None = None,
) -> ProcessDescription:
    """Elaborate a plan tree all the way to a process-description graph.

    Repeated activity occurrences are renamed ``X, X_2, X_3, ...`` with the
    service field of every occurrence bound to the original name
    (:func:`plan_activity_name` maps a graph name back).  A repeat takes
    the next ``X_<n>`` that no terminal of the tree is named, so a real
    activity ``X_2`` keeps its own name.
    """
    taken = set(tree.activities())
    # activity -> the last suffix given to it (1: its first occurrence).
    counts: dict[str, int] = {}
    base_lib = dict(library or {})

    def rename(node: PlanNode) -> PlanNode:
        if isinstance(node, Terminal):
            activity = node.activity
            if activity not in counts:
                counts[activity] = 1
                return node
            n = counts[activity] + 1
            while f"{activity}_{n}" in taken:
                n += 1
            counts[activity] = n
            return Terminal(f"{activity}_{n}")
        assert isinstance(node, Controller)
        return Controller(node.kind, tuple(rename(c) for c in node.children))

    renamed = rename(tree)

    def factory(name_: str) -> Activity:
        original = plan_activity_name(name_, counts)
        template = base_lib.get(original)
        if template is not None:
            return Activity(
                name_,
                ActivityKind.END_USER,
                template.service or original,
                template.inputs,
                template.outputs,
                template.constraint,
            )
        return Activity(name_, ActivityKind.END_USER, original)

    ast = tree_to_ast(normalize(renamed), condition_provider)
    return ast_to_process(ast, name=name, library=factory)


def plan_activity_name(name: str, activities: Collection[str]) -> str:
    """The plan activity behind graph activity *name*, undoing
    :func:`tree_to_process`'s ``X_2`` renaming against *activities* (the
    problem's activity set T): *name* itself when it is in T, else ``X``
    when *name* is ``X_<digits>`` and ``X`` is in T, else *name*."""
    if name in activities:
        return name
    base, _, suffix = name.rpartition("_")
    if suffix.isdigit() and base in activities:
        return base
    return name


def process_to_tree(pd: ProcessDescription) -> PlanNode:
    """Recover the plan tree of a well-structured process description."""
    return ast_to_tree(process_to_ast(pd))
