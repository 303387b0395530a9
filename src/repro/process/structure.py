"""Bidirectional conversion between ASTs and ATN process graphs.

Two operations:

* :func:`ast_to_process` *elaborates* an AST into a
  :class:`~repro.process.model.ProcessDescription`, synthesizing the paired
  flow-control activities the paper prescribes — each :class:`ForkNode`
  becomes a ``FORKi``/``JOINi`` pair, each :class:`ChoiceNode` a
  ``CHOICEi``/``MERGEi`` pair (choice first), and each
  :class:`IterativeNode` a ``MERGEi``/``CHOICEi`` pair with a back edge
  (merge first), exactly as in Figures 4-7 and the Figure-10 case study.

* :func:`process_to_ast` *recovers* the AST from a well-structured graph.
  Loops are identified by DFS back-edge analysis (a back edge must run from
  a latch ``Choice`` to its loop-head ``Merge``), after which a single
  recursive region parser handles all four constructs.  Graphs that are not
  well-structured (unmatched Fork/Join, branches converging on different
  merges, multi-exit loops, empty arms or bodies...) raise
  :class:`ConversionError` with a description of the offending region.
  Each recovered Fork, Choice and Iterative node carries the *anchor* it
  was recovered from (its FORK/JOIN, CHOICE/MERGE or loop-head MERGE/latch
  CHOICE names).  This is the only parser of the region grammar: the
  structural check (E104) and the concurrency verifier's fork regions
  both read its result.

Round-tripping ``process_to_ast(ast_to_process(ast))`` returns an AST equal
to the normalized original — a property test in the suite.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.errors import ConversionError
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

__all__ = ["ast_to_process", "process_to_ast", "find_back_edges"]

BEGIN_NAME = "BEGIN"
END_NAME = "END"

ActivityFactory = Callable[[str], Activity]


def _default_factory(name: str) -> Activity:
    return Activity(name, ActivityKind.END_USER)


def _factory_from(
    library: Mapping[str, Activity] | ActivityFactory | None,
) -> ActivityFactory:
    if library is None:
        return _default_factory
    if callable(library):
        return library

    def lookup(name: str) -> Activity:
        activity = library.get(name)
        if activity is None:
            return _default_factory(name)
        if activity.kind is not ActivityKind.END_USER:
            raise ConversionError(
                f"library entry {name!r} is not an end-user activity"
            )
        return activity

    return lookup


class _Elaborator:
    """AST -> graph, generating FORKi/JOINi/CHOICEi/MERGEi names."""

    def __init__(self, name: str, factory: ActivityFactory) -> None:
        self.pd = ProcessDescription(name)
        self.factory = factory
        self._counters = {"FORK": 0, "JOIN": 0, "CHOICE": 0, "MERGE": 0}

    def fresh(self, kind: str) -> str:
        self._counters[kind] += 1
        candidate = f"{kind}{self._counters[kind]}"
        while self.pd.has_activity(candidate):
            self._counters[kind] += 1
            candidate = f"{kind}{self._counters[kind]}"
        return candidate

    def run(self, ast: Node) -> ProcessDescription:
        self.pd.add(BEGIN_NAME, ActivityKind.BEGIN)
        self.pd.add(END_NAME, ActivityKind.END)
        first, last = self.emit(ast)
        self.pd.connect(BEGIN_NAME, first)
        self.pd.connect(last, END_NAME)
        return self.pd

    def emit(self, node: Node) -> tuple[str, str]:
        """Add *node*'s activities; return (entry, exit) activity names."""
        if isinstance(node, ActivityNode):
            if self.pd.has_activity(node.name):
                raise ConversionError(
                    f"activity {node.name!r} occurs more than once; graph "
                    f"activity names must be unique (use P3DR1/P3DR2-style "
                    f"names sharing one service)"
                )
            self.pd.add_activity(self.factory(node.name))
            return node.name, node.name

        if isinstance(node, SequenceNode):
            first, last = self.emit(node.children[0])
            for child in node.children[1:]:
                entry, exit_ = self.emit(child)
                self.pd.connect(last, entry)
                last = exit_
            return first, last

        if isinstance(node, ForkNode):
            fork = self.pd.add(self.fresh("FORK"), ActivityKind.FORK).name
            join = self.pd.add(self.fresh("JOIN"), ActivityKind.JOIN).name
            for branch in node.branches:
                entry, exit_ = self.emit(branch)
                self.pd.connect(fork, entry)
                self.pd.connect(exit_, join)
            return fork, join

        if isinstance(node, ChoiceNode):
            choice = self.pd.add(self.fresh("CHOICE"), ActivityKind.CHOICE).name
            merge = self.pd.add(self.fresh("MERGE"), ActivityKind.MERGE).name
            for condition, branch in node.branches:
                entry, exit_ = self.emit(branch)
                self.pd.connect(choice, entry, condition=condition)
                self.pd.connect(exit_, merge)
            return choice, merge

        if isinstance(node, IterativeNode):
            merge = self.pd.add(self.fresh("MERGE"), ActivityKind.MERGE).name
            choice = self.pd.add(self.fresh("CHOICE"), ActivityKind.CHOICE).name
            entry, exit_ = self.emit(node.body)
            self.pd.connect(merge, entry)
            self.pd.connect(exit_, choice)
            # Back edge (continue looping) carries the iterative condition;
            # the forward edge to whatever follows is wired by the caller via
            # the returned exit (= the choice), with the negated condition.
            self.pd.connect(choice, merge, condition=node.condition)
            return merge, choice

        raise ConversionError(f"cannot elaborate node type {type(node).__name__}")


def ast_to_process(
    ast: Node,
    name: str = "process",
    library: Mapping[str, Activity] | ActivityFactory | None = None,
) -> ProcessDescription:
    """Elaborate *ast* into a process-description graph.

    *library* (mapping or factory) supplies full :class:`Activity` records
    — service bindings, input/output data sets — for the activity names in
    the AST; names not covered get bare end-user activities.
    """
    return _Elaborator(name, _factory_from(library)).run(ast)


def find_back_edges(pd: ProcessDescription) -> list[tuple[str, str]]:
    """DFS back edges reachable from BEGIN, in discovery order.

    In a well-structured process description every back edge runs from a
    loop-latch ``Choice`` to its loop-head ``Merge``.
    """
    begin = pd.begin().name
    color: dict[str, int] = {}  # 1 = on stack (gray), 2 = done (black)
    back: list[tuple[str, str]] = []
    # Iterative DFS that preserves successor order and tracks gray nodes.
    stack: list[tuple[str, int]] = [(begin, 0)]
    color[begin] = 1
    while stack:
        node, idx = stack[-1]
        successors = pd.successors(node)
        if idx < len(successors):
            stack[-1] = (node, idx + 1)
            nxt = successors[idx]
            state = color.get(nxt, 0)
            if state == 0:
                color[nxt] = 1
                stack.append((nxt, 0))
            elif state == 1:
                back.append((node, nxt))
        else:
            color[node] = 2
            stack.pop()
    return back


class _Recoverer:
    """Graph -> AST region parser."""

    def __init__(self, pd: ProcessDescription) -> None:
        self.pd = pd
        back = find_back_edges(pd)
        self.latch_of: dict[str, str] = {}  # latch choice -> loop-head merge
        self.loop_heads: set[str] = set()
        for source, target in back:
            src_kind = pd.activity(source).kind
            dst_kind = pd.activity(target).kind
            if src_kind is not ActivityKind.CHOICE or dst_kind is not ActivityKind.MERGE:
                raise ConversionError(
                    f"back edge {source!r} -> {target!r} does not run from a "
                    f"Choice latch to a Merge loop head; graph is unstructured"
                )
            if source in self.latch_of:
                raise ConversionError(
                    f"choice {source!r} latches more than one loop"
                )
            self.latch_of[source] = target
            self.loop_heads.add(target)

    def run(self) -> Node:
        begin = self.pd.begin().name
        end = self.pd.end().name
        successors = self.pd.successors(begin)
        if len(successors) != 1:
            raise ConversionError(
                f"BEGIN must have exactly one successor, has {len(successors)}"
            )
        body, stop = self.parse_region(successors[0])
        if stop != end:
            raise ConversionError(
                f"top-level region ended at {stop!r} instead of END"
            )
        if body is None:
            raise ConversionError("process description has an empty body")
        return body

    # The region parser walks forward from *start*, consuming structured
    # constructs, and returns (ast-or-None, sentinel) where the sentinel is
    # the activity that terminated the region: END, an unopened Join, an
    # unopened (non-loop-head) Merge, or a loop-latch Choice.
    def parse_region(self, start: str) -> tuple[Node | None, str]:
        items: list[Node] = []
        current = start
        while True:
            activity = self.pd.activity(current)
            kind = activity.kind
            if kind is ActivityKind.END:
                return self._finish(items), current
            if kind is ActivityKind.JOIN:
                return self._finish(items), current
            if kind is ActivityKind.BEGIN:
                raise ConversionError("BEGIN reached mid-region")
            if kind is ActivityKind.MERGE:
                if current in self.loop_heads:
                    node, current = self.parse_loop(current)
                    items.append(node)
                    continue
                return self._finish(items), current
            if kind is ActivityKind.CHOICE:
                if current in self.latch_of:
                    return self._finish(items), current
                node, current = self.parse_selective(current)
                items.append(node)
                continue
            if kind is ActivityKind.FORK:
                node, current = self.parse_fork(current)
                items.append(node)
                continue
            # End-user activity.
            items.append(ActivityNode(current))
            current = self._sole_successor(current)

    def _finish(self, items: list[Node]) -> Node | None:
        if not items:
            return None
        return seq(*items)

    def _sole_successor(self, name: str) -> str:
        successors = self.pd.successors(name)
        if len(successors) != 1:
            raise ConversionError(
                f"activity {name!r} must have exactly one successor, "
                f"has {len(successors)}"
            )
        return successors[0]

    def parse_loop(self, head: str) -> tuple[IterativeNode, str]:
        """Parse an iterative region whose loop-head Merge is *head*."""
        body_start = self._sole_successor(head)
        body, latch = self.parse_region(body_start)
        latch_activity = self.pd.activity(latch)
        if latch_activity.kind is not ActivityKind.CHOICE or self.latch_of.get(latch) != head:
            raise ConversionError(
                f"loop at merge {head!r} does not close at a matching "
                f"Choice latch (region ended at {latch!r})"
            )
        if body is None:
            raise ConversionError(f"loop at merge {head!r} has an empty body")
        successors = self.pd.successors(latch)
        if len(successors) != 2:
            raise ConversionError(
                f"loop latch {latch!r} must have exactly two successors "
                f"(back edge + exit), has {len(successors)}"
            )
        exits = [s for s in successors if s != head]
        if len(exits) != 1:
            raise ConversionError(f"loop latch {latch!r} has no exit edge")
        back_tr = self.pd.transition_between(latch, head)
        condition = back_tr.condition if back_tr.condition is not None else TRUE
        return IterativeNode(condition, body, anchor=(head, latch)), exits[0]

    def parse_fork(self, fork: str) -> tuple[ForkNode, str]:
        """Parse a Fork/Join concurrent region starting at *fork*."""
        successors = self.pd.successors(fork)
        if len(successors) < 2:
            raise ConversionError(
                f"fork {fork!r} must have at least two successors"
            )
        branches: list[Node] = []
        joins: set[str] = set()
        for succ in successors:
            branch, sentinel = self.parse_region(succ)
            if self.pd.activity(sentinel).kind is not ActivityKind.JOIN:
                raise ConversionError(
                    f"branch of fork {fork!r} ended at {sentinel!r} "
                    f"instead of a Join"
                )
            if branch is None:
                raise ConversionError(
                    f"fork {fork!r} has an empty branch to {sentinel!r}"
                )
            joins.add(sentinel)
            branches.append(branch)
        if len(joins) != 1:
            raise ConversionError(
                f"branches of fork {fork!r} converge on different joins: "
                f"{sorted(joins)}"
            )
        join = joins.pop()
        return ForkNode(tuple(branches), anchor=(fork, join)), self._sole_successor(join)

    def parse_selective(self, choice: str) -> tuple[ChoiceNode, str]:
        """Parse a Choice/Merge selective region starting at *choice*."""
        successors = self.pd.successors(choice)
        if len(successors) < 2:
            raise ConversionError(
                f"choice {choice!r} must have at least two successors"
            )
        branches: list[tuple[Condition, Node]] = []
        merges: set[str] = set()
        for succ in successors:
            tr = self.pd.transition_between(choice, succ)
            condition = tr.condition if tr.condition is not None else TRUE
            branch, sentinel = self.parse_region(succ)
            sentinel_kind = self.pd.activity(sentinel).kind
            if sentinel_kind is not ActivityKind.MERGE or sentinel in self.loop_heads:
                raise ConversionError(
                    f"branch of choice {choice!r} ended at {sentinel!r} "
                    f"({sentinel_kind.value}) instead of a selective Merge"
                )
            if branch is None:
                raise ConversionError(
                    f"choice {choice!r} has an empty branch to {sentinel!r}"
                )
            merges.add(sentinel)
            branches.append((condition, branch))
        if len(merges) != 1:
            raise ConversionError(
                f"branches of choice {choice!r} converge on different merges: "
                f"{sorted(merges)}"
            )
        merge = merges.pop()
        return ChoiceNode(tuple(branches), anchor=(choice, merge)), self._sole_successor(merge)


def process_to_ast(pd: ProcessDescription) -> Node:
    """Recover the AST of a well-structured process description.

    Raises :class:`ConversionError` when the graph cannot be expressed in
    the Section-2 language (which is exactly the paper's notion of a
    well-formed plan).
    """
    return _Recoverer(pd).run()
