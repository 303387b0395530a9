"""Abstract syntax of the Section-2 process-description language.

The textual grammar (see :mod:`repro.process.parser`) parses into this small
AST; the same AST is what the structured-region recovery algorithm
(:mod:`repro.process.structure`) produces from an ATN graph.  It mirrors the
paper's four composite constructs:

* :class:`SequenceNode` — ``A; B; C``
* :class:`ForkNode` — ``{FORK {..} {..} JOIN}``    (concurrent branches)
* :class:`ChoiceNode` — ``{CHOICE {COND ..} {..} ... MERGE}`` (guarded
  alternatives; exactly one executes)
* :class:`IterativeNode` — ``{ITERATIVE {COND ..} {..}}`` (do-while loop:
  the body runs once, then repeats while the condition holds)

plus :class:`ActivityNode` leaves naming end-user activities.  The AST is
deliberately isomorphic to the planner's plan trees (Section 3.4.1) modulo
conditions, which plan trees do not carry.

A composite node recovered from a graph also carries its *anchor*: the
names of the paired flow-control activities it was recovered from —
(FORK, JOIN), (CHOICE, MERGE) or (loop-head MERGE, latch CHOICE).  Only
the recovery sets it, and it takes no part in equality, hashing or repr,
so a recovered AST still equals the parsed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.errors import ProcessError
from repro.process.conditions import TRUE, Condition

__all__ = [
    "Node",
    "ActivityNode",
    "SequenceNode",
    "ForkNode",
    "ChoiceNode",
    "IterativeNode",
    "seq",
    "normalize_ast",
]


class Node:
    """Base class of AST nodes."""

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self

    def activity_names(self) -> list[str]:
        """Names of all activity leaves, in left-to-right order."""
        return [n.name for n in self.walk() if isinstance(n, ActivityNode)]

    @property
    def size(self) -> int:
        """Total node count (leaves + composites)."""
        return sum(1 for _ in self.walk())


@dataclass(frozen=True)
class ActivityNode(Node):
    """A reference to one end-user activity."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ProcessError("activity node needs a name")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SequenceNode(Node):
    """Children execute left to right."""

    children: tuple[Node, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ProcessError("sequence needs at least one child")

    def walk(self) -> Iterator[Node]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class ForkNode(Node):
    """Branches may execute concurrently; all must complete (Fork/Join)."""

    branches: tuple[Node, ...]
    anchor: tuple[str, str] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(self.branches) < 2:
            raise ProcessError("fork needs at least two branches")

    def walk(self) -> Iterator[Node]:
        yield self
        for branch in self.branches:
            yield from branch.walk()


@dataclass(frozen=True)
class ChoiceNode(Node):
    """Guarded alternatives; exactly one branch executes (Choice/Merge).

    Each element of *branches* is a ``(condition, node)`` pair.  The
    coordination service executes the first branch whose condition holds;
    a TRUE condition acts as the default branch.
    """

    branches: tuple[tuple[Condition, Node], ...]
    anchor: tuple[str, str] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(tuple(b) for b in self.branches))
        if len(self.branches) < 2:
            raise ProcessError("choice needs at least two alternatives")

    def walk(self) -> Iterator[Node]:
        yield self
        for _, branch in self.branches:
            yield from branch.walk()


@dataclass(frozen=True)
class IterativeNode(Node):
    """Do-while loop: run *body*, repeat while *condition* evaluates true."""

    condition: Condition
    body: Node
    anchor: tuple[str, str] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.condition is None:
            object.__setattr__(self, "condition", TRUE)

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.body.walk()


def normalize_ast(node: Node) -> Node:
    """Canonical form: directly-nested sequences spliced into their parent.

    The textual syntax cannot distinguish ``A; (B; C)`` from ``A; B; C``
    (they have identical semantics), so parse/unparse round-trips are exact
    only on normalized ASTs.
    """
    if isinstance(node, ActivityNode):
        return node
    if isinstance(node, SequenceNode):
        flat: list[Node] = []
        for child in node.children:
            normalized = normalize_ast(child)
            if isinstance(normalized, SequenceNode):
                flat.extend(normalized.children)
            else:
                flat.append(normalized)
        return seq(*flat)
    if isinstance(node, ForkNode):
        return ForkNode(tuple(normalize_ast(b) for b in node.branches))
    if isinstance(node, ChoiceNode):
        return ChoiceNode(
            tuple((cond, normalize_ast(b)) for cond, b in node.branches)
        )
    if isinstance(node, IterativeNode):
        return IterativeNode(node.condition, normalize_ast(node.body))
    raise ProcessError(f"cannot normalize node type {type(node).__name__}")


def seq(*nodes: Node | str) -> Node:
    """Build a sequence, accepting bare strings as activity names.

    A single element collapses to itself (no redundant SequenceNode), which
    keeps ASTs in the normal form the structure-recovery algorithm emits.
    """
    resolved = tuple(
        ActivityNode(n) if isinstance(n, str) else n for n in nodes
    )
    if not resolved:
        raise ProcessError("seq() needs at least one element")
    if len(resolved) == 1:
        return resolved[0]
    return SequenceNode(resolved)
