"""Plan trees — the genotype of the GP planner (Section 3.4.1).

A plan tree has *terminal nodes* (leaves naming end-user activities) and
*controller nodes* (internal nodes with at least one child) of four kinds:

* ``SEQUENTIAL`` — children execute left to right;
* ``CONCURRENT`` — children may run in any order / in parallel, all must
  complete (corresponds to a Fork/Join pair);
* ``SELECTIVE`` — exactly one child executes (Choice/Merge pair);
* ``ITERATIVE`` — children execute repeatedly until a stopping condition
  (a loop closed by a Merge/Choice pair).

Unlike the textual AST of :mod:`repro.process.ast_nodes`, plan trees carry
no conditions and place no lower bound of two on branch counts — the GP
operators freely produce one-child controllers, which the tree->process
conversion collapses.

Nodes are immutable; structural edits (crossover, mutation) build new trees
via :func:`replace_at`.  Paths are tuples of child indices from the root
(``()`` is the root itself).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterator

from repro.errors import PlanError

__all__ = [
    "ControllerKind",
    "PlanNode",
    "Terminal",
    "Controller",
    "sequential",
    "concurrent",
    "selective",
    "iterative",
    "terminal",
    "iter_nodes",
    "subtree_at",
    "preorder_path",
    "replace_at",
    "tree_size",
    "tree_depth",
    "pretty",
]

Path = tuple[int, ...]


class ControllerKind(enum.Enum):
    SEQUENTIAL = "Sequential"
    CONCURRENT = "Concurrent"
    SELECTIVE = "Selective"
    ITERATIVE = "Iterative"


class PlanNode:
    """Base class for plan-tree nodes."""

    __slots__ = ()

    @property
    def size(self) -> int:
        """Number of nodes in the subtree (the paper's plan-tree size);
        controllers compute it once and cache it, like :meth:`struct_key`."""
        raise NotImplementedError

    def walk(self) -> Iterator["PlanNode"]:
        raise NotImplementedError

    def activities(self) -> list[str]:
        """Activity names at the leaves, left to right."""
        return [n.activity for n in self.walk() if isinstance(n, Terminal)]

    def struct_key(self) -> tuple:
        """Canonical, hashable structural key of the subtree.

        Two trees have equal keys iff they are structurally equal (same
        shape, kinds and leaf activities), so the key can stand in for the
        tree itself in fitness caches and dedup maps.  Computed once per
        node and cached — tournament selection and surviving individuals
        hit the evaluator with the same instances over and over, and
        recursive dataclass hashing of a 40-node tree on every lookup is
        what this avoids.
        """
        raise NotImplementedError

    def __getstate__(self) -> dict:
        # Keep cached structural keys and sizes out of pickles: seed-parallel
        # runs ship result trees back from their workers, and the key
        # roughly doubles the payload.
        state = dict(self.__dict__)
        state.pop("_skey", None)
        state.pop("_size", None)
        return state


@dataclass(frozen=True)
class Terminal(PlanNode):
    """A leaf: one end-user activity."""

    activity: str

    def __post_init__(self) -> None:
        if not self.activity:
            raise PlanError("terminal node needs an activity name")

    @property
    def size(self) -> int:
        return 1

    def walk(self) -> Iterator[PlanNode]:
        yield self

    def struct_key(self) -> tuple:
        key = getattr(self, "_skey", None)
        if key is None:
            key = ("T", self.activity)
            object.__setattr__(self, "_skey", key)
        return key

    def __str__(self) -> str:
        return self.activity


@dataclass(frozen=True)
class Controller(PlanNode):
    """An internal node: a controller kind plus one or more children."""

    kind: ControllerKind
    children: tuple[PlanNode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise PlanError(
                f"{self.kind.value} controller needs at least one child"
            )
        for child in self.children:
            if not isinstance(child, PlanNode):
                raise PlanError(f"bad child {child!r}")

    @property
    def size(self) -> int:
        size = getattr(self, "_size", None)
        if size is None:
            size = 1 + sum(child.size for child in self.children)
            object.__setattr__(self, "_size", size)
        return size

    def walk(self) -> Iterator[PlanNode]:
        yield self
        for child in self.children:
            yield from child.walk()

    def struct_key(self) -> tuple:
        key = getattr(self, "_skey", None)
        if key is None:
            key = (self.kind.value, *(child.struct_key() for child in self.children))
            object.__setattr__(self, "_skey", key)
        return key

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.children)
        return f"{self.kind.value}[{inner}]"


# -- constructors ------------------------------------------------------------ #
def terminal(activity: str) -> Terminal:
    return Terminal(activity)


def _as_node(item: PlanNode | str) -> PlanNode:
    return Terminal(item) if isinstance(item, str) else item


def sequential(*children: PlanNode | str) -> Controller:
    return Controller(ControllerKind.SEQUENTIAL, tuple(map(_as_node, children)))


def concurrent(*children: PlanNode | str) -> Controller:
    return Controller(ControllerKind.CONCURRENT, tuple(map(_as_node, children)))


def selective(*children: PlanNode | str) -> Controller:
    return Controller(ControllerKind.SELECTIVE, tuple(map(_as_node, children)))


def iterative(*children: PlanNode | str) -> Controller:
    return Controller(ControllerKind.ITERATIVE, tuple(map(_as_node, children)))


# -- structural access -------------------------------------------------------- #
def iter_nodes(root: PlanNode) -> Iterator[tuple[Path, PlanNode]]:
    """Pre-order traversal yielding (path, node) pairs."""
    stack: list[tuple[Path, PlanNode]] = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Controller):
            for idx in range(len(node.children) - 1, -1, -1):
                stack.append((path + (idx,), node.children[idx]))


def subtree_at(root: PlanNode, path: Path) -> PlanNode:
    """The node at *path* (raises :class:`PlanError` on a bad path)."""
    node = root
    for idx in path:
        if not isinstance(node, Controller) or not 0 <= idx < len(node.children):
            raise PlanError(f"invalid path {path!r}")
        node = node.children[idx]
    return node


def preorder_path(root: PlanNode, index: int) -> Path:
    """The path of the node numbered *index* in *root*'s pre-order (the
    order of :func:`iter_nodes`).

    Walks down the cached subtree sizes instead of enumerating the tree:
    each step skips the node itself, then every whole child subtree that
    lies before the index.
    """
    if not 0 <= index < root.size:
        raise PlanError(f"pre-order index {index} outside a {root.size}-node tree")
    path: list[int] = []
    node = root
    while index:
        index -= 1
        for idx, child in enumerate(node.children):  # type: ignore[attr-defined]
            size = child.size
            if index < size:
                path.append(idx)
                node = child
                break
            index -= size
    return tuple(path)


def replace_at(root: PlanNode, path: Path, replacement: PlanNode) -> PlanNode:
    """A new tree with the subtree at *path* swapped for *replacement*."""
    if not path:
        return replacement
    if not isinstance(root, Controller) or not 0 <= path[0] < len(root.children):
        raise PlanError(f"invalid path {path!r}")
    idx = path[0]
    new_child = replace_at(root.children[idx], path[1:], replacement)
    children = root.children[:idx] + (new_child,) + root.children[idx + 1 :]
    return Controller(root.kind, children)


def tree_size(root: PlanNode) -> int:
    return root.size


def tree_depth(root: PlanNode) -> int:
    """Depth in edges: a single terminal has depth 0."""
    if isinstance(root, Terminal):
        return 0
    assert isinstance(root, Controller)
    return 1 + max(tree_depth(child) for child in root.children)


def pretty(root: PlanNode, level: int = 0) -> str:
    """Indented multi-line rendering (Figure-11 style)."""
    pad = "  " * level
    if isinstance(root, Terminal):
        return f"{pad}{root.activity}"
    assert isinstance(root, Controller)
    lines = [f"{pad}{root.kind.value}"]
    for child in root.children:
        lines.append(pretty(child, level + 1))
    return "\n".join(lines)
