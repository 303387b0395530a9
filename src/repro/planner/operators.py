"""Genetic operators on plan trees (Section 3.4.3, Figures 8-9).

* :func:`crossover` — with probability *crossover_rate*, select one node in
  each parent uniformly at random and swap the subtrees.  If either
  offspring would exceed Smax, "crossover fails and both parents are kept".
* :func:`mutate` — each node of the tree is selected for mutation with
  probability *mutation_rate*; a selected node's subtree is replaced by a
  freshly generated random tree ("using the same method as plan
  initialization").  If the mutated tree would exceed Smax, "mutation fails
  and we keep the original tree".

Both operators are pure: they never modify their inputs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._util import as_rng
from repro.plan.randgen import random_tree
from repro.plan.tree import PlanNode, preorder_path, replace_at, subtree_at

__all__ = ["crossover", "mutate", "random_node_path"]


def random_node_path(tree: PlanNode, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniformly random node path in *tree*: one draw of a pre-order
    index, mapped straight to its path."""
    return preorder_path(tree, int(rng.integers(tree.size)))


def crossover(
    a: PlanNode,
    b: PlanNode,
    rng: int | np.random.Generator | None = None,
    smax: int = 40,
    crossover_rate: float = 0.7,
) -> tuple[PlanNode, PlanNode]:
    """Subtree crossover per Figure 8; returns the two offspring (or the
    unchanged parents when crossover is skipped or fails the size bound)."""
    generator = as_rng(rng)
    if generator.random() >= crossover_rate:
        return a, b
    path_a = random_node_path(a, generator)
    path_b = random_node_path(b, generator)
    sub_a = subtree_at(a, path_a)
    sub_b = subtree_at(b, path_b)
    child_a = replace_at(a, path_a, sub_b)
    child_b = replace_at(b, path_b, sub_a)
    if child_a.size > smax or child_b.size > smax:
        return a, b
    return child_a, child_b


def mutate(
    tree: PlanNode,
    activities: Sequence[str],
    rng: int | np.random.Generator | None = None,
    smax: int = 40,
    mutation_rate: float = 0.001,
    max_branch: int = 4,
) -> PlanNode:
    """Per-node subtree mutation per Figure 9.

    Every node is an independent Bernoulli(mutation_rate) trial; selected
    nodes are processed outermost-first, and replacing a node skips the
    trials of its (now gone) descendants.  A replacement that would push the
    tree past Smax fails silently, keeping the paper's semantics.
    """
    generator = as_rng(rng)
    # One draw per node in pre-order, taken as one batch: the same numbers
    # as a scalar draw per node, and only the hits are mapped to paths.
    hits = np.flatnonzero(generator.random(tree.size) < mutation_rate)
    if not hits.size:
        return tree
    selected = [preorder_path(tree, int(index)) for index in hits]
    # Drop paths nested under an already-selected ancestor: mutating the
    # ancestor replaces the descendant anyway.  The survivors are pairwise
    # disjoint, so they stay valid while the tree is rebuilt incrementally.
    selected.sort(key=len)
    kept: list[tuple[int, ...]] = []
    for path in selected:
        if not any(path[: len(anc)] == anc for anc in kept):
            kept.append(path)
    current = tree
    for path in kept:
        replacement = random_tree(
            activities, max_size=smax, rng=generator, max_branch=max_branch
        )
        candidate = replace_at(current, path, replacement)
        if candidate.size <= smax:
            current = candidate
    return current
