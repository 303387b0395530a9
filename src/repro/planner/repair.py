"""Plan repair: strip provably-useless activities from an evolved plan.

The GP loop occasionally emits plans whose goal fitness is perfect but
that retain an activity occurrence which is invalid in every enumerated
flow (validity fitness just below 1).  Since an invalid execution never
changes the state (Section 3.4.4), removing such a terminal cannot lower
goal fitness — and it always raises validity and efficiency.

:func:`repair_plan` iterates that argument to a fixed point:

1. simulate the plan;
2. find a terminal that is *never valid* across all flows;
3. delete it (collapsing degenerate controllers);
4. keep the change — fitness is guaranteed not to decrease — and repeat.

This is a determinizing post-pass, not part of the paper's algorithm; the
Table-2 reproduction runs without it, and the ``repaired`` ablation shows
what it buys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.plan.convert import normalize
from repro.plan.tree import (
    Controller,
    PlanNode,
    Terminal,
    iter_nodes,
    replace_at,
)
from repro.planner.engine import EvaluationEngine
from repro.planner.fitness import Fitness
from repro.planner.problem import PlanningProblem
from repro.planner.simulate import SimulationOptions, simulate_with_attribution

__all__ = [
    "repair_plan",
    "RepairResult",
    "never_valid_terminals",
    "swap_terminals",
]


@dataclass(frozen=True)
class RepairResult:
    plan: PlanNode
    fitness: Fitness
    removed: tuple[str, ...]
    changed: bool
    """Whether *plan* differs from the input tree: a deletion, or only the
    normalization every repair starts with."""


def never_valid_terminals(
    tree: PlanNode,
    problem: PlanningProblem,
    options: SimulationOptions | None = None,
) -> list[tuple[int, ...]]:
    """Paths of terminals that are invalid in every flow they execute in.

    Uses the simulator's per-terminal attribution: a terminal is
    never-valid iff its attributed executed count is positive and its
    valid count is zero.  Removing such a terminal is always safe: an
    invalid execution never changes the state, so every surviving flow's
    evolution is untouched, validity and efficiency can only rise, and
    (with monotone effects) dropping an all-invalid selective branch can
    only raise the flow-averaged goal fitness.
    """
    _, stats = simulate_with_attribution(tree, problem, options)
    return [
        path
        for path, (executed, valid) in sorted(stats.items())
        if executed > 0.0 and valid == 0.0
    ]


def _delete_at(tree: PlanNode, path: tuple[int, ...]) -> PlanNode | None:
    """The tree with the node at *path* removed (None if it is the root)."""
    if not path:
        return None
    parent_path, idx = path[:-1], path[-1]
    parent = tree
    for step in parent_path:
        assert isinstance(parent, Controller)
        parent = parent.children[step]
    assert isinstance(parent, Controller)
    if len(parent.children) == 1:
        # Removing the only child removes the controller itself.
        return _delete_at(tree, parent_path)
    children = parent.children[:idx] + parent.children[idx + 1 :]
    return normalize(replace_at(tree, parent_path, Controller(parent.kind, children)))


def swap_terminals(
    tree: PlanNode, mapping: Mapping[str, str]
) -> tuple[PlanNode, tuple[tuple[str, str], ...]]:
    """The tree with every terminal named in *mapping* swapped — and
    nothing else.

    The plan library's local repair: when re-verification flags stored
    terminals as unresolvable (their service vanished from the registry),
    only those exact terminals are replaced by their substitute activity;
    structure, controllers and every other terminal are untouched, so the
    repaired plan stays in the immediate neighborhood of the verified
    original.  Returns the new tree plus the ``(old, new)`` swaps in
    tree order (empty when *mapping* touches nothing).
    """
    swaps: list[tuple[str, str]] = []
    current = tree
    for path, node in list(iter_nodes(tree)):
        if isinstance(node, Terminal) and node.activity in mapping:
            replacement = mapping[node.activity]
            current = replace_at(current, path, Terminal(replacement))
            swaps.append((node.activity, replacement))
    return current, tuple(swaps)


def repair_plan(
    tree: PlanNode,
    problem: PlanningProblem,
    evaluator: EvaluationEngine | None = None,
    max_rounds: int = 50,
) -> RepairResult:
    """Remove never-valid terminals until none remain.

    Uses *evaluator* (or a fresh default one) for the final fitness;
    deletions are accepted only if overall fitness does not decrease,
    which the counterfactual test already guarantees but is re-checked for
    safety.
    """
    if evaluator is None:
        evaluator = EvaluationEngine(problem)
    current = normalize(tree)
    removed: list[str] = []
    for _ in range(max_rounds):
        candidates = never_valid_terminals(current, problem, evaluator.options)
        if not candidates:
            break
        path = candidates[0]
        victim = current
        for step in path:
            assert isinstance(victim, Controller)
            victim = victim.children[step]
        assert isinstance(victim, Terminal)
        pruned = _delete_at(current, path)
        if pruned is None:
            break
        if evaluator(pruned).overall + 1e-12 < evaluator(current).overall:
            break  # safety net; should not trigger
        removed.append(victim.activity)
        current = pruned
    return RepairResult(
        plan=current,
        fitness=evaluator(current),
        removed=tuple(removed),
        changed=current != tree,
    )
