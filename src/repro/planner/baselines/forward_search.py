"""Classical forward state-space planner baseline.

Breadth-first search over world states: from ``Sinit``, repeatedly apply
every *applicable* activity until a state satisfying all goal
specifications is reached; the action sequence becomes a SEQUENTIAL plan
tree.  This is the "traditional planning" reference point the GP-planning
literature (Muslea's SINERGY, Spector, GenPlan — the paper's refs [9-11])
compares against.

Because our state algebra is monotone (effects only add/overwrite
properties), duplicate-state pruning on the canonical state fingerprint
keeps the search small, and BFS returns a shortest valid sequential plan —
the strongest possible baseline on problems that need no iteration or
concurrency.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import PlanningError
from repro.plan.tree import PlanNode, Terminal, sequential
from repro.planner.engine import EvaluationEngine
from repro.planner.gp import PlanningResult
from repro.planner.problem import PlanningProblem
from repro.planner.state import WorldState

__all__ = ["forward_search"]


def _fingerprint(state: WorldState) -> tuple:
    key = state.merge_key()
    if key is not None:
        return key
    return tuple(
        (name, tuple(sorted(state.properties(name).items())))
        for name in sorted(state.data_names())
    )


def forward_search(
    problem: PlanningProblem,
    evaluator: EvaluationEngine | None = None,
    max_states: int = 100_000,
) -> PlanningResult:
    """BFS to a goal state; raises :class:`PlanningError` when the goal is
    unreachable within *max_states* expansions."""

    def satisfied(state: WorldState) -> bool:
        return all(state.satisfies(goal) for goal in problem.goals)

    start = problem.initial_state
    if satisfied(start):
        raise PlanningError(
            "initial state already satisfies all goals; nothing to plan"
        )
    queue: deque[tuple[WorldState, tuple[str, ...]]] = deque([(start, ())])
    seen: set[Any] = {_fingerprint(start)}
    expansions = 0
    while queue:
        state, path = queue.popleft()
        expansions += 1
        if expansions > max_states:
            break
        for name, spec in problem.activities.items():
            if not spec.applicable(state):
                continue
            nxt = spec.apply(state)
            fp = _fingerprint(nxt)
            if fp in seen:
                continue
            seen.add(fp)
            nxt_path = path + (name,)
            if satisfied(nxt):
                tree = _as_tree(nxt_path)
                if evaluator is None:
                    evaluator = EvaluationEngine(problem)
                return PlanningResult(
                    best_plan=tree,
                    best_fitness=evaluator(tree),
                    evaluations=expansions,
                    generations_run=0,
                )
            queue.append((nxt, nxt_path))
    raise PlanningError(
        f"forward search exhausted ({expansions} expansions) without "
        f"reaching the goal of problem {problem.name!r}"
    )


def _as_tree(path: tuple[str, ...]) -> PlanNode:
    if len(path) == 1:
        return Terminal(path[0])
    return sequential(*path)
