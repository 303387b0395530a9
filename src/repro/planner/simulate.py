"""Symbolic simulation of plan execution (Section 3.4.4, point 1).

To evaluate plan-validity fitness, "we need to simulate the execution of a
plan ... For each activity, we check if the current system state satisfies
the preconditions of the activity.  If the activity is valid, we update the
system state ... If the activity is not valid, we don't update the system
state.  In case there are selective or iterative nodes in a plan tree,
conditional execution is necessary.  We need to enumerate each possible
flow of execution and simulate the execution of a plan multiple times."

Semantics implemented here (documented choices where the paper is silent):

* **terminal** — check precondition against the current state; valid
  executions apply effects, invalid ones leave the state unchanged; both
  count as *executed* (Eq. 1's denominator).  Names outside T are executed
  and never valid.
* **sequential** — children left to right.
* **concurrent** — children are simulated left to right; the paper allows
  "any order", and effects in our state algebra are monotone merges, so
  any representative order yields the same final state.  Validity can be
  order-dependent; an optional mode (``concurrent_orders > 1``) enumerates
  additional orders as separate flows.
* **selective** — each child spawns a separate flow (enumeration).
* **iterative** — the body is unrolled ``k`` times for each ``k`` in
  *iteration_counts* (default ``(1, 2)``), each unrolling a separate flow.

**Flow merging.**  Enumerated flows that reach the *same world state* are
merged exactly: per-flow execution counters are additive in Eq. 1's sums,
and Eq. 2's per-flow average is preserved by tracking each merged flow's
*weight* (the number of raw flows it stands for).  Merging happens after
every selective/iterative/concurrent join point and keeps the flow
population small without changing any fitness value.  A residual cap
(*max_flows*) guards pathological plans; truncation is reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.plan.tree import Controller, ControllerKind, PlanNode, Terminal
from repro.planner.problem import PlanningProblem
from repro.planner.state import WorldState

__all__ = [
    "FlowResult",
    "SimulationReport",
    "simulate_plan",
    "simulate_with_attribution",
    "SimulationOptions",
]

# Internal flow representation: (state, executed, valid, weight).
_Partial = tuple[WorldState, float, float, float]


@dataclass(frozen=True)
class SimulationOptions:
    """Knobs for the flow enumerator."""

    iteration_counts: tuple[int, ...] = (1, 2)
    max_flows: int = 64
    concurrent_orders: int = 1
    #: Total terminal-execution budget per simulation.  Nested
    #: iterative/selective plans re-execute their bodies O(4^depth) times
    #: regardless of flow merging (the cost is structural unrolling, not
    #: flow count); once the budget is spent the simulation stops
    #: executing and reports truncation.  Generous relative to any
    #: plausible Smax-40 plan (which executes a few hundred activities).
    max_executions: int = 100_000

    def __post_init__(self) -> None:
        if not self.iteration_counts or min(self.iteration_counts) < 1:
            raise SimulationError("iteration_counts must be positive")
        if self.max_flows < 1:
            raise SimulationError("max_flows must be >= 1")
        if self.concurrent_orders < 1:
            raise SimulationError("concurrent_orders must be >= 1")
        if self.max_executions < 1:
            raise SimulationError("max_executions must be >= 1")


@dataclass(frozen=True)
class FlowResult:
    """One (possibly merged) flow: final state plus validity accounting.

    *weight* is the number of enumerated raw flows this result represents;
    *executed* and *valid* are already summed over those flows.
    """

    final_state: WorldState
    executed: float
    valid: float
    weight: float = 1.0

    @property
    def validity(self) -> float:
        return self.valid / self.executed if self.executed else 0.0


@dataclass(frozen=True)
class SimulationReport:
    """All enumerated flows of one plan simulation."""

    flows: tuple[FlowResult, ...]
    truncated: bool

    @property
    def total_executed(self) -> float:
        return sum(flow.executed for flow in self.flows)

    @property
    def total_valid(self) -> float:
        return sum(flow.valid for flow in self.flows)

    @property
    def flow_count(self) -> float:
        """Number of raw (pre-merge) flows enumerated."""
        return sum(flow.weight for flow in self.flows)

    def validity_fitness(self) -> float:
        """Eq. 1 over all flows; activities simulated in several flows count
        once per execution, as the paper specifies."""
        executed = self.total_executed
        if executed == 0:
            return 0.0
        return self.total_valid / executed

    def goal_fitness(self, problem: PlanningProblem) -> float:
        """Eq. 2 averaged over flows ("the goal fitness is given as the
        average goal fitness of each execution")."""
        total_weight = self.flow_count
        if total_weight == 0:
            return 0.0
        return (
            sum(
                flow.weight * problem.goal_score(flow.final_state)
                for flow in self.flows
            )
            / total_weight
        )


def simulate_plan(
    tree: PlanNode,
    problem: PlanningProblem,
    options: SimulationOptions | None = None,
) -> SimulationReport:
    """Enumerate execution flows of *tree* starting from ``Sinit``."""
    opts = options or SimulationOptions()
    start: _Partial = (problem.initial_state, 0.0, 0.0, 1.0)
    budget = [opts.max_executions]
    partials, truncated = _simulate(tree, [start], problem, opts, budget)
    flows = tuple(FlowResult(s, e, v, w) for s, e, v, w in partials)
    return SimulationReport(flows, truncated)


def simulate_with_attribution(
    tree: PlanNode,
    problem: PlanningProblem,
    options: SimulationOptions | None = None,
) -> tuple[SimulationReport, dict[tuple[int, ...], tuple[float, float]]]:
    """Like :func:`simulate_plan`, additionally attributing Eq.-1 counts to
    individual terminal nodes.

    Returns ``(report, stats)`` where ``stats[path] = (executed, valid)``
    sums the (weighted) executions of the terminal at *path*.  Used by the
    plan-repair pass to find terminals that are invalid in every flow.
    """
    opts = options or SimulationOptions()
    start: _Partial = (problem.initial_state, 0.0, 0.0, 1.0)
    stats: dict[tuple[int, ...], list[float]] = {}
    budget = [opts.max_executions]
    partials, truncated = _simulate(
        tree, [start], problem, opts, budget, (), stats
    )
    flows = tuple(FlowResult(s, e, v, w) for s, e, v, w in partials)
    return (
        SimulationReport(flows, truncated),
        {path: (e, v) for path, (e, v) in stats.items()},
    )


def _merge(partials: list[_Partial]) -> list[_Partial]:
    """Merge flows with identical states (exact; see module docstring).

    Keys on :meth:`WorldState.merge_key`, which each state computes once
    and caches — join-point merging previously rebuilt the canonical
    tuple from the full state dict for every flow at every join.
    """
    if len(partials) <= 1:
        return partials
    merged: dict[tuple, list] = {}
    order: list[tuple] = []
    for state, executed, valid, weight in partials:
        key = state.merge_key()
        if key is None:  # unhashable property value: skip merging entirely
            return partials
        slot = merged.get(key)
        if slot is None:
            merged[key] = [state, executed, valid, weight]
            order.append(key)
        else:
            slot[1] += executed
            slot[2] += valid
            slot[3] += weight
    return [tuple(merged[key]) for key in order]  # type: ignore[misc]


#: Rescale flow weights once their total exceeds this.  Deeply nested
#: iterative/selective plans multiply raw flow counts doubly-exponentially
#: (a 40-node pathological tree overflows float64); fv and fg are ratios
#: and invariant under uniform scaling of (executed, valid, weight), so
#: normalizing loses nothing.
_WEIGHT_CEILING = 1e9


def _settle(
    partials: list[_Partial], opts: SimulationOptions
) -> tuple[list[_Partial], bool]:
    """Merge identical flows, rescale weights, cap the survivor count."""
    partials = _merge(partials)
    total = sum(p[3] for p in partials)
    if total > _WEIGHT_CEILING:
        factor = 1.0 / total
        partials = [
            (state, executed * factor, valid * factor, weight * factor)
            for state, executed, valid, weight in partials
        ]
    if len(partials) > opts.max_flows:
        return partials[: opts.max_flows], True
    return partials, False


def _simulate(
    node: PlanNode,
    partials: list[_Partial],
    problem: PlanningProblem,
    opts: SimulationOptions,
    budget: list[int],
    path: tuple[int, ...] = (),
    stats: dict[tuple[int, ...], list[float]] | None = None,
) -> tuple[list[_Partial], bool]:
    """Advance every partial flow through *node*; returns (flows, truncated).

    With *stats*, terminal executions are additionally attributed to their
    tree path (weighted executed/valid sums).  *budget* is the mutable
    remaining terminal-execution allowance; exhausting it stops further
    execution (the entry check below also cuts off the otherwise
    exponential structural recursion of deeply nested iteratives).
    """
    truncated = False
    if budget[0] <= 0:
        return list(partials), True

    if isinstance(node, Terminal):
        budget[0] -= len(partials)
        activity = node.activity
        record = None
        if stats is not None:
            record = stats.setdefault(path, [0.0, 0.0])
        out: list[_Partial] = []
        if activity not in problem.execution_table():
            for state, executed, valid, weight in partials:
                out.append((state, executed + weight, valid, weight))
                if record is not None:
                    record[0] += weight
            return out, truncated
        step = problem.transitions().step
        for state, executed, valid, weight in partials:
            successor = step(state, activity)
            if successor is not None:
                out.append((successor, executed + weight, valid + weight, weight))
                if record is not None:
                    record[0] += weight
                    record[1] += weight
            else:
                out.append((state, executed + weight, valid, weight))
                if record is not None:
                    record[0] += weight
        return out, truncated

    assert isinstance(node, Controller)
    kind = node.kind

    if kind is ControllerKind.SEQUENTIAL:
        current = partials
        for idx, child in enumerate(node.children):
            current, t = _simulate(
                child, current, problem, opts, budget, path + (idx,), stats
            )
            truncated |= t
        return current, truncated

    if kind is ControllerKind.CONCURRENT:
        orders = _concurrent_orders(len(node.children), opts.concurrent_orders)
        collected: list[_Partial] = []
        for order in orders:
            current = partials
            for idx in order:
                current, t = _simulate(
                    node.children[idx], current, problem, opts,
                    budget, path + (idx,), stats,
                )
                truncated |= t
            collected.extend(current)
        result, t = _settle(collected, opts)
        return result, truncated | t

    if kind is ControllerKind.SELECTIVE:
        collected = []
        for idx, child in enumerate(node.children):
            flows, t = _simulate(
                child, partials, problem, opts, budget, path + (idx,), stats
            )
            truncated |= t
            collected.extend(flows)
        result, t = _settle(collected, opts)
        return result, truncated | t

    if kind is ControllerKind.ITERATIVE:
        collected = []
        current = partials
        max_count = max(opts.iteration_counts)
        wanted = set(opts.iteration_counts)
        for count in range(1, max_count + 1):
            for idx, child in enumerate(node.children):
                current, t = _simulate(
                    child, current, problem, opts, budget, path + (idx,), stats
                )
                truncated |= t
            current, t = _settle(current, opts)
            truncated |= t
            if count in wanted:
                collected.extend(current)
        result, t = _settle(collected, opts)
        return result, truncated | t

    raise SimulationError(f"unknown controller kind {kind!r}")


def _concurrent_orders(n: int, wanted: int) -> list[tuple[int, ...]]:
    """The first *wanted* child orders: identity first, then permutations in
    lexicographic order (deterministic, no RNG needed)."""
    if wanted == 1:
        return [tuple(range(n))]
    return list(itertools.islice(itertools.permutations(range(n)), wanted))
