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

import functools
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
    return _run(tree, problem, options)


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
    # One subtree object may sit at several paths, so the walk runs on a
    # copy whose every terminal is its own object, filed under its path.
    paths: dict[int, tuple[int, ...]] = {}
    located = _locate(tree, (), paths)
    stats: dict[int, list[float]] = {}
    report = _run(located, problem, options, stats)
    return report, {paths[leaf]: (e, v) for leaf, (e, v) in stats.items()}


def _run(
    tree: PlanNode,
    problem: PlanningProblem,
    options: SimulationOptions | None,
    stats: dict[int, list[float]] | None = None,
) -> SimulationReport:
    """One simulation of *tree* from ``Sinit`` on a fresh walker."""
    walker = _FlowWalker(problem, options or SimulationOptions(), stats)
    partials = walker.walk(tree, [(problem.initial_state, 0.0, 0.0, 1.0)])
    flows = tuple(FlowResult(s, e, v, w) for s, e, v, w in partials)
    return SimulationReport(flows, walker.truncated)


def _locate(
    node: PlanNode, path: tuple[int, ...], paths: dict[int, tuple[int, ...]]
) -> PlanNode:
    """A copy of *node* with a fresh object per terminal; ``paths`` maps
    each fresh terminal's ``id`` to its path."""
    if isinstance(node, Terminal):
        leaf = Terminal(node.activity)
        paths[id(leaf)] = path
        return leaf
    assert isinstance(node, Controller)
    return Controller(
        node.kind,
        tuple(_locate(child, path + (idx,), paths) for idx, child in enumerate(node.children)),
    )


#: Rescale flow weights once their total exceeds this.  Deeply nested
#: iterative/selective plans multiply raw flow counts doubly-exponentially
#: (a 40-node pathological tree overflows float64); fv and fg are ratios
#: and invariant under uniform scaling of (executed, valid, weight), so
#: normalizing loses nothing.
_WEIGHT_CEILING = 1e9

_SEQUENTIAL = ControllerKind.SEQUENTIAL
_CONCURRENT = ControllerKind.CONCURRENT
_SELECTIVE = ControllerKind.SELECTIVE
_ITERATIVE = ControllerKind.ITERATIVE


class _FlowWalker:
    """One simulation: advances lists of partial flows through a plan tree.

    Everything the walk reads at every node is fetched once, here: the
    execution table, the transition table's ``step`` and the option
    values.  Truncation (the flow cap or the execution budget) sets one
    flag wherever it happens.  With *stats*, terminal executions are
    attributed to ``id(terminal)`` as weighted ``[executed, valid]`` sums.
    """

    __slots__ = (
        "table", "step", "max_flows", "rounds", "wanted", "orders",
        "budget", "truncated", "stats",
    )

    def __init__(
        self,
        problem: PlanningProblem,
        opts: SimulationOptions,
        stats: dict[int, list[float]] | None = None,
    ) -> None:
        self.table = problem.execution_table()
        # The static filter's stub problem has an empty execution table
        # and no transition table; no step is ever taken against it.
        self.step = problem.transitions().step if self.table else None
        self.max_flows = opts.max_flows
        self.rounds = max(opts.iteration_counts)
        self.wanted = frozenset(opts.iteration_counts)
        self.orders = opts.concurrent_orders
        #: Remaining terminal executions.  Exhausting it stops further
        #: execution; the entry check in :meth:`walk` also cuts off the
        #: otherwise exponential structural recursion of deeply nested
        #: iteratives.
        self.budget = opts.max_executions
        self.truncated = False
        self.stats = stats

    def walk(self, node: PlanNode, partials: list[_Partial]) -> list[_Partial]:
        """Advance every partial flow through *node*."""
        if self.budget <= 0:
            self.truncated = True
            return list(partials)

        if isinstance(node, Terminal):
            self.budget -= len(partials)
            activity = node.activity
            record = None
            if self.stats is not None:
                record = self.stats.setdefault(id(node), [0.0, 0.0])
            if activity not in self.table:  # outside T: executed, never valid
                if record is not None:
                    for flow in partials:
                        record[0] += flow[3]
                return [(s, e + w, v, w) for s, e, v, w in partials]
            step = self.step
            out: list[_Partial] = []
            for state, executed, valid, weight in partials:
                successor = step(state, activity)
                if successor is None:  # inapplicable: the state stays
                    out.append((state, executed + weight, valid, weight))
                else:
                    out.append((successor, executed + weight, valid + weight, weight))
                if record is not None:
                    record[0] += weight
                    if successor is not None:
                        record[1] += weight
            return out

        kind = node.kind
        if kind is _SEQUENTIAL:
            for child in node.children:
                partials = self.walk(child, partials)
            return partials

        if kind is _SELECTIVE:
            collected: list[_Partial] = []
            for child in node.children:
                collected += self.walk(child, partials)
            return self.settle(collected)

        if kind is _ITERATIVE:
            collected = []
            wanted = self.wanted
            for count in range(1, self.rounds + 1):
                for child in node.children:
                    partials = self.walk(child, partials)
                partials = self.settle(partials)
                if count in wanted:
                    collected += partials
            return self.settle(collected)

        if kind is _CONCURRENT:
            children = node.children
            collected = []
            for order in _concurrent_orders(len(children), self.orders):
                current = partials
                for idx in order:
                    current = self.walk(children[idx], current)
                collected += current
            return self.settle(collected)

        raise SimulationError(f"unknown controller kind {kind!r}")

    def settle(self, partials: list[_Partial]) -> list[_Partial]:
        """Merge flows that reached the same state, rescale the weights
        past :data:`_WEIGHT_CEILING`, and keep the first ``max_flows``.

        Merging is exact (see the module docstring): a flow's counters are
        added to the first flow with the same :meth:`WorldState.merge_key`,
        in first-appearance order.  A ``None`` key (an unhashable property
        value) turns merging off for the whole list.
        """
        if len(partials) > 1:
            merged: dict[tuple, _Partial] | None = {}
            for flow in partials:
                key = flow[0].merge_key()
                if key is None:
                    merged = None
                    break
                # setdefault hashes a new key once; the length, not object
                # identity, tells a repeat (one tuple can appear twice).
                size = len(merged)
                first = merged.setdefault(key, flow)
                if len(merged) == size:
                    merged[key] = (
                        first[0], first[1] + flow[1], first[2] + flow[2], first[3] + flow[3]
                    )
            if merged is not None:
                partials = list(merged.values())
        total = 0.0  # left to right, as sum() adds floats on 3.10 and 3.11
        for flow in partials:
            total += flow[3]
        if total > _WEIGHT_CEILING:
            factor = 1.0 / total
            partials = [
                (state, executed * factor, valid * factor, weight * factor)
                for state, executed, valid, weight in partials
            ]
        if len(partials) > self.max_flows:
            self.truncated = True
            return partials[: self.max_flows]
        return partials


@functools.lru_cache(maxsize=256)
def _concurrent_orders(n: int, wanted: int) -> tuple[tuple[int, ...], ...]:
    """The first *wanted* orders of *n* children: identity first, then
    permutations in lexicographic order (deterministic, no RNG needed)."""
    return tuple(itertools.islice(itertools.permutations(range(n)), wanted))
