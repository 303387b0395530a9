"""Planning problems: ``P = {Sinit, G, T}`` (Section 3.2).

* ``Sinit`` — a :class:`~repro.planner.state.WorldState` with the user's
  initial data and specifications;
* ``G`` — the goal, a tuple of goal *specifications* (conditions); Eq. 2
  scores the fraction satisfied in the final state;
* ``T`` — the complete set of end-user activities available on the grid,
  each an :class:`ActivitySpec` with preconditions (a condition over data
  items that must hold before execution) and effects (data items
  created/modified by execution — the postconditions).

Each problem also owns a :class:`TransitionTable`, the memo the plan
simulator and Eq. 2 read instead of re-deriving world states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import Any

from repro.errors import PlanningError
from repro.planner.state import WorldState
from repro.process.conditions import TRUE, Condition, compile_condition
from repro.process.model import Activity, ActivityKind

__all__ = ["ActivitySpec", "PlanningProblem", "TransitionTable"]


@dataclass(frozen=True)
class ActivitySpec:
    """One end-user activity in T.

    *precondition* must hold in the current state for the activity to be
    valid (Section 3.1: "The preconditions of an activity specify the set
    of necessary data and their specifications").  *effects* maps output
    data names to the properties their execution establishes ("The new
    system state will include all new and modified data resulting from the
    execution").  *inputs* / *outputs* list the data names for
    documentation and case-description binding; inputs default to the data
    referenced by the precondition.
    """

    name: str
    precondition: Condition = TRUE
    effects: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    service: str | None = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanningError("activity spec needs a name")
        object.__setattr__(
            self, "effects", {k: dict(v) for k, v in dict(self.effects).items()}
        )
        if not self.inputs:
            object.__setattr__(
                self, "inputs", tuple(sorted(self.precondition.data_names()))
            )
        if not self.outputs:
            object.__setattr__(self, "outputs", tuple(self.effects))
        if self.service is None:
            object.__setattr__(self, "service", self.name)
        object.__setattr__(
            self, "_compiled_pre", compile_condition(self.precondition)
        )

    def __getstate__(self) -> dict[str, Any]:
        # Compiled precondition closures are not picklable; drop them and
        # recompile on the other side (process-pool workers receive specs
        # through here).
        state = dict(self.__dict__)
        state.pop("_compiled_pre", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        object.__setattr__(
            self, "_compiled_pre", compile_condition(self.precondition)
        )

    def applicable(self, state: WorldState) -> bool:
        return self._compiled_pre(state)  # type: ignore[attr-defined]

    def apply(self, state: WorldState) -> WorldState:
        """The successor state (caller checks applicability for validity
        accounting; applying an inapplicable activity is a planner-level
        decision, the simulation never does it)."""
        return state.updated(self.effects)

    def as_activity(self, name: str | None = None) -> Activity:
        """The graph-level :class:`Activity` for this spec."""
        return Activity(
            name or self.name,
            ActivityKind.END_USER,
            self.service,
            self.inputs,
            self.outputs,
        )


#: Row marker for a (state, activity) step not derived yet; ``None`` in a
#: row means "derived: the precondition fails".
_UNSEEN = object()


class _Row:
    """One interned state: its successor per activity and its goal score."""

    __slots__ = ("state", "next", "goal")

    def __init__(self, state: WorldState) -> None:
        #: Held strongly, so the ``id()`` the row is filed under cannot be
        #: reused by another object while the row exists.
        self.state = state
        self.next: dict[str, WorldState | None] = {}
        self.goal: float | None = None


class TransitionTable:
    """One problem's world-state transition table.

    GP scores thousands of distinct plan trees per run, and every one of
    them re-derives the same few reachable world states: the five
    ``plan`` workload problems reach 6 to 182 distinct states, while their
    runs step a state through an activity about a million times.  The
    table interns states by :meth:`WorldState.merge_key` — one canonical
    object per distinct state, its key computed once — and fills each
    state's row lazily with, per activity, the successor state (itself
    interned) or ``None`` when the precondition fails, plus the state's
    Eq.-2 goal score.  Every (state, activity) step and every goal check
    is therefore computed once per problem.

    Results are bit-identical to deriving every step afresh: a step's
    outcome is a pure function of the state and the activity's spec, and
    states with equal merge keys are already one state to the simulator's
    flow merging.  States whose merge key is ``None`` (an unhashable
    property value) bypass the table.

    The table belongs to one :class:`PlanningProblem`, never to the
    states: two problems may share an initial state yet bind one activity
    name to different specs.  It holds at most :attr:`MAX_STATES` states;
    interning one more drops the whole table, so no state can map to a
    stale row.
    """

    #: Interned-state bound (the table restarts empty when it is reached).
    MAX_STATES = 4096

    __slots__ = ("_exec", "_goals", "_rows", "_by_key")

    def __init__(
        self,
        exec_table: Mapping[str, tuple[Callable[[WorldState], bool], Mapping[str, Any]]],
        goals: tuple[Callable[[WorldState], bool], ...],
    ) -> None:
        self._exec = exec_table
        self._goals = goals
        self._rows: dict[int, _Row] = {}  # id(interned state) -> row
        self._by_key: dict[tuple, _Row] = {}  # merge key -> row

    def __len__(self) -> int:
        """Number of interned states."""
        return len(self._rows)

    def step(self, state: WorldState, activity: str) -> WorldState | None:
        """The interned successor of executing *activity* (a name in T) in
        *state*, or ``None`` when its precondition fails there."""
        row = self._rows.get(id(state)) or self._row(state)
        if row is None:  # no merge key: derive afresh, memoize nothing
            return self._derive(state, activity)
        successor = row.next.get(activity, _UNSEEN)
        if successor is _UNSEEN:
            successor = row.next[activity] = self._derive(row.state, activity)
        return successor

    def goal_score(self, state: WorldState) -> float:
        """Eq. 2: fraction of goal specifications *state* satisfies."""
        row = self._rows.get(id(state))
        if row is None and isinstance(state, WorldState):
            row = self._row(state)
        if row is None:
            return self._score(state)
        if row.goal is None:
            row.goal = self._score(row.state)
        return row.goal

    def _score(self, state: WorldState) -> float:
        return sum(1 for check in self._goals if check(state)) / len(self._goals)

    def _derive(self, state: WorldState, activity: str) -> WorldState | None:
        applicable, effects = self._exec[activity]
        if not applicable(state):
            return None
        successor = state.updated(effects)
        key = successor.merge_key()
        if key is None:
            return successor
        row = self._by_key.get(key) or self._intern(successor, key)
        return row.state

    def _row(self, state: WorldState) -> _Row | None:
        """The row of the state equal to *state* (interning *state* when
        it is new), or None when *state* has no merge key."""
        key = state.merge_key()
        if key is None:
            return None
        return self._by_key.get(key) or self._intern(state, key)

    def _intern(self, state: WorldState, key: tuple) -> _Row:
        if len(self._by_key) >= self.MAX_STATES:
            self._rows = {}
            self._by_key = {}
        row = _Row(state)
        self._rows[id(state)] = row
        self._by_key[key] = row
        return row


@dataclass(frozen=True)
class PlanningProblem:
    """``P = {Sinit, G, T}`` plus a display name."""

    initial_state: WorldState
    goals: tuple[Condition, ...]
    activities: Mapping[str, ActivitySpec]
    name: str = "problem"

    def __post_init__(self) -> None:
        object.__setattr__(self, "goals", tuple(self.goals))
        if not self.goals:
            raise PlanningError("a planning problem needs at least one goal")
        specs = dict(self.activities)
        for key, spec in specs.items():
            if key != spec.name:
                raise PlanningError(
                    f"activity map key {key!r} != spec name {spec.name!r}"
                )
        if not specs:
            raise PlanningError("a planning problem needs a non-empty T")
        object.__setattr__(self, "activities", specs)
        self._compile()

    def _compile(self) -> None:
        """Pre-compile goals and the per-activity execution table.

        Indexing ``name -> (compiled precondition, effects)`` once here
        keeps condition-AST traversal, ``spec()`` lookups and bound-method
        creation out of the transition table's derivations.  The table
        itself is built on first use (:meth:`transitions`).
        """
        object.__setattr__(
            self, "_compiled_goals", tuple(compile_condition(g) for g in self.goals)
        )
        object.__setattr__(
            self,
            "_exec_table",
            {
                name: (spec._compiled_pre, spec.effects)  # type: ignore[attr-defined]
                for name, spec in self.activities.items()
            },
        )
        object.__setattr__(self, "_transitions", None)

    def __getstate__(self) -> dict[str, Any]:
        # Process-pool workers receive problems through here and build
        # their own transition tables.
        state = dict(self.__dict__)
        for key in ("_compiled_goals", "_exec_table", "_transitions"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._compile()

    def execution_table(
        self,
    ) -> Mapping[str, tuple[Callable[[WorldState], bool], Mapping[str, Any]]]:
        """``name -> (applicable, effects)`` for every activity in T."""
        return self._exec_table  # type: ignore[attr-defined]

    def transitions(self) -> TransitionTable:
        """This problem's transition table (built on first use)."""
        table = self._transitions  # type: ignore[attr-defined]
        if table is None:
            table = TransitionTable(self._exec_table, self._compiled_goals)  # type: ignore[attr-defined]
            object.__setattr__(self, "_transitions", table)
        return table

    @property
    def activity_names(self) -> tuple[str, ...]:
        return tuple(self.activities)

    def spec(self, name: str) -> ActivitySpec | None:
        """The spec for an activity name, or None if not in T.

        Plan trees evolved by GP may reference names outside T only if the
        terminal set is wider than T; the simulator treats unknown names as
        never-valid activities.
        """
        return self.activities.get(name)

    def goal_score(self, state: WorldState) -> float:
        """Eq. 2: fraction of goal specifications the state satisfies
        (memoized per state in the transition table)."""
        return self.transitions().goal_score(state)

    @staticmethod
    def build(
        name: str,
        initial: Mapping[str, Mapping[str, Any]],
        goals: tuple[Condition, ...] | list[Condition],
        activities: list[ActivitySpec] | tuple[ActivitySpec, ...],
    ) -> "PlanningProblem":
        """Convenience constructor from plain literals."""
        return PlanningProblem(
            initial_state=WorldState(initial),
            goals=tuple(goals),
            activities={spec.name: spec for spec in activities},
            name=name,
        )
