"""Symbolic world state for plan simulation (Section 3.2/3.4.4).

A planning problem's state "include[s] all the initial data provided by an
end user and their specifications".  We model it as a mapping from data
names to property dictionaries — e.g. ``D8 -> {"Classification":
"Orientation File"}`` — which is exactly the granularity at which Figure
13's conditions (C1..C8) and constraints (Cons1) are written.

:class:`WorldState` implements the condition language's ``PropertySource``
protocol, so preconditions, goal specifications and Choice guards all
evaluate directly against it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

from repro.process.conditions import MISSING as _MISSING
from repro.process.conditions import Condition

__all__ = ["WorldState"]

#: Cached-merge-key sentinel for states whose property values are
#: unhashable (lists, dicts); such states cannot key a merge/memo table.
_UNHASHABLE = object()


class WorldState:
    """An immutable-by-convention map ``data name -> {property: value}``.

    Mutating operations return new states (:meth:`with_data`,
    :meth:`updated`) using copy-on-write: the outer dict is copied
    shallowly and only the property dicts actually touched are duplicated.
    Inner dicts are therefore shared between states and must never be
    mutated in place — all mutation goes through the two deriving methods.
    This is the planner's hottest data structure (every simulated activity
    execution derives a state), so the sharing matters.
    """

    __slots__ = ("_data", "_mkey")

    def __init__(self, data: Mapping[str, Mapping[str, Any]] | None = None) -> None:
        self._data: dict[str, dict[str, Any]] = {
            name: dict(props) for name, props in (data or {}).items()
        }
        self._mkey: Any = None

    @classmethod
    def _adopt(cls, data: dict[str, dict[str, Any]]) -> "WorldState":
        """Internal: wrap *data* without copying (caller transfers ownership)."""
        out = cls.__new__(cls)
        out._data = data
        out._mkey = None
        return out

    def __getstate__(self) -> dict[str, Any]:
        return {"_data": self._data}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._data = state["_data"]
        self._mkey = None

    def merge_key(self) -> tuple | None:
        """Canonical frozen key of this state, or None if unhashable.

        Valid for the state's whole lifetime because states are
        immutable-by-convention (all mutation derives new states).  Used
        by the simulator's flow merging and by each problem's transition
        table, which interns states by it.
        """
        key = self._mkey
        if key is None:
            key = tuple(
                sorted(
                    (name, tuple(sorted(props.items())))
                    for name, props in self._data.items()
                )
            )
            try:
                hash(key)
            except TypeError:
                key = _UNHASHABLE
            self._mkey = key
        return None if key is _UNHASHABLE else key

    # -- PropertySource protocol -------------------------------------------- #
    def lookup(self, data_name: str, prop: str) -> Any:
        """Value of *prop* on *data_name*; raises KeyError when absent."""
        return self._data[data_name][prop]

    def peek(self, data_name: str, prop: str) -> Any:
        """Non-raising lookup: returns the MISSING sentinel on absence.

        The condition evaluator prefers this over :meth:`lookup` — absent
        data is the common case while plans are still invalid, and raising
        KeyError there dominates evaluation time.
        """
        props = self._data.get(data_name)
        if props is None:
            return _MISSING
        return props.get(prop, _MISSING)

    # -- queries -------------------------------------------------------------- #
    def has(self, data_name: str) -> bool:
        return data_name in self._data

    def properties(self, data_name: str) -> dict[str, Any]:
        """A copy of the property dict (empty if the item is unknown)."""
        return dict(self._data.get(data_name, {}))

    def data_names(self) -> tuple[str, ...]:
        return tuple(self._data)

    def satisfies(self, condition: Condition) -> bool:
        return condition.evaluate(self)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldState):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        return f"WorldState({sorted(self._data)})"

    # -- derivation ------------------------------------------------------------ #
    def with_data(self, data_name: str, **properties: Any) -> "WorldState":
        """New state where *data_name* exists with (at least) *properties*.

        Existing properties of the item are preserved unless overwritten —
        this models the paper's "new and modified data resulting from the
        execution of the activity".
        """
        return self.updated({data_name: properties})

    def updated(self, effects: Mapping[str, Mapping[str, Any]]) -> "WorldState":
        """New state with several data items created/modified at once.

        Copy-on-write: only the property dicts named in *effects* are
        duplicated; all others are shared with this state.
        """
        data = dict(self._data)
        for name, props in effects.items():
            existing = data.get(name)
            merged = dict(existing) if existing is not None else {}
            merged.update(props)
            data[name] = merged
        return WorldState._adopt(data)

    def copy(self) -> "WorldState":
        return WorldState(self._data)
