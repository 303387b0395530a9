"""Plan library: warm-start planning by retrieve → verify → repair.

Every case used to pay full GP planning — O(population × generations)
simulation — even when an identical process/goal was planned moments ago.
The paper's metainformation layer exists precisely so prior solutions can
be *found* and *reused* instead of re-derived; this module is the
repository half of that story (the planning service owns the ladder, see
:mod:`repro.services.planning`):

* **Key scheme.**  Entries are keyed by ``(problem_digest, goal_signature)``
  — a stable blake2b hex digest over the canonical activity set *T* plus an
  order-insensitive digest over the goal condition texts, so equal
  problems share a key across requests, cases and sessions.
* **Retrieval ladder.**  An *exact* key match is a hit (re-verified by the
  analyzer before enactment); entries sharing the digest or overlapping
  goal conditions are *near-misses* whose plans seed the GP initial
  population; anything else is a miss.
* **Repair.**  When re-verification flags ``E501 unresolvable-service``
  terminals (a registered service vanished since the plan was stored),
  :func:`substitution_map` picks the effect-overlap-maximal resolvable
  replacement for exactly the flagged activities and
  :func:`~repro.planner.repair.swap_terminals` swaps those terminals —
  and nothing else — in the stored plan.

The library itself is engine-free and deterministic: no wall clock, no
randomness, iteration always over sorted or insertion-ordered views.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.plan.tree import PlanNode
from repro.planner.problem import PlanningProblem
from repro.process.model import ProcessDescription

__all__ = [
    "PlanEntry",
    "PlanLibrary",
    "goal_signature",
    "library_key",
    "problem_digest",
    "substitution_map",
]

#: Ladder outcomes, in the order the planning service tries them.
SOURCES = ("hit", "repair", "seed", "miss")


def _hex(payload: str) -> str:
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _canon(value: Any) -> str:
    """A deterministic text form for effect/property literals.

    ``repr`` of a dict depends on insertion order; this recursion sorts
    mappings by key text so structurally-equal values always canonicalize
    identically across sessions.
    """
    if isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{k!r}:{_canon(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    return repr(value)


def goal_signature(goals: Iterable[Any]) -> str:
    """Order-insensitive hex signature of a goal set G.

    Conditions stringify deterministically (see
    :mod:`repro.process.conditions`), so sorting the texts makes the
    signature independent of authoring order.
    """
    return _hex("\n".join(sorted(str(goal) for goal in goals)))


def problem_digest(problem: PlanningProblem) -> str:
    """Stable hex digest of the activity set T of *problem*.

    Covers each spec's name, service, precondition text, canonicalized
    effects, data signature and cost — everything that shapes which plans
    are expressible and how they score.  The problem *name* and the
    initial state are deliberately excluded: N cases of one workflow over
    per-case data are exactly the reuse population, and initial-state
    drift is covered by re-verification plus the replanning protocol, not
    by the key.
    """
    rows = sorted(
        (
            spec.name,
            spec.service or "",
            str(spec.precondition),
            _canon(spec.effects),
            spec.inputs,
            spec.outputs,
            spec.cost,
        )
        for spec in problem.activities.values()
    )
    return _hex("\n".join(repr(row) for row in rows))


def library_key(problem: PlanningProblem) -> tuple[str, str]:
    """The library key ``(problem_digest, goal_signature)`` for *problem*."""
    return problem_digest(problem), goal_signature(problem.goals)


@dataclass
class PlanEntry:
    """One stored solution: the plan, its emitted process, and provenance."""

    digest: str
    goal_sig: str
    plan: PlanNode
    process: ProcessDescription
    fitness: float
    goals: tuple[str, ...]
    """The goal condition texts (for near-miss overlap scoring)."""
    validity: float = 1.0
    goal: float = 1.0
    problem_name: str = "problem"
    stored_at: float = 0.0
    """Sim-clock time the entry was (last) stored."""
    uses: int = 0

    def __post_init__(self) -> None:
        self.goals = tuple(self.goals)

    @property
    def key(self) -> tuple[str, str]:
        return (self.digest, self.goal_sig)

    def goal_overlap(self, goal_texts: Iterable[str]) -> int:
        """How many of *goal_texts* this entry's goal set shares."""
        mine = frozenset(self.goals)
        return sum(1 for text in goal_texts if text in mine)


@dataclass
class LibraryStats:
    """Counter snapshot returned by :meth:`PlanLibrary.stats`."""

    entries: int
    max_entries: int
    counters: dict[str, int] = field(default_factory=dict)


class PlanLibrary:
    """Bounded in-memory plan repository.

    The planning service owns one instance (see ``PlanningService``);
    lookups hit this index, so the warm path costs a dict probe, not an
    RPC.  Eviction is LRU over *touches* (hits and stores), bounded by
    ``max_entries``, and counted under ``evict``.
    """

    COUNTER_KEYS = (
        "hit",
        "repair",
        "seed",
        "miss",
        "store",
        "evict",
        "verify",
        "reject",
    )

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, str], PlanEntry] = OrderedDict()
        self.counters: dict[str, int] = {key: 0 for key in self.COUNTER_KEYS}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._entries

    def count(self, kind: str) -> None:
        """Bump a ladder counter (unknown kinds get their own slot)."""
        self.counters[kind] = self.counters.get(kind, 0) + 1

    # -- lookup ------------------------------------------------------------ #
    def get(
        self, digest: str, goal_sig: str, *, touch: bool = True
    ) -> PlanEntry | None:
        """The exact entry for a key, refreshing its LRU position."""
        entry = self._entries.get((digest, goal_sig))
        if entry is not None and touch:
            self._entries.move_to_end((digest, goal_sig))
            entry.uses += 1
        return entry

    def related(
        self, digest: str, goal_texts: Iterable[str], *, limit: int = 4
    ) -> list[PlanEntry]:
        """Near-miss entries: same digest or overlapping goal conditions.

        Ordered by descending goal overlap (same-digest entries win ties),
        then by key for determinism; the exact key itself is excluded —
        callers reach it through :meth:`get`.
        """
        texts = tuple(goal_texts)
        scored: list[tuple[int, int, tuple[str, str], PlanEntry]] = []
        for key, entry in self._entries.items():
            overlap = entry.goal_overlap(texts)
            same_digest = 1 if entry.digest == digest else 0
            if overlap or same_digest:
                scored.append((-overlap, -same_digest, key, entry))
        scored.sort(key=lambda row: row[:3])
        return [entry for *_rank, entry in scored[:limit]]

    def entries(self) -> list[PlanEntry]:
        """All entries, least-recently-used first."""
        return list(self._entries.values())

    # -- mutation ---------------------------------------------------------- #
    def put(self, entry: PlanEntry) -> None:
        """Insert/replace an entry, evicting the least recently used past
        the cap."""
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.counters["evict"] += 1

    def remove(self, digest: str, goal_sig: str) -> PlanEntry | None:
        return self._entries.pop((digest, goal_sig), None)

    def purge(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    # -- introspection ----------------------------------------------------- #
    def stats(self) -> LibraryStats:
        return LibraryStats(
            entries=len(self._entries),
            max_entries=self.max_entries,
            counters=dict(self.counters),
        )


def substitution_map(
    problem: PlanningProblem,
    unresolvable: Iterable[str],
    resolvable_services: Iterable[str],
) -> dict[str, str]:
    """Repair substitutions for exactly the unresolvable activity names.

    For each flagged activity the candidate set is every *other* activity
    in T whose service is currently resolvable; the winner maximizes
    effect-key overlap (ties broken by input overlap, then name) and must
    share at least one effect — a swap that produces none of the original
    outputs would silently change what the plan computes, so such
    activities are reported as irreparable by omission.  Callers compare
    ``set(mapping)`` against the flagged set to decide whether the repair
    is complete.
    """
    resolvable = frozenset(resolvable_services)
    mapping: dict[str, str] = {}
    for name in sorted(set(unresolvable)):
        target = problem.spec(name)
        if target is None:
            continue
        target_effects = frozenset(target.effects)
        target_inputs = frozenset(target.inputs)
        best: tuple[int, int, str] | None = None
        for cand_name in sorted(problem.activities):
            cand = problem.activities[cand_name]
            if cand_name == name or cand.service not in resolvable:
                continue
            effect_overlap = len(target_effects & frozenset(cand.effects))
            if not effect_overlap:
                continue
            input_overlap = len(target_inputs & frozenset(cand.inputs))
            rank = (-effect_overlap, -input_overlap, cand_name)
            if best is None or rank < best:
                best = rank
        if best is not None:
            mapping[name] = best[2]
    return mapping
