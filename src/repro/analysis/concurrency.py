"""Concurrency verifier: races, deadlocks and critical paths of FORK regions.

The coordination service enacts the branches of a ``Fork``/``Join`` pair
concurrently, merging each branch's data writes into the shared case as
they complete.  Nothing before this pass reasoned about what those
branches do *to each other*: a workflow that enacts cleanly under one
interleaving can silently lose a write, starve its join, or deadlock on
resource ordering under another.  Three passes close that gap, all static
and pure graph work like the rest of the analyzer:

1. **Interference** — per-branch read/write data-key footprints (the
   kind-aware def/use tables of :mod:`repro.analysis.dataflow`, so writes
   reachable only through CHOICE arms or LOOP bodies count too).  Sibling
   branches writing one key is ``E601 fork-interference`` (the surviving
   value depends on completion order); one branch reading what a sibling
   writes is ``W602 fork-read-write`` (the value seen depends on the
   interleaving).  Activities with *identical specs* — same service, same
   input set, same output set — are replicas of one logical step (the
   planner's ``X``/``X_2`` renaming, Figure 13's P3DR1..P3DR4) and are
   exempt: their writes are interchangeable by construction.

2. **Deadlock / starvation** — a branch-level wait graph: branch *i*
   waits on branch *j* when an activity of *i* reads a key only an
   activity of *j* produces.  A cycle means no interleaving delivers all
   transfers before the join (``E611 fork-deadlock``), reported with the
   exact reader cycle.  Declared resource reservations (an optional
   ``activity -> ordered resource list`` table) are checked for the
   classic lock-order inversion across branches, also ``E611``.  A Choice
   inside a branch whose outgoing guards leave a satisfiable gap — a
   concrete property valuation under which *no* arm holds, found with the
   1-D machinery of :mod:`repro.analysis.sat` — starves the join
   (``E612 fork-join-starvation``); the finding carries the witness
   valuation.

3. **Critical path** — unit-cost longest chains per branch.  A fork whose
   parallel speedup bound (total branch work over the longest branch)
   falls below 1.25 is effectively serial and reported as ``W621
   fork-imbalance``.

The fork regions are read off the AST that
:func:`~repro.process.structure.process_to_ast` recovers — the one parser
of the region grammar — whose Fork, Choice and Iterative nodes carry the
graph names they were recovered from.  Every verdict is conservative in
the analyzer's usual sense: the pass stays silent on graphs the recovery
rejects (that is E104's job), on DNF blow-ups, and on exotic literal
types.  :func:`race_witness` closes the loop dynamically — it replays a
case journal against the static conflicts and reports which flagged
pairs actually interleaved on the flagged key, giving the bench a
measured precision number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.dataflow import _reads, _writes
from repro.analysis.findings import Finding
from repro.analysis.sat import expand_dnf
from repro.errors import ConversionError, ProcessStructureError
from repro.process.ast_nodes import ActivityNode, ChoiceNode, IterativeNode, Node, SequenceNode
from repro.process.conditions import TRUE, Condition
from repro.process.model import Activity, ActivityKind, ProcessDescription
from repro.process.structure import process_to_ast

__all__ = [
    "Conflict",
    "ForkBranch",
    "ForkRegion",
    "WitnessReport",
    "WitnessVerdict",
    "concurrency_findings",
    "fork_regions",
    "interference_conflicts",
    "race_witness",
]

#: Give up on the E612 witness search past this many candidate states.
_WITNESS_LIMIT = 512

#: Speedup bound below which a fork is effectively serial (W621).
_IMBALANCE_FLOOR = 1.25


# -- fork-region recovery ---------------------------------------------------- #

@dataclass(frozen=True)
class ForkBranch:
    """One branch of a fork region.

    *activities* lists every activity name the branch can visit, in walk
    order — end-user activities plus nested flow control, so choice-guard
    reads (attributed to the CHOICE name) and writes buried in CHOICE arms
    or LOOP bodies are part of the branch's footprint.  *critical_path* is
    the unit-cost longest chain (choice = worst arm, loop body once,
    nested fork = longest branch).
    """

    entry: str
    activities: tuple[str, ...]
    critical_path: float


@dataclass(frozen=True)
class ForkRegion:
    """A recovered Fork/Join pair with its branches."""

    fork: str
    join: str
    branches: tuple[ForkBranch, ...]

    @property
    def total_work(self) -> float:
        return sum(b.critical_path for b in self.branches)

    @property
    def critical_path(self) -> float:
        return max(b.critical_path for b in self.branches)

    @property
    def speedup(self) -> float:
        """Parallel speedup bound: total work over the longest branch."""
        longest = self.critical_path
        return self.total_work / longest if longest else float(len(self.branches))


def _recover(pd: ProcessDescription) -> Node | None:
    """*pd*'s recovered AST, or None when the graph is not well-structured
    — the structural pass owns that diagnosis (E104)."""
    try:
        return process_to_ast(pd)
    except (ConversionError, ProcessStructureError):
        return None


def _walk(node: Node, regions: list[ForkRegion]) -> tuple[list[str], float]:
    """*node*'s graph names in walk order and its unit cost (choice = worst
    arm, loop = its body once, the must-execute iteration, fork = longest
    branch); appends each fork region after the regions nested in its
    branches."""
    if isinstance(node, ActivityNode):
        return [node.name], 1.0
    if isinstance(node, SequenceNode):
        names: list[str] = []
        cost = 0.0
        for child in node.children:
            sub, sub_cost = _walk(child, regions)
            names.extend(sub)
            cost += sub_cost
        return names, cost
    opening, closing = node.anchor
    if isinstance(node, IterativeNode):
        body, cost = _walk(node.body, regions)
        return [opening, *body, closing], cost
    if isinstance(node, ChoiceNode):
        arms = [_walk(arm, regions) for _, arm in node.branches]
        names = [name for sub, _ in arms for name in sub]
        return [opening, *names, closing], max(cost for _, cost in arms)
    branches = tuple(
        ForkBranch(sub[0], tuple(sub), cost)
        for sub, cost in (_walk(branch, regions) for branch in node.branches)
    )
    regions.append(ForkRegion(opening, closing, branches))
    names = [name for branch in branches for name in branch.activities]
    return [opening, *names, closing], max(b.critical_path for b in branches)


def _regions(ast: Node) -> tuple[ForkRegion, ...]:
    regions: list[ForkRegion] = []
    _walk(ast, regions)
    return tuple(regions)


def fork_regions(pd: ProcessDescription) -> tuple[ForkRegion, ...]:
    """All Fork/Join regions of *pd* (inner regions before the fork that
    encloses them), or ``()`` when the graph is not well-structured."""
    ast = _recover(pd)
    return () if ast is None else _regions(ast)


# -- pass 1: interference ---------------------------------------------------- #

@dataclass(frozen=True)
class Conflict:
    """One data-key hazard between two sibling-branch activities.

    *kind* is ``"write-write"`` or ``"read-write"``; for read-write,
    *first* is the reader and *second* the writer.  The *locus* is the
    order-independent activity pair, matching the Finding it feeds.
    """

    kind: str
    fork: str
    data: str
    first: str
    second: str

    @property
    def locus(self) -> str:
        low, high = sorted((self.first, self.second))
        return f"{low}<->{high}"


def _spec_key(activity: Activity) -> tuple:
    """Replica-exemption key: two end-user activities with one service and
    identical input/output sets are interchangeable copies of one logical
    step (plan-tree ``X``/``X_2`` renaming; Figure 13's P3DR1..P3DR4)."""
    if activity.kind is ActivityKind.END_USER:
        return (
            "svc",
            activity.service,
            frozenset(activity.inputs),
            frozenset(activity.outputs),
        )
    return ("fc", activity.name)


def interference_conflicts(
    pd: ProcessDescription,
    regions: tuple[ForkRegion, ...] | None = None,
) -> tuple[Conflict, ...]:
    """Every write-write and read-write hazard between sibling branches."""
    if regions is None:
        regions = fork_regions(pd)
    reads = _reads(pd)
    writes = _writes(pd)
    spec = {a.name: _spec_key(a) for a in pd}
    conflicts: list[Conflict] = []
    for region in regions:
        for i, left in enumerate(region.branches):
            for right in region.branches[i + 1:]:
                for a in left.activities:
                    for b in right.activities:
                        if spec[a] == spec[b]:
                            continue  # replicas of one logical step
                        for key in sorted(writes[a] & writes[b]):
                            low, high = sorted((a, b))
                            conflicts.append(
                                Conflict("write-write", region.fork, key, low, high)
                            )
                        for key in sorted(reads[a] & writes[b]):
                            conflicts.append(
                                Conflict("read-write", region.fork, key, a, b)
                            )
                        for key in sorted(reads[b] & writes[a]):
                            conflicts.append(
                                Conflict("read-write", region.fork, key, b, a)
                            )
    return tuple(conflicts)


# -- pass 2: deadlock / starvation ------------------------------------------- #

def _sccs(nodes: list[int], edges: dict[tuple[int, int], Conflict]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan over sorted nodes,
    so output order is deterministic)."""
    adjacency: dict[int, list[int]] = {n: [] for n in nodes}
    for i, j in sorted(edges):
        adjacency[i].append(j)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    out: list[list[int]] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adjacency[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                out.append(sorted(component))
    return out


def _wait_cycle_findings(
    region: ForkRegion,
    conflicts: tuple[Conflict, ...],
    branch_of: dict[str, int],
    suppressed: set[tuple[str, frozenset[int]]],
) -> list[Finding]:
    """E611 over the branch wait graph (reader branch -> writer branch)."""
    edges: dict[tuple[int, int], Conflict] = {}
    for c in conflicts:
        if c.kind != "read-write" or c.fork != region.fork:
            continue
        pair = (branch_of[c.first], branch_of[c.second])
        edges.setdefault(pair, c)
    findings: list[Finding] = []
    for component in _sccs(list(range(len(region.branches))), edges):
        if len(component) < 2:
            continue
        member = set(component)
        readers: list[str] = []
        details: list[str] = []
        for i in component:
            targets = sorted(j for (x, j) in edges if x == i and j in member)
            c = edges[(i, targets[0])]
            readers.append(c.first)
            details.append(f"{c.first!r} waits for {c.data!r} from {c.second!r}")
        locus = "->".join([*readers, readers[0]])
        findings.append(
            Finding(
                "E611", locus,
                f"branches of fork {region.fork!r} form a transfer-"
                f"dependency cycle: " + "; ".join(details) + " — no "
                f"interleaving satisfies all of them before join "
                f"{region.join!r}",
            )
        )
        for i in component:
            for j in component:
                if i != j:
                    suppressed.add((region.fork, frozenset((i, j))))
    return findings


def _reservation_findings(
    region: ForkRegion,
    reservations: dict[str, tuple[str, ...]],
) -> list[Finding]:
    """E611 lock-order inversions across sibling branches."""
    branch_orders: list[dict[tuple[str, str], tuple[str, str]]] = []
    for branch in region.branches:
        sequence = [
            (resource, name)
            for name in branch.activities
            for resource in reservations.get(name, ())
        ]
        orders: dict[tuple[str, str], tuple[str, str]] = {}
        for p in range(len(sequence)):
            for q in range(p + 1, len(sequence)):
                r1, a1 = sequence[p]
                r2, a2 = sequence[q]
                if r1 != r2:
                    orders.setdefault((r1, r2), (a1, a2))
        branch_orders.append(orders)
    findings: list[Finding] = []
    reported: set[frozenset[str]] = set()
    for i in range(len(branch_orders)):
        for j in range(i + 1, len(branch_orders)):
            for (r1, r2), (a1, _) in sorted(branch_orders[i].items()):
                inverted = branch_orders[j].get((r2, r1))
                if inverted is None:
                    continue
                pair = frozenset((r1, r2))
                if pair in reported:
                    continue
                reported.add(pair)
                b1 = inverted[0]
                low, high = sorted((a1, b1))
                findings.append(
                    Finding(
                        "E611", f"{low}->{high}->{low}",
                        f"lock-order inversion across branches of fork "
                        f"{region.fork!r}: {a1!r} reserves {r1!r} before "
                        f"{r2!r} while {b1!r} reserves {r2!r} before "
                        f"{r1!r} — the branches can deadlock holding one "
                        f"resource each",
                    )
                )
    return findings


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _guard_gap_witness(
    conditions: list[Condition],
) -> dict[tuple[str, str], object] | None:
    """A concrete property valuation under which no condition holds, or
    None when there is no gap / the search cannot be exact.

    Only *present-value* witnesses count: every referenced property is
    assigned a concrete value drawn from the guards' own literals (plus
    boundary and midpoint probes), so "the data never materialized" — an
    upstream-binding question, not a guard-coverage one — never produces
    a finding.
    """
    disjuncts: list[tuple] = []
    for condition in conditions:
        dnf = expand_dnf(condition)
        if dnf is None:
            return None
        disjuncts.extend(dnf)
    if any(not conjunction for conjunction in disjuncts):
        return None  # an unconditional disjunct always holds

    literals: dict[tuple[str, str], set] = {}
    for conjunction in disjuncts:
        for atom in conjunction:
            literals.setdefault((atom.data, atom.property), set()).add(atom.value)

    candidates: dict[tuple[str, str], list] = {}
    for dim in sorted(literals):
        values = literals[dim]
        numbers = sorted(v for v in values if _is_num(v))
        strings = sorted(v for v in values if isinstance(v, str))
        if len(numbers) + len(strings) != len(values):
            return None  # exotic literal types: stay silent
        probes: list = []
        for v in numbers:
            probes.extend((v - 1, v, v + 1))
        for a, b in zip(numbers, numbers[1:]):
            probes.append((a + b) / 2)
        for s in strings:
            probes.extend(("", s, s + "\x7f"))
        seen: set = set()
        ordered: list = []
        for v in sorted(probes, key=lambda v: (isinstance(v, str), v)):
            if v not in seen:
                seen.add(v)
                ordered.append(v)
        candidates[dim] = ordered

    total = 1
    for values in candidates.values():
        total *= len(values)
        if total > _WITNESS_LIMIT:
            return None

    dims = sorted(candidates)
    for combo in product(*(candidates[dim] for dim in dims)):
        state = dict(zip(dims, combo))
        satisfied = any(
            all(
                atom.relation.apply(state[(atom.data, atom.property)], atom.value)
                for atom in conjunction
            )
            for conjunction in disjuncts
        )
        if not satisfied:
            return state
    return None


def _starvation_findings(
    region: ForkRegion, guards: dict[str, list[Condition]]
) -> list[Finding]:
    """E612: a Choice inside a branch whose guards leave a coverage gap.

    *guards* maps each Choice to its arm conditions (a missing guard is
    already ``TRUE`` in the recovered AST; loop latches are not Choices
    there)."""
    findings: list[Finding] = []
    branch_names = sorted(
        {name for branch in region.branches for name in branch.activities}
    )
    for name in branch_names:
        arms = guards.get(name)
        if arms is None or any(isinstance(c, type(TRUE)) for c in arms):
            continue  # not a Choice, or a default arm always fires
        witness = _guard_gap_witness(arms)
        if witness is None:
            continue
        rendering = ", ".join(
            f"{data}.{prop} = {value!r}"
            for (data, prop), value in sorted(witness.items())
        )
        findings.append(
            Finding(
                "E612", name,
                f"no guard of Choice {name!r} holds when {rendering} — its "
                f"branch of fork {region.fork!r} stalls there and join "
                f"{region.join!r} never fires",
            )
        )
    return findings


# -- the combined pass -------------------------------------------------------- #

def concurrency_findings(
    pd: ProcessDescription,
    reservations: dict[str, tuple[str, ...]] | None = None,
) -> list[Finding]:
    """E601/W602/E611/E612/W621 over a structurally clean process.

    *reservations* optionally declares the ordered resources each activity
    reserves while it runs (the case description's ``reserves`` table);
    without it the lock-order check has nothing to say.
    """
    ast = _recover(pd)
    regions = () if ast is None else _regions(ast)
    if not regions:
        return []
    guards = {
        node.anchor[0]: [condition for condition, _ in node.branches]
        for node in ast.walk()
        if isinstance(node, ChoiceNode)
    }
    findings: list[Finding] = []
    conflicts = interference_conflicts(pd, regions)

    branch_of_fork: dict[str, dict[str, int]] = {}
    for region in regions:
        table: dict[str, int] = {}
        for idx, branch in enumerate(region.branches):
            for name in branch.activities:
                table[name] = idx
        branch_of_fork[region.fork] = table

    # Deadlocks first: a mutual-wait pair's W602s are subsumed by its E611.
    suppressed: set[tuple[str, frozenset[int]]] = set()
    for region in regions:
        findings.extend(
            _wait_cycle_findings(
                region, conflicts, branch_of_fork[region.fork], suppressed
            )
        )
        if reservations:
            findings.extend(_reservation_findings(region, reservations))
        findings.extend(_starvation_findings(region, guards))

    groups: dict[tuple[str, str, str], list[Conflict]] = {}
    for c in conflicts:
        groups.setdefault((c.kind, c.fork, c.locus), []).append(c)
    for (kind, fork, locus), group in sorted(groups.items()):
        keys = sorted({c.data for c in group})
        rendered = ", ".join(repr(k) for k in keys)
        if kind == "write-write":
            low, high = sorted((group[0].first, group[0].second))
            findings.append(
                Finding(
                    "E601", locus,
                    f"activities {low!r} and {high!r} run on sibling "
                    f"branches of fork {fork!r} and both write {rendered} "
                    f"— the surviving value depends on completion order",
                )
            )
        else:
            branch_of = branch_of_fork[fork]
            pair = frozenset(
                (branch_of[group[0].first], branch_of[group[0].second])
            )
            if (fork, pair) in suppressed:
                continue
            reader, writer = group[0].first, group[0].second
            findings.append(
                Finding(
                    "W602", locus,
                    f"activity {reader!r} reads {rendered} that sibling-"
                    f"branch activity {writer!r} writes (fork {fork!r}) — "
                    f"the value it sees depends on the interleaving",
                )
            )

    for region in regions:
        longest = region.critical_path
        if len(region.branches) < 2 or longest <= 0:
            continue
        speedup = region.speedup
        if speedup >= _IMBALANCE_FLOOR:
            continue
        slowest = max(region.branches, key=lambda b: b.critical_path)
        findings.append(
            Finding(
                "W621", region.fork,
                f"fork {region.fork!r} is imbalanced: {longest:g} of its "
                f"{region.total_work:g} work units sit on the branch "
                f"entered at {slowest.entry!r}, bounding parallel speedup "
                f"at {speedup:.2f}x across {len(region.branches)} branches",
            )
        )

    return sorted(findings, key=lambda f: (f.code, f.locus))


# -- witness validation ------------------------------------------------------- #

@dataclass(frozen=True)
class WitnessVerdict:
    """One conflict replayed against a journal."""

    conflict: Conflict
    status: str  # "confirmed" | "refuted" | "unobserved"
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {
            "kind": self.conflict.kind,
            "data": self.conflict.data,
            "locus": self.conflict.locus,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class WitnessReport:
    """Replay summary: how many static conflicts the journal bears out.

    *precision* is confirmed over checkable (confirmed + refuted);
    conflicts the journal cannot decide — an activity never dispatched,
    a guard-reader with no runtime footprint — count as neither.
    """

    verdicts: tuple[WitnessVerdict, ...]

    def _count(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    @property
    def confirmed(self) -> int:
        return self._count("confirmed")

    @property
    def refuted(self) -> int:
        return self._count("refuted")

    @property
    def unobserved(self) -> int:
        return self._count("unobserved")

    @property
    def checkable(self) -> int:
        return self.confirmed + self.refuted

    @property
    def precision(self) -> float:
        checkable = self.checkable
        return self.confirmed / checkable if checkable else 1.0


def race_witness(events, conflicts) -> WitnessReport:
    """Replay journal *events* against static *conflicts*.

    *events* is a case's event sequence (:class:`repro.obs.journal.
    JournalEvent` or anything with ``kind``/``time``/``attrs``).  Each
    activity's execution window runs from its last ``dispatch`` to its
    ``activity-complete``; a conflict is **confirmed** when both
    activities' windows overlap and the journal shows both touching the
    flagged key (reads from the dispatch's inputs, writes from the
    completion's outputs), **refuted** when both ran but their windows
    were disjoint, and **unobserved** when the journal cannot decide —
    so static findings earn a measured precision, not just plausibility.
    """
    starts: dict[str, tuple[float, frozenset[str]]] = {}
    spans: dict[str, tuple[float, float, frozenset[str], frozenset[str]]] = {}
    for event in events:
        attrs = event.attrs
        if event.kind == "dispatch":
            starts[attrs["activity"]] = (
                event.time, frozenset(attrs.get("inputs", ()))
            )
        elif event.kind == "activity-complete":
            name = attrs["activity"]
            start, inputs = starts.get(name, (event.time, frozenset()))
            spans[name] = (
                start, event.time, inputs, frozenset(attrs.get("outputs", ()))
            )

    verdicts: list[WitnessVerdict] = []
    for conflict in conflicts:
        a = spans.get(conflict.first)
        b = spans.get(conflict.second)
        if a is None or b is None:
            missing = conflict.first if a is None else conflict.second
            verdicts.append(
                WitnessVerdict(
                    conflict, "unobserved",
                    f"{missing!r} never completed in the journal",
                )
            )
            continue
        if conflict.kind == "write-write":
            relevant = conflict.data in a[3] and conflict.data in b[3]
        else:
            relevant = conflict.data in a[2] and conflict.data in b[3]
        if not relevant:
            verdicts.append(
                WitnessVerdict(
                    conflict, "unobserved",
                    f"{conflict.data!r} has no runtime footprint on both "
                    f"activities",
                )
            )
            continue
        if a[0] < b[1] and b[0] < a[1]:
            verdicts.append(
                WitnessVerdict(
                    conflict, "confirmed",
                    f"windows [{a[0]:g}, {a[1]:g}] and [{b[0]:g}, {b[1]:g}] "
                    f"interleave on {conflict.data!r}",
                )
            )
        else:
            verdicts.append(
                WitnessVerdict(
                    conflict, "refuted",
                    f"windows [{a[0]:g}, {a[1]:g}] and [{b[0]:g}, {b[1]:g}] "
                    f"are disjoint",
                )
            )
    return WitnessReport(tuple(verdicts))
