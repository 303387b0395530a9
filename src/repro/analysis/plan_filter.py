"""Static pre-filter for GP candidate plans.

A candidate tree is *doomed* when no terminal it contains can ever
execute validly: a relaxed possible-values closure (Sinit values plus the
effects of every activity whose precondition is :func:`~repro.analysis.sat.
possibly_true` under the accumulated values, iterated to fixpoint) proves
that every precondition is definitely false in every reachable state.
The closure over-approximates reachability — it ignores ordering,
controller structure and value interactions — so a "doomed" verdict is
sound: the real simulator would mark every single execution invalid.

For a doomed tree, full simulation is pure waste *and* its outcome is
exactly predictable: both of the simulator's skip branches (activity
unknown to T, or known but inapplicable) append the identical partial
tuple, so simulating against a stub problem whose execution table is
empty yields bit-for-bit the same flows, weights and truncation flag as
the real problem would — just without evaluating a single precondition
or deriving a single state.  :meth:`PlanStaticFilter.fitness_for` in
``"exact"`` mode exploits this: it scores doomed trees through the stub
and the real goal scorer, producing a :class:`~repro.planner.fitness.
Fitness` bit-identical to full evaluation.  Evolution, traces and final
plans are therefore unchanged; only the work avoided shows up (in the
engine's ``analysis_rejected`` counter).

``"race"`` mode is ``"exact"`` plus the concurrency verifier's
interference check applied at the tree level: a CONCURRENT controller
whose children hold spec-distinct terminals writing the same data key is
*racy* — the enacted fork's outcome depends on branch completion order,
so the plan is penalized to a floor fitness (only the
representation-efficiency term's size pressure) before any simulation.
This perturbs fitness (racy plans may simulate as "solved" under the
simulator's per-order enumeration), so it is opt-in via
``GPConfig.static_filter``; doomed trees still score bit-identically
through the exact stub path.  Racy rejections are counted separately
(``race_rejected``).  ``"off"`` disables the filter: it is the reference
the exact mode's bit-identity is checked against.

The closure depends only on the *set* of terminal names, which GP
populations repeat endlessly, so verdicts are cached per name-set; racy
verdicts are cached per struct-key (the verdict depends on tree shape,
not just the name set).
"""

from __future__ import annotations

from repro.analysis.sat import possibly_true
from repro.plan.metrics import representation_efficiency
from repro.plan.tree import Controller, ControllerKind, PlanNode, Terminal
from repro.planner.fitness import Fitness, FitnessWeights
from repro.planner.problem import PlanningProblem
from repro.planner.simulate import SimulationOptions, simulate_plan
from repro.planner.state import WorldState

__all__ = ["PlanStaticFilter", "terminal_names"]

_EMPTY_TABLE: dict = {}


class _InertProblem:
    """Duck-typed stand-in for :class:`PlanningProblem` during stub
    simulation of doomed trees: the real initial state, an empty
    execution table (every terminal takes the activity-unknown branch,
    which appends the same partial tuple the real inapplicable branch
    would)."""

    __slots__ = ("initial_state",)

    def __init__(self, initial_state: WorldState) -> None:
        self.initial_state = initial_state

    def execution_table(self) -> dict:
        return _EMPTY_TABLE


def terminal_names(tree: PlanNode) -> frozenset[str]:
    """The set of activity names the tree's terminals reference."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            names.add(node.activity)
        else:
            stack.extend(node.children)
    return frozenset(names)


class PlanStaticFilter:
    """Per-problem static rejector shared by all evaluations of one run."""

    MODES = ("off", "exact", "race")

    def __init__(
        self,
        problem: PlanningProblem,
        weights: FitnessWeights,
        smax: int,
        options: SimulationOptions,
        mode: str = "exact",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"static filter mode must be one of {self.MODES}, got {mode!r}"
            )
        self.problem = problem
        self.weights = weights
        self.smax = smax
        self.options = options
        self.mode = mode
        self.race_rejected = 0
        self._stub = _InertProblem(problem.initial_state)
        self._doomed_cache: dict[frozenset[str], bool] = {}
        self._racy_cache: dict[tuple, bool] = {}
        #: Values every (data, property) pair holds in Sinit — the
        #: closure's seed, shared across all cached name sets.
        seed: dict[tuple[str, str], set] = {}
        for data in problem.initial_state:
            for prop, value in problem.initial_state.properties(data).items():
                seed.setdefault((data, prop), set()).add(value)
        self._seed = seed

    def doomed(self, tree: PlanNode) -> bool:
        """Can no terminal of *tree* ever execute validly?  Sound: True
        implies the real simulation marks every execution invalid."""
        if self.mode == "off":
            return False
        names = terminal_names(tree)
        verdict = self._doomed_cache.get(names)
        if verdict is None:
            try:
                verdict = self._names_doomed(names)
            except TypeError:
                # Unhashable effect values defeat the closure's value
                # sets; give up (soundly) on this name set.
                verdict = False
            self._doomed_cache[names] = verdict
        return verdict

    def _names_doomed(self, names: frozenset[str]) -> bool:
        specs = {
            name: self.problem.activities[name]
            for name in names
            if name in self.problem.activities
        }
        if not specs:
            return True  # no terminal is even in T
        possible = {key: set(values) for key, values in self._seed.items()}
        valid: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, spec in specs.items():
                if name in valid:
                    continue
                if possibly_true(spec.precondition, possible):
                    valid.add(name)
                    changed = True
                    for data, props in spec.effects.items():
                        for prop, value in props.items():
                            possible.setdefault((data, prop), set()).add(value)
        return not valid

    def racy(self, tree: PlanNode) -> bool:
        """Does any CONCURRENT controller of *tree* put spec-distinct
        terminals with overlapping write sets on sibling branches?

        Mirrors the graph-level E601 check of
        :mod:`repro.analysis.concurrency` on the plan tree itself, before
        conversion: terminals with *identical* specs (service, inputs,
        outputs, effects) are replicas of one logical step and exempt —
        same-name terminals under one fork always are.
        """
        if self.mode != "race":
            return False
        key = tree.struct_key()
        verdict = self._racy_cache.get(key)
        if verdict is None:
            verdict = self._tree_racy(tree)
            self._racy_cache[key] = verdict
        return verdict

    def _tree_racy(self, node: PlanNode) -> bool:
        if isinstance(node, Terminal):
            return False
        assert isinstance(node, Controller)
        if node.kind is ControllerKind.CONCURRENT and len(node.children) >= 2:
            branches = [sorted(terminal_names(child)) for child in node.children]
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    for a in branches[i]:
                        for b in branches[j]:
                            if self._pair_races(a, b):
                                return True
        return any(self._tree_racy(child) for child in node.children)

    def _pair_races(self, a: str, b: str) -> bool:
        spec_a = self.problem.activities.get(a)
        spec_b = self.problem.activities.get(b)
        if spec_a is None or spec_b is None:
            return False  # unknown terminals never execute (doomed's turf)
        if not (set(spec_a.outputs) & set(spec_b.outputs)):
            return False
        try:
            return self._race_spec(a, spec_a) != self._race_spec(b, spec_b)
        except TypeError:
            return True  # incomparable effect values defeat the exemption

    @staticmethod
    def _race_spec(name: str, spec) -> tuple:
        effects = tuple(
            (data, prop, spec.effects[data][prop])
            for data in sorted(spec.effects)
            for prop in sorted(spec.effects[data])
        )
        return (
            spec.service or name,
            frozenset(spec.inputs),
            frozenset(spec.outputs),
            effects,
        )

    def fitness_for(self, tree: PlanNode) -> Fitness | None:
        """The tree's fitness if it is statically doomed (or, in
        ``"race"`` mode, racy), else None (caller simulates normally).

        Doomed trees get a value bit-identical to full evaluation; racy
        trees take a floor score keeping only the representation-
        efficiency term's size pressure (there is no "exact" score for a
        plan whose enacted outcome is order-dependent).
        """
        if self.racy(tree):
            self.race_rejected += 1
            fr = representation_efficiency(tree, self.smax)
            return Fitness(0.0, 0.0, fr, self.weights.efficiency * fr, False)
        if not self.doomed(tree):
            return None
        fr = representation_efficiency(tree, self.smax)
        report = simulate_plan(tree, self._stub, self.options)
        fv = report.validity_fitness()
        fg = report.goal_fitness(self.problem)
        overall = (
            self.weights.validity * fv
            + self.weights.goal * fg
            + self.weights.efficiency * fr
        )
        return Fitness(fv, fg, fr, overall, report.truncated)
