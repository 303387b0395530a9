"""Plan simulation: Eq.-1 accounting, flow enumeration, merging."""

import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.planner import (
    ActivitySpec,
    EvaluationEngine,
    FlowResult,
    PlanningProblem,
    SimulationOptions,
    SimulationReport,
    WorldState,
    simulate_plan,
    simulate_with_attribution,
)
from repro.planner.problem import TransitionTable
from repro.plan import (
    concurrent,
    iterative,
    random_tree,
    selective,
    sequential,
    terminal,
)
from repro.process.conditions import Atom, Relation
from repro.virolab import planning_problem


def ready(name):
    return Atom(name, "Status", Relation.EQ, "ready")


@pytest.fixture
def problem():
    return PlanningProblem.build(
        "p",
        {"d0": {"Status": "ready"}},
        (ready("d2"),),
        [
            ActivitySpec("a1", precondition=ready("d0"), effects={"d1": {"Status": "ready"}}),
            ActivitySpec("a2", precondition=ready("d1"), effects={"d2": {"Status": "ready"}}),
            ActivitySpec("b", precondition=ready("never"), effects={"x": {"Status": "ready"}}),
        ],
    )


class TestTerminalsAndSequences:
    def test_valid_chain(self, problem):
        report = simulate_plan(sequential("a1", "a2"), problem)
        assert report.validity_fitness() == 1.0
        assert report.goal_fitness(problem) == 1.0
        assert report.total_executed == 2

    def test_wrong_order_partial_validity(self, problem):
        report = simulate_plan(sequential("a2", "a1"), problem)
        # a2 invalid (d1 missing), a1 valid
        assert report.validity_fitness() == 0.5
        assert report.goal_fitness(problem) == 0.0

    def test_invalid_activity_does_not_change_state(self, problem):
        report = simulate_plan(sequential("b", "a1", "a2"), problem)
        assert report.validity_fitness() == pytest.approx(2 / 3)
        assert report.goal_fitness(problem) == 1.0

    def test_unknown_activity_counts_executed_never_valid(self, problem):
        report = simulate_plan(sequential("ghost", "a1"), problem)
        assert report.total_executed == 2
        assert report.total_valid == 1

    def test_single_terminal(self, problem):
        report = simulate_plan(terminal("a1"), problem)
        assert report.validity_fitness() == 1.0
        assert report.goal_fitness(problem) == 0.0


class TestAttribution:
    def test_shared_subtree_is_attributed_per_path(self, problem):
        # One subtree object at two paths, as crossover of a tree with
        # itself produces: each path gets its own (executed, valid).
        shared = sequential("b", "a1")
        tree = selective(shared, concurrent("a1", shared))
        _, stats = simulate_with_attribution(tree, problem)
        assert stats == {
            (0, 0): (1.0, 0.0),
            (0, 1): (1.0, 1.0),
            (1, 0): (1.0, 1.0),
            (1, 1, 0): (1.0, 0.0),
            (1, 1, 1): (1.0, 1.0),
        }


class TestSelective:
    def test_enumerates_each_branch(self, problem):
        report = simulate_plan(
            sequential("a1", selective("a2", "b")), problem
        )
        assert report.flow_count == 2
        # flow 1: a1, a2 valid (goal met); flow 2: a1 valid, b invalid
        assert report.validity_fitness() == pytest.approx(3 / 4)
        assert report.goal_fitness(problem) == pytest.approx(0.5)

    def test_nested_selective_flows_multiply(self, problem):
        tree = sequential(selective("a1", "a1"), selective("a2", "a2"))
        report = simulate_plan(tree, problem)
        assert report.flow_count == 4


class TestIterative:
    def test_default_counts_one_and_two(self, problem):
        report = simulate_plan(iterative("a1"), problem)
        # k=1: executes a1 once; k=2: twice (second application idempotent
        # but still valid).
        assert report.flow_count == 2
        assert report.total_executed == 3
        assert report.validity_fitness() == 1.0

    def test_custom_iteration_counts(self, problem):
        opts = SimulationOptions(iteration_counts=(3,))
        report = simulate_plan(iterative("a1"), problem, opts)
        assert report.flow_count == 1
        assert report.total_executed == 3

    def test_invalid_options(self):
        with pytest.raises(SimulationError):
            SimulationOptions(iteration_counts=())
        with pytest.raises(SimulationError):
            SimulationOptions(iteration_counts=(0,))
        with pytest.raises(SimulationError):
            SimulationOptions(max_flows=0)


class TestConcurrent:
    def test_left_to_right_default(self, problem):
        report = simulate_plan(concurrent("a1", "a2"), problem)
        assert report.flow_count == 1
        assert report.validity_fitness() == 1.0

    def test_multiple_orders_enumerated(self, problem):
        opts = SimulationOptions(concurrent_orders=2)
        report = simulate_plan(concurrent("a2", "a1"), problem, opts)
        # order (a2, a1): a2 invalid; order (a1, a2): both valid
        assert report.flow_count == 2
        assert report.validity_fitness() == pytest.approx(3 / 4)


class TestMerging:
    def test_identical_branches_merge(self, problem):
        # Both selective branches produce identical states -> one merged
        # flow with weight 2.
        report = simulate_plan(selective("a1", "a1"), problem)
        assert len(report.flows) == 1
        assert report.flows[0].weight == 2
        assert report.flow_count == 2

    def test_merging_preserves_fitness(self, problem):
        tree = sequential(selective("a1", "a1"), "a2")
        report = simulate_plan(tree, problem)
        assert report.validity_fitness() == 1.0
        assert report.goal_fitness(problem) == 1.0

    def test_deep_nesting_does_not_overflow(self, problem):
        # Structural unrolling of nested iteratives is O(4^depth); the
        # execution budget must cut this off (truncated=True) while keeping
        # the fitness components well-defined.
        tree = terminal("a1")
        for _ in range(16):
            tree = iterative(selective(tree, tree))
        report = simulate_plan(tree, problem)
        assert report.truncated
        assert 0.0 <= report.validity_fitness() <= 1.0
        assert 0.0 <= report.goal_fitness(problem) <= 1.0

    def test_execution_budget_configurable(self, problem):
        opts = SimulationOptions(max_executions=3)
        report = simulate_plan(
            sequential("a1", "a1", "a1", "a1", "a1"), problem, opts
        )
        assert report.truncated
        assert report.total_executed == 3

    def test_budget_not_hit_on_normal_plans(self, problem):
        report = simulate_plan(sequential("a1", "a2"), problem)
        assert not report.truncated

    def test_truncation_reported(self, problem):
        # Wide selectives over distinct outcomes exceed max_flows.
        opts = SimulationOptions(max_flows=2)
        tree = sequential(
            selective("a1", "b", "ghost"),
            selective("a2", "b", "ghost"),
        )
        report = simulate_plan(tree, problem, opts)
        assert report.truncated
        assert len(report.flows) <= 2


class TestCaseStudy:
    def test_fig11_perfect_fitness(self, case_problem):
        from repro.virolab import plan_tree

        report = simulate_plan(plan_tree(), case_problem)
        assert report.validity_fitness() == 1.0
        assert report.goal_fitness(case_problem) == 1.0

    def test_minimal_plan_also_perfect(self, case_problem):
        report = simulate_plan(
            sequential("POD", "P3DR2", "P3DR3", "PSF"), case_problem
        )
        assert report.validity_fitness() == 1.0
        assert report.goal_fitness(case_problem) == 1.0

    def test_psf_needs_both_streams(self, case_problem):
        report = simulate_plan(
            sequential("POD", "P3DR2", "PSF"), case_problem
        )
        assert report.validity_fitness() < 1.0
        assert report.goal_fitness(case_problem) == 0.0


def _random_trees(problem, count, seed):
    rng = np.random.default_rng(seed)
    activities = list(problem.activity_names)
    return [
        random_tree(activities, max_size=40, rng=rng, max_branch=4)
        for _ in range(count)
    ]


def _twin(initial, variant):
    """One of two problems binding ``a`` and ``b`` to different specs.

    Variant 1: a turns d0 into d1, b turns d1 into d2, goal d2.  Variant 2:
    a needs d1 and writes a raw d2, b turns d0 into d1, goals d0 and raw d2.
    """
    if variant == 1:
        specs = [
            ActivitySpec("a", precondition=ready("d0"), effects={"d1": {"Status": "ready"}}),
            ActivitySpec("b", precondition=ready("d1"), effects={"d2": {"Status": "ready"}}),
        ]
        goals = (ready("d2"),)
    else:
        specs = [
            ActivitySpec("a", precondition=ready("d1"), effects={"d2": {"Status": "raw"}}),
            ActivitySpec("b", precondition=ready("d0"), effects={"d1": {"Status": "ready"}}),
        ]
        goals = (ready("d0"), Atom("d2", "Status", Relation.EQ, "raw"))
    return PlanningProblem(
        initial_state=initial,
        goals=goals,
        activities={spec.name: spec for spec in specs},
        name=f"twin-{variant}",
    )


TWIN_INITIAL = {"d0": {"Status": "ready"}}
TWIN_TREES = (
    sequential("a", "b", "a"),
    selective("a", "b"),
    iterative("b", "a"),
    terminal("ghost"),
)
#: (validity, goal) of each TWIN_TREES plan, worked out by hand.
TWIN_SCORES = {
    1: [(1.0, 1.0), (0.5, 0.0), (4 / 6, 0.5), (0.0, 0.0)],
    2: [(2 / 3, 1.0), (0.5, 0.5), (1.0, 1.0), (0.0, 0.5)],
}


def _twin_outcomes(problem):
    out = []
    for tree in TWIN_TREES:
        report = simulate_plan(tree, problem)
        out.append((report, report.goal_fitness(problem)))
    return out


class TestTransitionTable:
    def test_step_interns_successors(self, problem):
        table = problem.transitions()
        start = problem.initial_state
        first = table.step(start, "a1")
        assert first == problem.spec("a1").apply(start)
        assert table.step(WorldState({"d0": {"Status": "ready"}}), "a1") is first
        assert table.step(first, "a1") is first  # idempotent effects
        assert table.step(start, "a2") is None  # precondition fails

    def test_table_is_built_on_first_use(self):
        problem = planning_problem()
        assert problem.__dict__["_transitions"] is None
        simulate_plan(sequential("POD", "PSF"), problem)
        assert len(problem.transitions()) > 0

    @pytest.mark.parametrize("first", [1, 2])
    def test_problems_sharing_an_initial_state_keep_their_own_steps(self, first):
        alone = {v: _twin_outcomes(_twin(WorldState(TWIN_INITIAL), v)) for v in (1, 2)}
        shared = WorldState(TWIN_INITIAL)
        twins = {v: _twin(shared, v) for v in (1, 2)}
        for variant in (first, 3 - first):
            outcomes = _twin_outcomes(twins[variant])
            assert outcomes == alone[variant]
            scores = [(r.validity_fitness(), goal) for r, goal in outcomes]
            assert scores == pytest.approx(TWIN_SCORES[variant])

    def test_unhashable_state_bypasses_table_and_is_not_merged(self):
        tagged = PlanningProblem.build(
            "tagged",
            {"d0": {"Status": "ready", "Tags": ["raw"]}},
            (ready("d2"),),
            [
                ActivitySpec("a1", precondition=ready("d0"), effects={"d1": {"Status": "ready"}}),
                ActivitySpec("a2", precondition=ready("d1"), effects={"d2": {"Status": "ready"}}),
                ActivitySpec("b", precondition=ready("never"), effects={"x": {"Status": "ready"}}),
            ],
        )
        report = simulate_plan(sequential(selective("a1", "a1", "b"), "a2"), tagged)
        done = WorldState(
            {
                "d0": {"Status": "ready", "Tags": ["raw"]},
                "d1": {"Status": "ready"},
                "d2": {"Status": "ready"},
            }
        )
        assert report == SimulationReport(
            (
                FlowResult(done, 2.0, 2.0, 1.0),
                FlowResult(done, 2.0, 2.0, 1.0),
                FlowResult(tagged.initial_state, 2.0, 0.0, 1.0),
            ),
            False,
        )
        assert report.goal_fitness(tagged) == pytest.approx(2 / 3)
        assert len(tagged.transitions()) == 0

    def test_unhashable_successor_is_not_merged(self):
        listing = PlanningProblem.build(
            "listing",
            {"d0": {"Status": "ready"}},
            (ready("d2"),),
            [
                ActivitySpec(
                    "t",
                    precondition=ready("d0"),
                    effects={"d1": {"Status": "ready", "Tags": ["t"]}},
                ),
                ActivitySpec("a2", precondition=ready("d1"), effects={"d2": {"Status": "ready"}}),
            ],
        )
        report = simulate_plan(sequential(selective("t", "t"), "a2"), listing)
        done = WorldState(
            {
                "d0": {"Status": "ready"},
                "d1": {"Status": "ready", "Tags": ["t"]},
                "d2": {"Status": "ready"},
            }
        )
        assert report == SimulationReport(
            (FlowResult(done, 2.0, 2.0, 1.0), FlowResult(done, 2.0, 2.0, 1.0)),
            False,
        )

    def test_pickled_problem_carries_no_table(self):
        problem = planning_problem()
        trees = _random_trees(problem, 24, seed=7)
        serial = EvaluationEngine(planning_problem()).evaluate_many(trees)
        EvaluationEngine(problem).evaluate_many(trees)  # warm the table
        assert len(problem.transitions()) > 0
        clone = pickle.loads(pickle.dumps(problem))
        assert len(clone.transitions()) == 0
        assert EvaluationEngine(clone).evaluate_many(trees) == serial

    def test_table_past_its_bound_scores_identically(self, monkeypatch):
        reference_problem = planning_problem()
        trees = _random_trees(reference_problem, 40, seed=11)
        reference = EvaluationEngine(reference_problem).evaluate_many(trees)
        assert len(reference_problem.transitions()) > 3
        monkeypatch.setattr(TransitionTable, "MAX_STATES", 3)
        bounded_problem = planning_problem()
        bounded = EvaluationEngine(bounded_problem).evaluate_many(trees)
        assert len(bounded_problem.transitions()) <= 3
        assert bounded == reference
