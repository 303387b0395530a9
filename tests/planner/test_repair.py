"""Plan repair: removing never-valid activities, swapping flagged terminals."""

from repro.plan import normalize, selective, sequential, terminal
from repro.planner import EvaluationEngine, GPConfig, GPPlanner
from repro.planner.repair import (
    never_valid_terminals,
    repair_plan,
    swap_terminals,
)


def test_clean_plan_untouched(case_problem):
    from repro.virolab import plan_tree

    result = repair_plan(plan_tree(), case_problem)
    assert not result.changed
    assert normalize(result.plan) == normalize(plan_tree())


def test_never_valid_terminal_detected(case_problem):
    # 'ghost' is not in T; PSF-before-inputs is invalid in this position.
    tree = sequential("ghost", "POD", "P3DR2", "P3DR3", "PSF")
    paths = never_valid_terminals(tree, case_problem)
    assert (0,) in paths


def test_repair_removes_ghost_and_improves(case_problem):
    tree = sequential("ghost", "POD", "P3DR2", "P3DR3", "PSF")
    evaluator = EvaluationEngine(case_problem)
    before = evaluator(tree)
    result = repair_plan(tree, case_problem, evaluator)
    assert result.removed == ("ghost",)
    assert result.fitness.validity == 1.0
    assert result.fitness.overall > before.overall
    assert result.fitness.goal == before.goal


def test_repair_collapses_degenerate_controllers(case_problem):
    # A selective whose branches are ghost/ghost: both invalid; repairing
    # must remove the whole construct, not leave a dangling controller.
    tree = sequential(
        selective("ghost", "ghost"), "POD", "P3DR2", "P3DR3", "PSF"
    )
    result = repair_plan(tree, case_problem)
    assert result.fitness.validity == 1.0
    assert "ghost" not in result.plan.activities()


def test_useful_duplicates_survive(case_problem):
    # P3DR2 twice: the second execution is *valid* (inputs still present),
    # so repair must not remove it on validity grounds... but it IS
    # removable without hurting validity totals?  No: deleting a valid
    # execution lowers valid count, which the guard forbids.
    tree = sequential("POD", "P3DR2", "P3DR2", "P3DR3", "PSF")
    result = repair_plan(tree, case_problem)
    assert result.fitness.goal == 1.0
    assert result.plan.activities().count("P3DR2") == 2


def test_repair_after_gp_reaches_full_validity(case_problem):
    """The Table-2 near-miss seeds: repair lifts validity to 1.0."""
    cfg = GPConfig(population_size=100, generations=10)
    fixed = 0
    for seed in range(4):
        run = GPPlanner(cfg, rng=seed).plan(case_problem)
        result = repair_plan(run.best_plan, case_problem)
        assert result.fitness.overall >= run.best_fitness.overall - 1e-9
        if run.best_fitness.validity < 1.0 and result.fitness.validity == 1.0:
            fixed += 1
        # goal fitness never degrades
        assert result.fitness.goal >= run.best_fitness.goal - 1e-9


def test_single_terminal_root_not_deleted(case_problem):
    result = repair_plan(terminal("ghost"), case_problem)
    # The root cannot be deleted; the plan stays (still useless, but valid
    # behaviour for the API).
    assert result.plan == terminal("ghost")


def test_repair_collapses_to_single_terminal(case_problem):
    # Deleting the only other child must collapse the sequential away
    # entirely: the fixed point is a bare terminal, not a 1-ary controller.
    result = repair_plan(sequential("ghost", "POD"), case_problem)
    assert result.removed == ("ghost",)
    assert result.plan == terminal("POD")


def test_repair_fixed_point_with_no_removable_terminal(case_problem):
    # Every terminal executes validly in some flow: the very first round
    # finds no candidate and the plan comes back structurally unchanged.
    tree = sequential("POD", "P3DR2")
    result = repair_plan(tree, case_problem)
    assert not result.changed
    assert result.plan == normalize(tree)


def test_repair_collapses_nested_degenerate_controllers(case_problem):
    # The whole left selective is never-valid; repair must unwind both the
    # inner and the outer construct without leaving degenerate nodes.
    tree = sequential(
        selective(sequential("ghost", "ghost"), "ghost"),
        "POD",
        "P3DR2",
        "P3DR3",
        "PSF",
    )
    result = repair_plan(tree, case_problem)
    assert result.fitness.validity == 1.0
    assert "ghost" not in result.plan.activities()
    assert result.plan == normalize(
        sequential("POD", "P3DR2", "P3DR3", "PSF")
    )


# -- terminal swapping (the plan library's local repair) -------------------- #


def test_swap_terminals_swaps_exactly_the_mapped_names():
    tree = sequential("a", selective("b", "a"), "c")
    swapped, swaps = swap_terminals(tree, {"a": "z"})
    assert swapped == sequential("z", selective("b", "z"), "c")
    assert swaps == (("a", "z"), ("a", "z"))
    # Structure and untouched terminals are preserved exactly.
    assert swapped.size == tree.size


def test_swap_terminals_noop_without_matches():
    tree = sequential("a", "b")
    swapped, swaps = swap_terminals(tree, {"x": "y"})
    assert swapped == tree
    assert swaps == ()


def test_normalization_alone_counts_as_changed(case_problem):
    # This run's best plan nests sequentials: repair's normalization drops
    # eight controllers and raises fitness while no terminal goes.
    run = GPPlanner(GPConfig(population_size=40, generations=6), rng=0).plan(
        case_problem
    )
    result = repair_plan(run.best_plan, case_problem)
    assert (run.best_plan.size, result.plan.size) == (27, 19)
    assert result.removed == ()
    assert result.fitness.overall > run.best_fitness.overall
    assert result.changed
