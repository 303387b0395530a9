"""Golden simulation digests: the flow simulator must reproduce these
exact flows, truncation flags and attribution stats.

The GP digests (``test_golden_gp.py``) only cover what seeded GP runs
happen to reach.  These digests drive the simulator directly through the
branches GP rarely hits: weight rescaling past ``_WEIGHT_CEILING``, the
``max_flows`` cap, budget exhaustion, concurrent orders above one, names
outside T, and the per-terminal attribution stats the repair pass reads.

For each (problem, option set) the digest covers, per tree in order:
``simulate_plan``'s flows and truncation flag, the same for
``simulate_with_attribution``'s report, and its sorted stats.  A change
that moves any flow, float sum or count moves a digest; update one only
on purpose.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.plan import concurrent, iterative, random_tree, selective, sequential
from repro.planner import (
    SimulationOptions,
    simulate_plan,
    simulate_with_attribution,
)
from repro.virolab import planning_problem
from repro.workloads.plan_mix import plan_mix_problem
from repro.workloads.synthetic import chain_problem, diamond_problem, random_problem

PROBLEMS = {
    "3DSD": planning_problem,
    "plan-mix-v1": lambda: plan_mix_problem(1),
    "diamond-4": lambda: diamond_problem(4),
    "chain-6": lambda: chain_problem(6),
    "random-12": lambda: random_problem(12, 3, seed=2),
}

OPTIONS = {
    "default": SimulationOptions(),
    # On every problem about half the trees truncate, some at the flow
    # cap and some on the budget; concurrent nodes run three orders.
    "tight": SimulationOptions(
        iteration_counts=(1, 3), max_flows=3, concurrent_orders=3, max_executions=60
    ),
}

GOLDEN = {
    ("3DSD", "default"): "d0d1adaa4145cef20d77182cdcab1a15",
    ("3DSD", "tight"): "5c412c6c055220532fb454c7181c61f9",
    ("plan-mix-v1", "default"): "bc94e73c989d2e33cc1d053752008dae",
    ("plan-mix-v1", "tight"): "b9b5ad75b4f710df4b9b99a1a5a3ffd9",
    ("diamond-4", "default"): "07adbffbb5b49e50f544da3a4d66da78",
    ("diamond-4", "tight"): "c3ced5decd722618244d6fb574445f77",
    ("chain-6", "default"): "ec7f0de86a2772c92b2d330431afd473",
    ("chain-6", "tight"): "cca2eb4b25a1c10a85d9d4f757e759de",
    ("random-12", "default"): "4399f63cfd814891835dc309671eddc4",
    ("random-12", "tight"): "9029b7eb3a355033ba0694318ee52c17",
}


def corpus(problem):
    """200 seeded random trees plus two hand-built edge cases: a
    4**15-flow selective chain (forces a weight rescale) and a plan that
    names an activity outside T."""
    names = list(problem.activity_names)
    rng = np.random.default_rng(7)
    trees = [random_tree(names, max_size=40, rng=rng, max_branch=4) for _ in range(200)]
    a = names[0]
    trees.append(sequential(*[selective(a, a, a, a) for _ in range(15)]))
    trees.append(sequential(a, "not-in-T", iterative(concurrent(a, "not-in-T"))))
    return trees


def report_repr(report) -> str:
    return repr(
        (
            tuple(
                (f.final_state.merge_key(), f.executed, f.valid, f.weight)
                for f in report.flows
            ),
            report.truncated,
        )
    )


def simulation_digest(problem, options) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for tree in corpus(problem):
        digest.update(report_repr(simulate_plan(tree, problem, options)).encode())
        report, stats = simulate_with_attribution(tree, problem, options)
        digest.update(report_repr(report).encode())
        digest.update(repr(sorted(stats.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,opts", sorted(GOLDEN))
def test_simulation_matches_golden_digest(name, opts):
    problem = PROBLEMS[name]()
    assert problem.name == name
    assert simulation_digest(problem, OPTIONS[opts]) == GOLDEN[name, opts]


def test_corpus_reaches_the_rare_branches():
    """On 3DSD the tight set truncates through both the flow cap and the
    budget, the default set rescales the selective chain, and names
    outside T are attributed executions but never valid ones."""
    problem = planning_problem()
    trees = corpus(problem)
    tight = OPTIONS["tight"]
    assert sum(simulate_plan(t, problem, tight).truncated for t in trees) == 106
    capped = replace(tight, max_executions=100_000)
    spent = replace(tight, max_flows=64)
    assert any(simulate_plan(t, problem, capped).truncated for t in trees)
    assert any(simulate_plan(t, problem, spent).truncated for t in trees)
    chain = simulate_plan(trees[200], problem, OPTIONS["default"])
    assert chain.flow_count == 1.0  # rescaled from 4**15 raw flows
    report, stats = simulate_with_attribution(trees[201], problem, OPTIONS["default"])
    assert stats[(1,)] == (1.0, 0.0)
    assert stats[(2, 0, 1)][1] == 0.0 < stats[(2, 0, 1)][0]
    assert report.total_valid < report.total_executed
