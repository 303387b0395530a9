"""Crossover and mutation (Figures 8-9), including size-bound invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.plan import (
    iter_nodes,
    preorder_path,
    random_tree,
    replace_at,
    selective,
    sequential,
    subtree_at,
)
from repro.planner import crossover, mutate, random_node_path
from repro.planner import operators

ACTS = ["A", "B", "C"]


class TestCrossover:
    def test_skipped_below_rate(self):
        a, b = sequential("A", "B"), sequential("C", "C")
        out_a, out_b = crossover(a, b, rng=0, crossover_rate=0.0)
        assert out_a is a and out_b is b

    def test_swaps_subtrees(self, rng):
        a = sequential("A", "A", "A")
        b = sequential("B", "B", "B")
        for _ in range(20):
            ca, cb = crossover(a, b, rng, crossover_rate=1.0)
            if ca != a:
                # material from b must appear in child a, and vice versa
                assert "B" in ca.activities() or "A" in cb.activities()
                break
        else:
            pytest.fail("crossover never exchanged material")

    def test_node_count_conserved(self, rng):
        for _ in range(50):
            a = random_tree(ACTS, max_size=20, rng=rng)
            b = random_tree(ACTS, max_size=20, rng=rng)
            ca, cb = crossover(a, b, rng, smax=40, crossover_rate=1.0)
            if (ca, cb) != (a, b):
                assert ca.size + cb.size == a.size + b.size

    def test_smax_failure_keeps_parents(self, rng):
        big = random_tree(ACTS, size=40, max_size=40, rng=rng)
        small = random_tree(ACTS, size=2, max_size=40, rng=rng)
        results = {crossover(big, small, rng, smax=40, crossover_rate=1.0)
                   for _ in range(30)}
        for ca, cb in results:
            assert ca.size <= 40 and cb.size <= 40

    def test_parents_never_mutated(self, rng):
        a = sequential("A", selective("B", "C"))
        b = sequential("C", "A")
        frozen_a, frozen_b = a, b
        crossover(a, b, rng, crossover_rate=1.0)
        assert a == frozen_a and b == frozen_b


class TestMutation:
    def test_zero_rate_is_identity(self, rng):
        tree = sequential("A", "B")
        assert mutate(tree, ACTS, rng, mutation_rate=0.0) is tree

    def test_rate_one_replaces_root(self):
        tree = sequential("A", "B", "C")
        mutated = mutate(tree, ["Z"], rng=3, mutation_rate=1.0, smax=40)
        # The root is always selected at rate 1, so the result is a fresh
        # random tree over ["Z"] (possibly by way of a failed size check).
        assert set(mutated.activities()) <= {"Z", "A", "B", "C"}

    def test_respects_smax(self, rng):
        for _ in range(100):
            tree = random_tree(ACTS, max_size=40, rng=rng)
            mutated = mutate(tree, ACTS, rng, smax=40, mutation_rate=0.3)
            assert mutated.size <= 40

    def test_small_rate_usually_identity(self, rng):
        tree = random_tree(ACTS, size=10, rng=rng)
        unchanged = sum(
            mutate(tree, ACTS, rng, mutation_rate=0.001) == tree
            for _ in range(100)
        )
        assert unchanged >= 90

    def test_deterministic_under_seed(self):
        tree = random_tree(ACTS, size=15, rng=1)
        a = mutate(tree, ACTS, rng=9, mutation_rate=0.5)
        b = mutate(tree, ACTS, rng=9, mutation_rate=0.5)
        assert a == b


class TestRandomNodePath:
    def test_uniform_over_nodes(self, rng):
        tree = sequential("A", "B")  # 3 nodes
        seen = {random_node_path(tree, rng) for _ in range(100)}
        assert seen == {(), (0,), (1,)}


# -- draw-for-draw references ------------------------------------------------- #
# The operators draw their random numbers in batches and map pre-order
# indices straight to paths.  These references are the per-node loops they
# replaced; the operators must select the same nodes from the same numbers
# and leave the generator in the same state.


def reference_node_path(tree, rng):
    paths = [p for p, _ in iter_nodes(tree)]
    return paths[int(rng.integers(len(paths)))]


def reference_crossover(a, b, rng, smax=40, crossover_rate=0.7):
    if rng.random() >= crossover_rate:
        return a, b
    path_a = reference_node_path(a, rng)
    path_b = reference_node_path(b, rng)
    child_a = replace_at(a, path_a, subtree_at(b, path_b))
    child_b = replace_at(b, path_b, subtree_at(a, path_a))
    if child_a.size > smax or child_b.size > smax:
        return a, b
    return child_a, child_b


def reference_mutate(tree, activities, rng, smax, mutation_rate, max_branch=4):
    """Returns the mutated tree and the paths it replaced, in order."""
    selected = [p for p, _ in iter_nodes(tree) if rng.random() < mutation_rate]
    kept = []
    for path in sorted(selected, key=len):
        if not any(path[: len(anc)] == anc for anc in kept):
            kept.append(path)
    current = tree
    for path in kept:
        replacement = random_tree(activities, max_size=smax, rng=rng, max_branch=max_branch)
        candidate = replace_at(current, path, replacement)
        if candidate.size <= smax:
            current = candidate
    return current, kept


def reference_trees(count=300, seed=11):
    rng = np.random.default_rng(seed)
    return [random_tree(ACTS, max_size=40, rng=rng, max_branch=4) for _ in range(count)]


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_batched_uniform_draws_equal_scalar_draws():
    """numpy's stream guarantee the batched mutation draw relies on."""
    batch, scalar = twins(5)
    for n in (1, 2, 7, 40, 1000):
        assert batch.random(n).tolist() == [scalar.random() for _ in range(n)]
    assert batch.bit_generator.state == scalar.bit_generator.state


def test_preorder_path_matches_iter_nodes_order():
    for tree in reference_trees():
        expected = [path for path, _ in iter_nodes(tree)]
        assert [preorder_path(tree, i) for i in range(tree.size)] == expected
        for bad in (-1, tree.size):
            with pytest.raises(PlanError):
                preorder_path(tree, bad)


def test_random_node_path_matches_reference():
    ours, theirs = twins(3)
    for tree in reference_trees():
        for _ in range(3):
            assert random_node_path(tree, ours) == reference_node_path(tree, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_crossover_matches_reference():
    trees = reference_trees()
    ours, theirs = twins(4)
    for a, b in zip(trees, trees[1:] + trees[:1]):
        expected = reference_crossover(a, b, theirs, smax=40, crossover_rate=0.9)
        assert crossover(a, b, ours, smax=40, crossover_rate=0.9) == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("rate", [0.0, 0.001, 0.2, 1.0])
def test_mutate_matches_reference(rate, monkeypatch):
    replaced = []

    def spy(root, path, replacement):
        replaced.append(path)
        return replace_at(root, path, replacement)

    monkeypatch.setattr(operators, "replace_at", spy)
    ours, theirs = twins(6)
    for tree in reference_trees():
        replaced.clear()
        expected, kept = reference_mutate(tree, ACTS, theirs, 40, rate)
        assert mutate(tree, ACTS, ours, smax=40, mutation_rate=rate) == expected
        assert replaced == kept
    assert ours.bit_generator.state == theirs.bit_generator.state


@given(
    seed=st.integers(0, 10_000),
    rate=st.floats(0.0, 1.0),
    smax=st.integers(5, 60),
)
@settings(max_examples=150, deadline=None)
def test_mutation_never_exceeds_smax(seed, rate, smax):
    rng = np.random.default_rng(seed)
    tree = random_tree(ACTS, max_size=smax, rng=rng)
    mutated = mutate(tree, ACTS, rng, smax=smax, mutation_rate=rate)
    assert 1 <= mutated.size <= smax


@given(seed=st.integers(0, 10_000), smax=st.integers(5, 60))
@settings(max_examples=150, deadline=None)
def test_crossover_never_exceeds_smax(seed, smax):
    rng = np.random.default_rng(seed)
    a = random_tree(ACTS, max_size=smax, rng=rng)
    b = random_tree(ACTS, max_size=smax, rng=rng)
    ca, cb = crossover(a, b, rng, smax=smax, crossover_rate=1.0)
    assert ca.size <= smax and cb.size <= smax
