"""Random plan-tree generation: size bounds, shape distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.plan import Controller, Terminal, random_shape, random_tree


class TestRandomShape:
    def test_size_one_is_terminal(self, rng):
        assert random_shape(1, rng) == []

    def test_parts_sum(self, rng):
        for n in (2, 5, 17, 40):
            parts = random_shape(n, rng)
            assert sum(parts) == n - 1
            assert all(p >= 1 for p in parts)

    def test_max_branch_respected(self, rng):
        for _ in range(100):
            assert len(random_shape(40, rng, max_branch=3)) <= 3

    def test_invalid_size(self, rng):
        with pytest.raises(PlanError):
            random_shape(0, rng)


class TestRandomTree:
    def test_exact_size(self, rng):
        for size in (1, 2, 7, 40):
            tree = random_tree(["A", "B"], size=size, rng=rng)
            assert tree.size == size

    def test_size_bounds_random(self, rng):
        sizes = {random_tree(["A"], max_size=40, rng=rng).size for _ in range(200)}
        assert min(sizes) >= 1 and max(sizes) <= 40
        assert len(sizes) > 10  # actually varied

    def test_terminals_from_activity_set(self, rng):
        tree = random_tree(["X", "Y"], size=25, rng=rng)
        assert set(tree.activities()) <= {"X", "Y"}

    def test_all_controller_kinds_appear(self, rng):
        kinds = set()
        for _ in range(100):
            tree = random_tree(["A"], size=15, rng=rng)
            for node in tree.walk():
                if isinstance(node, Controller):
                    kinds.add(node.kind)
        assert len(kinds) == 4

    def test_deterministic_under_seed(self):
        a = random_tree(["A", "B"], max_size=30, rng=7)
        b = random_tree(["A", "B"], max_size=30, rng=7)
        assert a == b

    def test_empty_activity_set_rejected(self, rng):
        with pytest.raises(PlanError):
            random_tree([], size=3, rng=rng)

    def test_oversized_request_rejected(self, rng):
        with pytest.raises(PlanError):
            random_tree(["A"], size=50, max_size=40, rng=rng)

    def test_size_one_is_terminal(self, rng):
        assert isinstance(random_tree(["A"], size=1, rng=rng), Terminal)


@given(st.integers(0, 100_000), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_requested_size_always_exact(seed, size):
    tree = random_tree(["A", "B", "C"], size=size, max_size=60, rng=seed)
    assert tree.size == size
