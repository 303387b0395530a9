"""Plan metrics: Eq. 3 efficiency and censuses."""

import pytest

from repro.plan import (
    ControllerKind,
    concurrent,
    controller_census,
    iterative,
    representation_efficiency,
    sequential,
    summary,
    terminal,
    terminal_census,
)

FIG11 = sequential(
    "POD", "P3DR1", iterative("POR", concurrent("P3DR2", "P3DR3", "P3DR4"), "PSF")
)


class TestEfficiency:
    def test_eq3_formula(self):
        # fr = 1 - size/Smax
        assert representation_efficiency(FIG11, 40) == pytest.approx(1 - 10 / 40)

    def test_single_terminal(self):
        assert representation_efficiency(terminal("A"), 40) == pytest.approx(0.975)

    def test_at_bound_scores_zero(self):
        tree = sequential(*[terminal("A")] * 39)  # size 40
        assert tree.size == 40
        assert representation_efficiency(tree, 40) == 0.0

    def test_oversize_clamped_to_zero(self):
        tree = sequential(*[terminal("A")] * 50)
        assert representation_efficiency(tree, 40) == 0.0

    def test_invalid_smax(self):
        with pytest.raises(ValueError):
            representation_efficiency(FIG11, 0)


class TestCensus:
    def test_controller_census(self):
        census = controller_census(FIG11)
        assert census[ControllerKind.SEQUENTIAL] == 1
        assert census[ControllerKind.ITERATIVE] == 1
        assert census[ControllerKind.CONCURRENT] == 1
        assert census.get(ControllerKind.SELECTIVE, 0) == 0

    def test_terminal_census(self):
        census = terminal_census(sequential("A", "A", "B"))
        assert census == {"A": 2, "B": 1}

    def test_summary(self):
        s = summary(FIG11)
        assert s == {
            "size": 10,
            "depth": 3,
            "terminals": 7,
            "sequential": 1,
            "concurrent": 1,
            "selective": 0,
            "iterative": 1,
        }
