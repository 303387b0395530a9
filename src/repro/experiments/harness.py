"""Result tables and seeded-run helpers for the experiment drivers.

Every table/figure driver returns a :class:`Table` whose ``render()``
produces the same rows the paper prints; benches ``print`` it and assert
on the underlying values.  :func:`run_seeds` is the shared multi-seed GP
runner: seeds are independent, so with ``workers`` > 1 it fans whole runs
out to :func:`repro._util.process_map`'s process pool (results identical
to serial — each run is self-contained and seeded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import process_map

if TYPE_CHECKING:  # circular-import guard: gp imports nothing from here
    from repro.planner.config import GPConfig
    from repro.planner.gp import PlanningResult
    from repro.planner.problem import PlanningProblem

__all__ = ["Table", "summarize_runs", "run_seeds"]


def _run_one_seed(args: tuple) -> "PlanningResult":
    """Module-level for picklability (process pool dispatch)."""
    from repro.planner.gp import GPPlanner

    config, problem, seed = args
    return GPPlanner(config, rng=seed).plan(problem)


def run_seeds(
    config: "GPConfig",
    problem: "PlanningProblem",
    seeds: Sequence[int],
    workers: int = 0,
) -> list["PlanningResult"]:
    """One independent GP run per seed, in seed order.

    ``workers`` > 1 runs seeds concurrently in a process pool (each worker
    re-derives its compiled problem on unpickle).  A pool that cannot
    start or breaks degrades to a serial in-process run; a seed's own
    error is raised once, and no seed reruns.
    """
    jobs = [(config, problem, int(seed)) for seed in seeds]
    results, _ = process_map(_run_one_seed, jobs, workers)
    return results


@dataclass
class Table:
    """A titled grid of rows for terminal rendering."""

    title: str
    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "+".join("-" * (w + 2) for w in widths)
        header = " | ".join(
            self.columns[i].ljust(widths[i]) for i in range(len(self.columns))
        )
        lines = [self.title, sep, header, sep]
        for row in cells:
            lines.append(
                " | ".join(row[i].ljust(widths[i]) for i in range(len(widths)))
            )
        lines.append(sep)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def summarize_runs(values: Sequence[float]) -> dict[str, float]:
    """mean/std/min/max summary used by multi-seed experiment tables."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
