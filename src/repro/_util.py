"""Small shared utilities: id generation, RNG plumbing, text helpers and
the process pool that every process-split run uses.

The library is fully deterministic when seeded: every stochastic component
(GP planner, workload generators, failure models, virolab synthetic data)
accepts either a seed or a :class:`numpy.random.Generator`.  ``as_rng``
normalizes both forms.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

import numpy as np

__all__ = [
    "IdGenerator",
    "as_rng",
    "pairwise",
    "stable_unique",
    "indent",
    "process_map",
    "valid_identifier",
]

T = TypeVar("T")
R = TypeVar("R")

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_\-]*$")


def valid_identifier(name: str) -> bool:
    """Return True if *name* is usable as an activity/data/service name.

    The Section-2 grammar restricts names to letters followed by letters and
    digits; we additionally allow ``_`` and ``-`` which appear in the paper's
    own examples (e.g. ``PD-3DSD``).
    """
    return bool(_IDENT_RE.match(name))


class IdGenerator:
    """Deterministic, prefix-scoped id factory.

    Produces ids like ``A1, A2, ...`` per prefix.  Used by the ontology KB,
    the grid environment and the workload generators so that repeated runs
    with the same inputs produce identical identifiers (important for
    reproducible experiment tables).
    """

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = {}

    def next(self, prefix: str) -> str:
        counter = self._counters.setdefault(prefix, itertools.count(1))
        return f"{prefix}{next(counter)}"

    def reset(self) -> None:
        self._counters.clear()


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed-or-generator argument into a Generator.

    ``None`` yields a fresh nondeterministic generator; an ``int`` seeds a
    new PCG64; an existing Generator is passed through unchanged (so nested
    components share one stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def pairwise(items: Sequence[T]) -> Iterator[tuple[T, T]]:
    """Yield consecutive pairs (a, b), (b, c), ... of *items*."""
    return zip(items, items[1:])


def stable_unique(items: Iterable[T]) -> list[T]:
    """Deduplicate preserving first-seen order."""
    seen: set = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def indent(text: str, prefix: str = "  ") -> str:
    """Indent every non-empty line of *text* by *prefix*."""
    return "\n".join(prefix + line if line else line for line in text.splitlines())


def process_map(
    fn: Callable[[T], R], jobs: Sequence[T], workers: int
) -> tuple[list[R], str | None]:
    """``[fn(job) for job in jobs]`` on up to *workers* processes.

    Results keep submission order.  A job's own exception is raised as
    the job raised it, and nothing runs again.  Only when the pool cannot
    start (``OSError`` while the workers spawn) or breaks
    (``BrokenProcessPool``) do the jobs run serially in this process; the
    second value then names the error, and is None otherwise.  With fewer
    than two workers or jobs no pool is made.  *fn* must be a module-level
    function, and jobs and results must pickle.
    """
    workers = min(workers, len(jobs))
    if workers < 2:
        return [fn(job) for job in jobs], None
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    submitted = False
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(fn, jobs)  # submits every job: workers spawn
            submitted = True
            return list(results), None
    except BrokenProcessPool as exc:
        error: Exception = exc
    except OSError as exc:
        if submitted:
            raise
        error = exc
    return [fn(job) for job in jobs], f"{type(error).__name__}: {error}"
