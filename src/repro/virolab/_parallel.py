"""One thread per usable CPU for the case study's projection loops.

``scipy.ndimage.affine_transform`` — the whole cost of
:func:`~repro.virolab.projection.project` and
:func:`~repro.virolab.projection.backproject` — releases the GIL, so
plain threads run POD, POR, P3DR and ``make_dataset`` on every CPU the
process may use, with no pickling.  :func:`parallel_map` returns results
in input order and each task makes the same call the serial loop made,
so outputs are bit-identical to serial at any worker count.

The pool is created on first use with one thread per CPU in the
process's affinity mask.  With one usable CPU, one item, or a caller that
is itself a pool thread (which would deadlock waiting on its own pool),
the map runs serially in the calling thread and no pool is created.
Forked children (``shards=``, ``run_seeds``) drop the inherited pool,
whose threads do not exist there, and start their own on first use.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

__all__ = ["parallel_map"]

T = TypeVar("T")
R = TypeVar("R")

#: Pool size; None until first use, then the usable CPU count.
_workers: int | None = None
_pool: ThreadPoolExecutor | None = None
_lock = threading.Lock()
#: ``in_pool`` is set on the pool's own threads by the initializer.
_local = threading.local()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mark_pool_thread() -> None:
    _local.in_pool = True


def _executor() -> ThreadPoolExecutor | None:
    """The shared pool, created on first use; None with one worker."""
    global _pool, _workers
    with _lock:
        if _workers is None:
            _workers = _usable_cpus()
        if _pool is None and _workers > 1:
            _pool = ThreadPoolExecutor(
                max_workers=_workers,
                thread_name_prefix="virolab",
                initializer=_mark_pool_thread,
            )
        return _pool


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, computed on the pool, in input order.

    An exception raised by *fn* on a pool thread is raised here.
    """
    items = list(items)
    if len(items) < 2 or getattr(_local, "in_pool", False):
        return [fn(x) for x in items]
    pool = _executor()
    if pool is None:
        return [fn(x) for x in items]
    return list(pool.map(fn, items))


def _reset(workers: int | None) -> None:
    """Shut the pool down and set the worker count for the next use
    (None: the usable CPU count).  For tests."""
    global _pool, _workers
    with _lock:
        if _pool is not None:
            _pool.shutdown()
        _pool = None
        _workers = workers


def _forget_pool_after_fork() -> None:
    global _pool, _lock
    _pool = None
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)
