"""Discrete-event simulation kernel.

The paper's environment is a distributed multi-agent system (Jade); we
reproduce its observable behaviour in-process with a classic event-driven
kernel: a priority queue of timestamped events, generator-based processes,
and signals for inter-process synchronization.

* :class:`Engine` — the event loop.  ``schedule`` posts a callback at
  ``now + delay``; ``spawn`` starts a coroutine-style process.
* Processes are plain generators.  They may ``yield``:

  - a number — sleep that many simulated seconds;
  - a :class:`Signal` — park until the signal fires (the fired payload
    becomes the value of the yield expression);
  - another :class:`ProcessHandle` — park until that process finishes
    (its return value becomes the yield value).

* :class:`Signal` — a single-shot broadcast event; late waiters on an
  already-fired signal resume immediately with the stored payload.

Determinism: ties in time are broken by schedule order (a monotone
sequence number), so runs are exactly reproducible.

Throughput internals (the observable semantics above are unchanged):

* **Tuple-keyed heap** — the priority queue stores ``(time, seq, event)``
  triples, so heap sifting compares C-level tuples instead of calling a
  Python ``__lt__`` (the previous hottest function in large runs).
* **Batched same-tick dispatch** — when the clock advances to a new time
  ``T``, every queued event at exactly ``T`` is drained into a FIFO batch
  and dispatched without further heap traffic; zero-delay events posted
  *during* the tick (signal wakeups, mailbox deliveries) append to the
  same batch in O(1).  Because same-time events always execute in
  schedule (``seq``) order and mid-tick posts always carry the largest
  ``seq``, the batch replays the heap order exactly — event-for-event —
  which is what keeps protocol traces byte-identical.
* **Event pool** — internal fire-and-forget events (process wakeups,
  signal resumes, deliveries posted via :meth:`Engine.schedule_discard`)
  recycle ``_Event`` instances through a preallocated free list instead
  of churning one allocation per event.  :meth:`Engine.schedule` still
  returns a fresh, never-recycled handle, so held handles stay valid and
  cancellable forever.
* **O(1) accounting** — a live-event counter maintained on
  schedule/cancel/pop makes :attr:`Engine.pending` and cancellation O(1);
  cancelled entries are lazily discarded when they surface.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from types import GeneratorType
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.errors import SimulationError

__all__ = ["Engine", "Signal", "ProcessHandle"]

ProcessGen = Generator[Any, Any, Any]


class _Event:
    """One queue entry and (for :meth:`Engine.schedule`) the caller's
    cancellation handle.

    ``cancelled`` is a property so direct assignment
    (``handle.cancelled = True`` — the historical API) keeps the engine's
    live-event counter exact; :meth:`Engine.cancel` is the same operation
    spelled as a method.  Pooled events (``schedule_discard``) are
    recycled after they run, which is safe exactly because their handle is
    never handed out.
    """

    __slots__ = ("engine", "time", "seq", "action", "args", "_cancelled", "_in_queue", "_pooled")

    def __init__(
        self,
        engine: "Engine",
        time: float,
        seq: int,
        action: Callable[..., None] | None,
        args: tuple,
        pooled: bool = False,
    ) -> None:
        self.engine = engine
        self.time = time
        self.seq = seq
        self.action = action
        self.args = args
        self._cancelled = False
        self._in_queue = False
        self._pooled = pooled

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        value = bool(value)
        if value == self._cancelled:
            return
        self._cancelled = value
        if self._in_queue:
            # Still queued: keep the engine's live-event counter exact
            # (uncancelling before the event surfaces revives it).
            self.engine._live += -1 if value else 1

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self._cancelled else ""
        return f"_Event(t={self.time}, seq={self.seq}{flag})"


def _resume_all(waiters: list["ProcessHandle"], payload: Any) -> None:
    """Resume a signal's waiters back-to-back (one batched wakeup event
    replaces one event per waiter; order is unchanged — see
    :meth:`Signal.fire`)."""
    for process in waiters:
        process._resume(payload)


class Signal:
    """A single-shot event processes can wait on.

    ``fire(payload)`` wakes every current waiter and stores the payload so
    that later waiters resume immediately.  Firing twice is an error
    (create a new Signal per occurrence; see :class:`repro.grid.messages`
    for mailbox-style repeated delivery).
    """

    __slots__ = ("engine", "name", "_waiters", "fired", "payload")

    def __init__(self, engine: "Engine", name: str = "signal") -> None:
        self.engine = engine
        self.name = name
        self._waiters: list[ProcessHandle] = []
        self.fired = False
        self.payload: Any = None

    def fire(self, payload: Any = None) -> None:
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.payload = payload
        waiters, self._waiters = self._waiters, []
        if len(waiters) == 1:
            self.engine.schedule_discard(0.0, waiters[0]._resume, payload)
        elif waiters:
            # One wakeup event resuming every waiter in order.  Identical
            # to per-waiter events: the per-waiter wakeups would carry
            # consecutive seqs (nothing is scheduled between them) and so
            # execute back-to-back, and anything a resumed waiter posts
            # carries a later seq either way.
            self.engine.schedule_discard(0.0, _resume_all, waiters, payload)

    def _add_waiter(self, process: "ProcessHandle") -> None:
        if self.fired:
            self.engine.schedule_discard(0.0, process._resume, self.payload)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"Signal({self.name!r}, {state})"


class ProcessHandle:
    """A running generator process; also waitable (join semantics)."""

    __slots__ = ("engine", "name", "_gen", "done", "result", "_done_signal", "failed")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str) -> None:
        self.engine = engine
        self.name = name
        self._gen = gen
        self.done = False
        self.failed: BaseException | None = None
        self.result: Any = None
        # Created on first join — most processes (e.g. one handler per
        # request) are never waited on, and per-spawn Signal construction
        # was measurable in enactment profiles.
        self._done_signal: Signal | None = None

    def _resume(self, value: Any = None) -> None:
        if self.done:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as exc:  # surfaces in Engine.run
            self.done = True
            self.failed = exc
            raise
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            self.engine.schedule_discard(float(yielded), self._resume, None)
        elif isinstance(yielded, Signal):
            yielded._add_waiter(self)
        elif isinstance(yielded, ProcessHandle):
            yielded._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}"
            )

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        if self._done_signal is not None:
            self._done_signal.fire(result)

    def _add_waiter(self, process: "ProcessHandle") -> None:
        if self.done:
            # Late join: resume immediately with the stored result (same
            # semantics as waiting on an already-fired done signal).
            self.engine.schedule_discard(0.0, process._resume, self.result)
            return
        signal = self._done_signal
        if signal is None:
            signal = self._done_signal = Signal(self.engine, f"{self.name}.done")
        signal._add_waiter(process)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"ProcessHandle({self.name!r}, {state})"


#: Events preallocated into a fresh engine's free list, and the cap the
#: list grows back to as events recycle.  Sized for one tick's worth of
#: wakeups in large runs; beyond it events simply fall back to the GC.
_POOL_SIZE = 512


class Engine:
    """The simulation event loop (see the module docstring)."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Heap of (time, seq, event): C-level tuple comparison, seq
        #: uniqueness guarantees the event itself is never compared.
        self._heap: list[tuple[float, int, _Event]] = []
        #: FIFO of events at exactly ``now`` (the current tick's batch).
        self._tick: deque[_Event] = deque()
        self._seq = 0
        #: Scheduled, not-yet-dispatched, not-cancelled events (O(1) pending).
        self._live = 0
        self.events_processed = 0
        self._free: list[_Event] = [
            _Event(self, 0.0, 0, None, (), pooled=True) for _ in range(_POOL_SIZE)
        ]

    # -- scheduling -------------------------------------------------------- #
    def schedule(
        self, delay: float, action: Callable[..., None], *args: Any
    ) -> _Event:
        """Post *action(*args)* at ``now + delay``; returns a cancellable
        handle (``engine.cancel(handle)``, or the historical
        ``handle.cancelled = True``).  Handles are never recycled."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        event = _Event(self, self.now + delay, self._seq, action, args)
        self._push(event)
        return event

    def schedule_discard(
        self, delay: float, action: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned and the
        event object is recycled through the engine's pool after it runs.
        The hot path for process wakeups, signal resumes and message
        deliveries — callers that never cancel."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = self._seq
            event.action = action
            event.args = args
            event._cancelled = False
        else:
            event = _Event(self, time, self._seq, action, args, pooled=True)
        # _push, inlined (this is the hottest function in enactment runs).
        event._in_queue = True
        self._live += 1
        if time == self.now:
            self._tick.append(event)
        else:
            heappush(self._heap, (time, self._seq, event))

    def _push(self, event: _Event) -> None:
        event._in_queue = True
        self._live += 1
        if event.time == self.now:
            # Same-tick post: every earlier event at ``now`` is already in
            # the batch (drained when the tick began), so FIFO == seq order.
            self._tick.append(event)
        else:
            heappush(self._heap, (event.time, event.seq, event))

    def cancel(self, event: _Event) -> None:
        """Cancel a scheduled event (O(1); the queue entry is discarded
        lazily when it surfaces)."""
        event.cancelled = True

    def signal(self, name: str = "signal") -> Signal:
        return Signal(self, name)

    def spawn(self, gen: ProcessGen, name: str = "process") -> ProcessHandle:
        """Start a generator process; it first runs at the current time."""
        if not isinstance(gen, GeneratorType):
            raise SimulationError(
                f"spawn needs a generator, got {type(gen).__name__}"
            )
        process = ProcessHandle(self, gen, name)
        self.schedule_discard(0.0, process._resume, None)
        return process

    def spawn_all(
        self, gens: Iterable[tuple[str, ProcessGen]]
    ) -> list[ProcessHandle]:
        return [self.spawn(gen, name) for name, gen in gens]

    # -- dispatch ---------------------------------------------------------- #
    def _recycle(self, event: _Event) -> None:
        event.action = None
        event.args = ()
        if len(self._free) < _POOL_SIZE:
            self._free.append(event)

    def _acquire(self, until: float | None) -> _Event | None:
        """The next runnable event, with the clock-advance bookkeeping:
        pops lazily-cancelled entries (uncharged), drains the new tick
        into the batch, and stops (returning None) at *until*."""
        tick = self._tick
        heap = self._heap
        while tick:
            event = tick.popleft()
            event._in_queue = False
            if event._cancelled:
                if event._pooled:
                    self._recycle(event)
                continue
            return event
        while heap:
            entry = heap[0]
            event = entry[2]
            if event._cancelled:
                heappop(heap)
                event._in_queue = False
                if event._pooled:
                    self._recycle(event)
                continue
            time = entry[0]
            if until is not None and time > until:
                return None
            if time < self.now:
                raise SimulationError("event queue time went backwards")
            heappop(heap)
            event._in_queue = False
            # Start of a new tick: move every event at this exact time
            # into the FIFO batch (they pop in seq order), so the rest of
            # the tick runs without heap traffic.
            while heap and heap[0][0] == time:
                tick.append(heappop(heap)[2])
            return event
        return None

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        event = self._acquire(None)
        if event is None:
            return False
        self._live -= 1
        self.now = event.time
        self.events_processed += 1
        event.action(*event.args)
        if event._pooled:
            self._recycle(event)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue.

        *until* stops the clock at that simulated time (events beyond it
        stay queued; the clock never moves backwards, so an *until* in the
        past is a no-op); *max_events* guards against runaway simulations
        and charges only dispatched events — lazily-discarded cancelled
        entries are free.  Returns the final clock value.
        """
        if until is not None and until < self.now:
            return self.now
        processed = 0
        acquire = self._acquire
        tick = self._tick
        free = self._free
        while True:
            # Fast path: the current tick's batch, inlined from _acquire
            # (one bound-method call per event was measurable at 10^5+
            # events per run; the heap/cancel/until handling stays in
            # _acquire, which this falls back to whenever the batch runs
            # dry or an edge case surfaces).
            if tick:
                event = tick.popleft()
                event._in_queue = False
                if event._cancelled:
                    if event._pooled and len(free) < _POOL_SIZE:
                        event.action = None
                        event.args = ()
                        free.append(event)
                    continue
            else:
                event = acquire(until)
                if event is None:
                    if until is not None and until > self.now:
                        self.now = until
                    return self.now
            if max_events is not None and processed >= max_events:
                # Put the event back so the queue is intact for a
                # post-mortem or a resumed run.  An event due now goes to
                # the front of its tick; one ahead of the clock came off
                # the heap with its same-time followers drained into the
                # (otherwise empty) tick, so they all go back on the heap.
                event._in_queue = True
                if event.time == self.now:
                    tick.appendleft(event)
                else:
                    heap = self._heap
                    heappush(heap, (event.time, event.seq, event))
                    while tick:
                        follower = tick.popleft()
                        heappush(heap, (follower.time, follower.seq, follower))
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now}"
                )
            self._live -= 1
            self.now = event.time
            self.events_processed += 1
            processed += 1
            event.action(*event.args)
            if event._pooled and len(free) < _POOL_SIZE:
                event.action = None
                event.args = ()
                free.append(event)

    @property
    def pending(self) -> int:
        """Scheduled-and-live event count (O(1): a counter maintained on
        schedule/cancel/pop, not a queue scan)."""
        return self._live
