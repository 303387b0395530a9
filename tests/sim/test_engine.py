"""Discrete-event engine: ordering, processes, signals, joins."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(3.0, log.append, "c")
        engine.schedule(1.0, log.append, "a")
        engine.schedule(2.0, log.append, "b")
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_broken_by_schedule_order(self):
        engine = Engine()
        log = []
        for tag in "abc":
            engine.schedule(1.0, log.append, tag)
        engine.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_cancelled_events_skipped(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        handle.cancelled = True
        engine.schedule(2.0, log.append, "y")
        engine.run()
        assert log == ["y"]

    def test_run_until(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, log.append, "a")
        engine.schedule(5.0, log.append, "b")
        engine.run(until=2.0)
        assert log == ["a"]
        assert engine.now == 2.0
        assert engine.pending == 1
        engine.run()
        assert log == ["a", "b"]

    def test_max_events_guard(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=10)


class TestProcesses:
    def test_delay_yield(self):
        engine = Engine()
        log = []

        def proc():
            log.append(("start", engine.now))
            yield 2.5
            log.append(("end", engine.now))
            return 42

        handle = engine.spawn(proc())
        engine.run()
        assert log == [("start", 0.0), ("end", 2.5)]
        assert handle.done and handle.result == 42

    def test_join_other_process(self):
        engine = Engine()
        results = []

        def worker():
            yield 5.0
            return "done"

        def main():
            value = yield engine.spawn(worker(), "w")
            results.append((value, engine.now))

        engine.spawn(main(), "m")
        engine.run()
        assert results == [("done", 5.0)]

    def test_join_already_finished_process(self):
        engine = Engine()
        results = []
        worker = engine.spawn(iter([]), "w") if False else None

        def quick():
            return "fast"
            yield  # pragma: no cover

        handle = engine.spawn(quick(), "q")

        def late():
            yield 10.0
            value = yield handle
            results.append(value)

        engine.spawn(late(), "l")
        engine.run()
        assert results == ["fast"]

    def test_signal_wakes_waiters(self):
        engine = Engine()
        signal = engine.signal("evt")
        woken = []

        def waiter(tag):
            payload = yield signal
            woken.append((tag, payload, engine.now))

        engine.spawn(waiter("a"), "a")
        engine.spawn(waiter("b"), "b")
        engine.schedule(3.0, signal.fire, "hello")
        engine.run()
        assert woken == [("a", "hello", 3.0), ("b", "hello", 3.0)]

    def test_signal_fires_once(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire(1)
        with pytest.raises(SimulationError):
            signal.fire(2)

    def test_late_waiter_resumes_immediately(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire("早")
        got = []

        def late():
            value = yield signal
            got.append(value)

        engine.spawn(late(), "late")
        engine.run()
        assert got == ["早"]

    def test_negative_yield_rejected(self):
        engine = Engine()

        def bad():
            yield -1.0

        engine.spawn(bad(), "bad")
        with pytest.raises(SimulationError):
            engine.run()

    def test_unsupported_yield_rejected(self):
        engine = Engine()

        def bad():
            yield "nope"

        engine.spawn(bad(), "bad")
        with pytest.raises(SimulationError):
            engine.run()

    def test_spawn_requires_generator(self):
        with pytest.raises(SimulationError):
            Engine().spawn(lambda: None)  # type: ignore[arg-type]


class TestCancelAndPending:
    def test_cancel_method_skips_event_and_updates_pending(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        engine.schedule(2.0, log.append, "y")
        assert engine.pending == 2
        engine.cancel(handle)
        assert engine.pending == 1
        engine.run()
        assert log == ["y"]
        assert engine.pending == 0

    def test_pending_tracks_mixed_schedule_and_cancel(self):
        engine = Engine()
        handles = [
            engine.schedule(float(i % 3), lambda: None) for i in range(50)
        ]
        for handle in handles[::2]:
            engine.cancel(handle)
        assert engine.pending == 25
        engine.run()
        assert engine.pending == 0

    def test_run_until_advances_clock_past_only_cancelled_events(self):
        # Regression: a queue holding nothing but cancelled events must
        # still advance the clock to `until` instead of stalling at the
        # cancelled head.
        engine = Engine()
        for delay in (1.0, 1.5):
            engine.cancel(engine.schedule(delay, lambda: None))
        engine.run(until=2.0)
        assert engine.now == 2.0
        assert engine.pending == 0

    def test_cancelled_pops_do_not_charge_max_events(self):
        engine = Engine()
        log = []
        for _ in range(10):
            engine.cancel(engine.schedule(1.0, log.append, "dead"))
        engine.schedule(2.0, log.append, "live")
        engine.run(max_events=1)  # ten cancelled pops must cost nothing
        assert log == ["live"]


class TestRunEdgeCases:
    def test_max_events_puts_a_future_event_back(self):
        # The event that trips the guard came off the heap ahead of the
        # clock, with its same-time follower: both go back there, not
        # into the current tick.
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(("a", engine.now)))
        engine.schedule(2.0, lambda: log.append(("b", engine.now)))
        engine.schedule(2.0, lambda: log.append(("b2", engine.now)))
        with pytest.raises(SimulationError):
            engine.run(max_events=1)
        engine.schedule(0.0, lambda: log.append(("c", engine.now)))
        engine.run(until=1.5)
        assert log == [("a", 1.0), ("c", 1.0)]
        assert engine.now == 1.5
        assert engine.pending == 2
        engine.run()
        assert log[2:] == [("b", 2.0), ("b2", 2.0)]

    def test_until_in_the_past_is_a_no_op(self):
        engine = Engine()
        log = []
        engine.schedule(5.0, log.append, "a")
        engine.run(until=5.0)
        engine.schedule(0.0, log.append, "x")
        assert engine.run(until=3.0) == 5.0
        assert log == ["a"]
        assert engine.pending == 1
        engine.run()
        assert log == ["a", "x"]


def _heap_order(ops):
    """Reference dispatch order: one ``(time, seq)`` heap, one event per
    pop.  Cancelled events take a seq but are never queued; a nested post
    is queued at dispatch with the next seq."""
    heap, log, seq = [], [], 0
    for delay, tag, cancel in ops:
        seq += 1
        if not cancel:
            heapq.heappush(heap, (delay, seq, tag, False))
    while heap:
        time, _, tag, nested = heapq.heappop(heap)
        if nested:
            log.append((tag, "nested", time))
            continue
        log.append((tag, time))
        if tag % 5 == 0:
            seq += 1
            heapq.heappush(heap, (time, seq, tag, True))
    return log


class TestTickOrdering:
    """Same-time events run in schedule order, whether they were queued
    before the tick began or posted while it runs."""

    def test_same_tick_ordering(self):
        engine = Engine()
        log = []

        def worker(tag, delay):
            yield delay
            log.append((tag, engine.now))
            if tag == "a":
                # Same-tick work scheduled mid-dispatch lands after the
                # already-queued same-tick events.
                engine.schedule(0.0, log.append, ("a-extra", engine.now))

        for tag, delay in (("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 2.0)):
            engine.spawn(worker(tag, delay), tag)
        engine.run()
        assert log == [
            ("a", 1.0), ("b", 1.0), ("c", 1.0), ("a-extra", 1.0), ("d", 2.0),
        ]

    def test_multi_waiter_signal_resumption_order(self):
        engine = Engine()
        signal = engine.signal("s")
        order = []

        def waiter(tag):
            yield signal
            order.append((tag, engine.now))

        for tag in "abcde":
            engine.spawn(waiter(tag), tag)
        engine.schedule(1.0, signal.fire, None)
        engine.run()
        assert order == [(tag, 1.0) for tag in "abcde"]

    def test_spawn_inside_step_determinism(self):
        engine = Engine()
        log = []

        def child(i):
            log.append(("child", i, engine.now))
            yield 0.5
            log.append(("child-done", i, engine.now))

        def parent():
            for i in range(3):
                engine.spawn(child(i), f"c{i}")
            yield 0.0
            log.append(("parent", engine.now))

        engine.spawn(parent(), "p")
        engine.run()
        assert log == [
            ("child", 0, 0.0), ("child", 1, 0.0), ("child", 2, 0.0),
            ("parent", 0.0),
            ("child-done", 0, 0.5), ("child-done", 1, 0.5), ("child-done", 2, 0.5),
        ]

    def test_randomized_schedules_match_heap_order(self):
        # Seeded random schedules (same-tick bursts, cancellations,
        # dispatch-time rescheduling) execute in (time, seq) order.
        import random

        def run(ops):
            engine = Engine()
            log = []

            def make(tag):
                def action():
                    log.append((tag, engine.now))
                    if tag % 5 == 0:
                        engine.schedule(
                            0.0, lambda: log.append((tag, "nested", engine.now))
                        )
                return action

            cancelled = []
            for delay, tag, cancel in ops:
                handle = engine.schedule(delay, make(tag))
                if cancel:
                    cancelled.append(handle)
            for handle in cancelled:
                engine.cancel(handle)
            engine.run()
            return log

        for seed in range(12):
            rng = random.Random(seed)
            ops = [
                (
                    rng.choice((0.0, 0.0, 0.5, 1.0, 2.0)),
                    i,
                    rng.random() < 0.2,
                )
                for i in range(40)
            ]
            assert run(ops) == _heap_order(ops), f"seed {seed}"


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_completion_times_sorted(delays):
    """Whatever the schedule order, events execute in nondecreasing time."""
    engine = Engine()
    seen = []
    for delay in delays:
        engine.schedule(delay, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
