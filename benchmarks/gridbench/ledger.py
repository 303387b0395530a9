"""Outside-in wall-time ledger: per-layer call counts and self time.

The ledger wraps the entry points of each layer of the grid from the
outside — class methods and module-level functions are replaced in the
running process, no file under ``src/`` knows about it — and keeps one
online aggregate per layer key: calls, raw self time and the number of
timed segments.  Nothing is recorded per call, because ``burst`` makes
millions of calls.

Self time is stack based: every timed segment pushes a frame, and when it
ends its duration is charged to the parent frame as child time, so a
layer's self time is its duration minus the time of the wrapped layers it
called.  Generator functions (request handlers, ``Agent.call``) are timed
per resume: each ``send`` into the generator is one segment, and the
simulated time it spends parked costs nothing.  Processes a handler forks
with ``Agent.spawn_scoped`` are charged to that handler, and collector
pauses to ``runtime.gc``.  ``Engine.run`` is itself a layer
(``sim.dispatch``), so everything not inside another layer — the event
loop, processes nobody wrapped — is its residual.

Each wrapper costs time of its own.  :meth:`Ledger.calibrate` measures
that cost per call segment and per resume segment on this host, and
:meth:`Ledger.layers` subtracts it by segment counts: the part inside a
timed segment from the wrapped key, the part outside from its caller's.
It also measures what one event costs a bare event loop (processes that
only sleep): that much of ``sim.dispatch`` per event is the loop's own
work, and the rest of the residual is time no layer claims.
``ledger.coverage`` is the share of the run the layers and the bare loop
account for, so it falls when code the ledger does not wrap runs.

Install the ledger in a process that does nothing else afterwards: the
patches stay for the life of the process.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import deque
from types import GeneratorType

__all__ = ["Ledger"]


class Ledger:
    """Per-layer aggregates of one traced run (see the module docstring)."""

    def __init__(self) -> None:
        #: key -> [calls, raw self ns, call segments, resume segments,
        #: wrapped call segments and resume segments it ran as caller]
        self.stats: dict[str, list[int]] = {}
        #: Frames are [child ns, stat]; the root frame's stat is no key's.
        self._root = [0] * 6
        self._stack: list[list] = [[0, self._root]]
        #: Calibrated wrapper cost in ns per call segment and per resume
        #: segment, split into the part inside the timed segment, which
        #: lands in the wrapped key, and the part outside, which lands in
        #: its caller: (call inside, call outside, resume inside, outside).
        self.overhead_ns = (0.0, 0.0, 0.0, 0.0)
        #: Calibrated cost of one event in a bare event loop, in ns.
        self.event_ns = 0.0
        #: Planner telemetry read from every GPPlanner.plan result.
        self.planner = {"evaluations": 0, "hits": 0, "misses": 0, "skipped": 0}
        #: Slot acquisitions and the simulated seconds they waited.
        self.slots = {"acquires": 0, "waited": 0, "wait_sim_s": 0.0}
        #: Pending-expiry entries the scheduler scanned, a timing-free
        #: measure of its population-dependent work.
        self.pending = {"scanned": 0}

    def stat(self, key: str) -> list[int]:
        return self.stats.setdefault(key, [0] * 6)

    def reset(self) -> None:
        """Zero every aggregate (the ledger then covers only what runs
        after this call, not the environment's construction)."""
        for stat in (*self.stats.values(), self._root):
            stat[:] = [0] * 6
        for table in (self.planner, self.slots, self.pending):
            for name in table:
                table[name] = type(table[name])()

    # -- wrappers ------------------------------------------------------------- #
    def timed(self, fn, stat, observe=None):
        """*fn* wrapped as one call segment of *stat*; a generator it
        returns is further timed per resume.  *observe* sees each result."""
        clock = time.perf_counter_ns
        stack = self._stack
        resumes = self._resumes

        def wrapper(*args, **kwargs):
            start = clock()
            frame = [0, stat]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - start
                caller = stack[-1]
                caller[0] += elapsed
                caller[1][4] += 1
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += 1
            if observe is not None:
                observe(result)
            if type(result) is GeneratorType:
                return resumes(result, stat)
            return result

        return wrapper

    def _resumes(self, gen, stat):
        """Drive *gen*, timing each resume as one segment of *stat*."""
        clock = time.perf_counter_ns
        stack = self._stack
        send = gen.send
        value = None
        error = None
        while True:
            start = clock()
            frame = [0, stat]
            stack.append(frame)
            try:
                yielded = send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                stack.pop()
                elapsed = clock() - start
                caller = stack[-1]
                caller[0] += elapsed
                caller[1][5] += 1
                stat[1] += elapsed - frame[0]
                stat[3] += 1
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen on resume
                value = None
                error = exc

    def wrap_method(self, cls, name: str, key: str, observe=None) -> None:
        setattr(cls, name, self.timed(getattr(cls, name), self.stat(key), observe))

    def wrap_function(self, fn, key: str) -> None:
        """Rebind every module-level reference to *fn* inside ``repro``
        (callers that imported it by name hold their own reference)."""
        wrapped = self.timed(fn, self.stat(key))
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    # -- installation --------------------------------------------------------- #
    def install(self) -> None:
        """Patch every layer boundary of the grid in this process."""
        from repro.analysis import analyze_process
        from repro.analysis.plan_filter import PlanStaticFilter
        from repro.bus.metrics import MetricsRegistry
        from repro.bus.router import Router
        from repro.bus.tracing import MessageTrace
        from repro.grid.agent import Agent
        from repro.grid.container import ApplicationContainer
        from repro.ontology.query import Query
        from repro.planner.engine import EvaluationEngine
        from repro.planner.gp import GPPlanner
        from repro.process.program import EnactmentProgram
        from repro.services import bootstrap  # noqa: F401  (imports every service)
        from repro.services.base import CoreService
        from repro.services.scheduling import SchedulingService
        from repro.sim.engine import Engine
        from repro.sim.resources import CapacityResource
        from repro.virolab import p3dr, pod, por, psf, setup_virolab_case

        self.wrap_method(Engine, "run", "sim.dispatch")
        self.wrap_method(Router, "route", "bus.route")
        self.wrap_method(Router, "route_many", "bus.route")
        # Private entry points: the event that hands a routed message to
        # its receiver's mailbox, and the agent runtime around every
        # handler (the serve loop, and the causal scope each handler and
        # fork branch runs in).  Unwrapped, their time is no layer's.
        self.wrap_method(Router, "_deliver", "bus.deliver")
        self.wrap_method(Agent, "_serve", "grid.agent")
        self.wrap_method(Agent, "_scoped", "grid.agent")
        self.wrap_method(MetricsRegistry, "inc", "bus.metrics")
        self.wrap_method(MetricsRegistry, "observe", "bus.metrics")
        self.wrap_method(MessageTrace, "record", "bus.trace")
        self.wrap_method(Agent, "call", "grid.rpc")
        self.wrap_method(
            ApplicationContainer, "handle_execute_activity", "grid.container.execute"
        )
        self._wrap_handlers(CoreService)
        self.wrap_method(EnactmentProgram, "__init__", "process.compile")
        self.wrap_method(Query, "run", "ontology.query")
        self.wrap_function(analyze_process, "analysis.analyze")
        # The GP's static pre-filter, called from inside evaluate_many.
        self.wrap_method(PlanStaticFilter, "fitness_for", "analysis.filter")
        self.wrap_method(GPPlanner, "plan", "planner.gp", observe=self._observe_plan)
        self.wrap_method(EvaluationEngine, "evaluate_many", "planner.evaluate")
        for fn in (pod, p3dr, por, psf):
            self.wrap_function(fn, f"virolab.{fn.__name__}")
        # The case-study client stages each case's data inside the run.
        self.wrap_function(setup_virolab_case, "client.stage")
        self._charge_forks(Agent)
        self._watch_slots(CapacityResource)
        self._count_pending(SchedulingService)
        self._time_collector()

    def _wrap_handlers(self, base) -> None:
        """``services.<type>.<action>`` around every ``handle_*`` of every
        core service class, inherited handlers included."""
        classes, pending = [], [base]
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        originals = {
            cls: {name: getattr(cls, name) for name in dir(cls) if name.startswith("handle_")}
            for cls in classes
        }
        for cls, handlers in originals.items():
            for name, fn in handlers.items():
                action = name[len("handle_"):].replace("_", "-")
                key = f"services.{cls.service_type}.{action}"
                setattr(cls, name, self.timed(fn, self.stat(key)))

    def _charge_forks(self, agent_cls) -> None:
        """Processes spawned with ``spawn_scoped`` (the coordinator's fork
        branches) are timed as the layer that spawned them."""
        original = agent_cls.spawn_scoped
        stack = self._stack
        resumes = self._resumes
        root = self._root

        def spawn_scoped(agent, gen, name=None):
            stat = stack[-1][1]
            if stat is not root:
                gen = resumes(gen, stat)
            return original(agent, gen, name)

        agent_cls.spawn_scoped = spawn_scoped

    def _watch_slots(self, resource_cls) -> None:
        """Simulated wait from ``acquire()`` to grant, through the public
        ``queued`` count of the FIFO resource (no CPU time is charged)."""
        acquire, release = resource_cls.acquire, resource_cls.release
        slots = self.slots
        waiting: dict[int, deque[float]] = {}

        def watched_acquire(resource):
            queued = resource.queued
            signal = acquire(resource)
            slots["acquires"] += 1
            if resource.queued > queued:
                waiting.setdefault(id(resource), deque()).append(resource.engine.now)
            return signal

        def watched_release(resource, grant):
            queued = resource.queued
            release(resource, grant)
            if resource.queued < queued:
                asked = waiting[id(resource)].popleft()
                slots["waited"] += 1
                slots["wait_sim_s"] += resource.engine.now - asked

        resource_cls.acquire = watched_acquire
        resource_cls.release = watched_release

    def _count_pending(self, scheduler_cls) -> None:
        """Count the pending-expiry entries each container lookup of a
        scheduling decision filters; the decision's cost grows with them."""
        original = scheduler_cls._pending_load
        pending = self.pending

        def pending_load(scheduler, container):
            pending["scanned"] += len(scheduler._pending.get(container, ()))
            return original(scheduler, container)

        scheduler_cls._pending_load = pending_load

    def _time_collector(self) -> None:
        """Garbage-collector pauses are a key of their own, ``runtime.gc``:
        each pause is taken out of the self time of the layer whose
        allocation triggered it."""
        clock = time.perf_counter_ns
        stack = self._stack
        stat = self.stat("runtime.gc")
        started = [0]

        def on_collect(phase, _info):
            if phase == "start":
                started[0] = clock()
                return
            elapsed = clock() - started[0]
            stack[-1][0] += elapsed
            stat[0] += 1
            stat[1] += elapsed

        gc.callbacks.append(on_collect)

    def _observe_plan(self, result) -> None:
        planner = self.planner
        planner["evaluations"] += result.evaluations
        planner["hits"] += result.cache_hits
        planner["misses"] += result.cache_misses
        planner["skipped"] += result.analysis_rejected

    # -- calibration and report ------------------------------------------------ #
    def calibrate(self, calls: int = 50_000, trials: int = 7) -> None:
        """Measure the wrapper cost per call segment and per resume segment
        (ns), from the fastest of *trials* loops wrapped and bare, and the
        cost of one bare engine event.  Call it before :meth:`install`."""
        from repro.sim.engine import Engine

        clock = time.perf_counter_ns

        def noop():
            return None

        def steps(count):
            for _ in range(count):
                yield None

        scratch = [0] * 6
        wrapped_noop = self.timed(noop, scratch)
        wrapped_steps = self.timed(steps, scratch)

        def best(loop) -> tuple[float, float]:
            """Per iteration of the fastest trial: (wall ns, ns inside
            the timed segments)."""
            samples = []
            for _ in range(trials):
                scratch[1] = 0
                start = clock()
                loop()
                samples.append((clock() - start, scratch[1]))
            wall, inside = min(samples)
            return wall / calls, inside / calls

        def split(bare_loop, wrapped_loop) -> tuple[float, float]:
            """(inside, outside) wrapper cost per segment: the bare loop
            does the wrapped loop's work with no wrapper around it."""
            bare, _ = best(bare_loop)
            wall, inside = best(wrapped_loop)
            cost = max(0.0, wall - bare)
            within = min(cost, max(0.0, inside - bare))
            return within, cost - within

        def bare_calls():
            for _ in range(calls):
                noop()

        def wrapped_calls():
            for _ in range(calls):
                wrapped_noop()

        def bare_resumes():
            for _ in steps(calls):
                pass

        def wrapped_resumes():
            for _ in wrapped_steps(calls):
                pass

        self.overhead_ns = (
            *split(bare_calls, wrapped_calls),
            *split(bare_resumes, wrapped_resumes),
        )

        # Sleepers at distinct delays, so events pass through the heap as
        # the grid's network and service delays make them do.
        sleepers = 256

        def sleeper(delay):
            for _ in range(calls // sleepers):
                yield delay

        samples = []
        for _ in range(trials):
            engine = Engine()
            for index in range(sleepers):
                engine.spawn(sleeper(1.0 + index / sleepers), name="sleeper")
            start = clock()
            engine.run()
            samples.append((clock() - start) / engine.events_processed)
        self.event_ns = min(samples)

    def layers(self, operations: int, events: int, counters: dict[str, int]) -> dict[str, float]:
        """Every per-layer metric of the run, flat: for each key its
        ``.calls``, ``.self_s`` (wrapper cost subtracted), ``.us_per_call``
        and ``.share`` of the run, plus the derived counts and ratios.
        *counters* are the run's metrics-registry totals."""
        call_in, call_out, resume_in, resume_out = self.overhead_ns
        rows = {}
        for key, stat in self.stats.items():
            calls, raw, call_segments, resume_segments, called, resumed = stat
            corrected = (
                raw
                - call_segments * call_in - resume_segments * resume_in
                - called * call_out - resumed * resume_out
            )
            rows[key] = (calls, corrected / 1e9)
        # The self times tile Engine.run, so their sum is the run's wall
        # time without the wrappers' cost.
        total = sum(self_s for _, self_s in rows.values())
        loop_s = events * self.event_ns / 1e9
        unclaimed = rows.get("sim.dispatch", (0, 0.0))[1] - loop_s
        flat: dict[str, float] = {}
        for key in sorted(rows):
            calls, self_s = rows[key]
            flat[f"{key}.calls"] = calls
            flat[f"{key}.self_s"] = self_s
            flat[f"{key}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
            flat[f"{key}.share"] = self_s / total if total > 0 else 0.0
        schedules = rows.get("services.scheduling.schedule", (0, 0.0))[0]
        planner = self.planner
        compiled = counters["program_cache_hit"] + counters["program_cache_miss"]
        looked_up = planner["hits"] + planner["misses"]
        flat.update({
            "sim.events": events,
            "sim.events_per_case": events / operations,
            "bus.messages_per_case": counters["messages_sent"] / operations,
            "grid.rpc.errors": counters["rpc_error"] + counters["rpc_timeout"],
            "grid.slots.acquires": self.slots["acquires"],
            "grid.slots.waited": self.slots["waited"],
            "grid.slots.wait_sim_s": self.slots["wait_sim_s"],
            "process.program_cache_hit_ratio": (
                counters["program_cache_hit"] / compiled if compiled else 0.0
            ),
            "analysis.filter_skip_ratio": (
                planner["skipped"] / planner["evaluations"] if planner["evaluations"] else 0.0
            ),
            "planner.evaluations": planner["evaluations"],
            "planner.fitness_cache_hit_ratio": (
                planner["hits"] / looked_up if looked_up else 0.0
            ),
            "services.scheduling.pending_scanned_per_call": (
                self.pending["scanned"] / schedules if schedules else 0.0
            ),
            "ledger.total_s": total,
            "ledger.loop_s": loop_s,
            "ledger.attributed_s": total - unclaimed,
            # Below 1: time spent in code no layer wraps.  Above 1: the
            # bare loop costs more per event than the run's residual, so
            # the calibration is off.
            "ledger.coverage": (total - unclaimed) / total if total > 0 else 0.0,
            "ledger.ns_per_call_segment": call_in + call_out,
            "ledger.ns_per_resume_segment": resume_in + resume_out,
            "ledger.ns_per_event": self.event_ns,
        })
        return flat
