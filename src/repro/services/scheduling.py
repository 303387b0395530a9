"""Scheduling service.

"Scheduling services provide optimal schedules for sites offering to host
application containers for different end-user services."  Given a service
and candidate containers, the scheduler estimates each candidate's
completion time — live queue wait (from monitoring) plus compute time
(work / node speed), weighted by the broker's historical success rate —
and picks the minimum.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.bus.policy import DEFAULT_POLICY, CallPolicy
from repro.errors import SchedulingError, ServiceError
from repro.grid.messages import Message
from repro.services.base import CoreService, WELL_KNOWN

__all__ = ["SchedulingService"]


class SchedulingService(CoreService):
    service_type = "scheduling"

    broker_name = WELL_KNOWN["brokerage"]
    monitor_name = WELL_KNOWN["monitoring"]

    #: Envelope for the two batched fact-gathering RPCs (monitor load,
    #: broker performance).  Default single-attempt, no-timeout — core
    #: services are reliable; override for flaky-core experiments.
    lookup_policy: CallPolicy = DEFAULT_POLICY

    #: Penalty factor applied per observed failure fraction: a container at
    #: 50% success rate looks twice as slow as its raw estimate.
    reliability_weight = 1.0

    #: Candidate-fact cache TTL in simulated seconds.  0 (the default)
    #: disables caching, keeping the monitor/broker message streams — and
    #: therefore every recorded trace — exactly as before.  Throughput
    #: deployments set a TTL (see :meth:`enable_fact_cache`): each
    #: container's load and performance facts are then amortized across
    #: schedule requests, and a lookup fetches only the stale ones.
    #: Staleness is bounded by the TTL and partially compensated by the
    #: scheduler's own pending-assignment tracking, which keeps spreading
    #: load even against frozen occupancy facts.
    fact_cache_ttl: float = 0.0

    def __init__(self, env, name=None, site="core"):
        super().__init__(env, name, site)
        #: Pending assignments per container: expiry times of work we have
        #: scheduled but that monitoring may not see yet.  Concurrent
        #: requests (e.g. the three fork branches of Figure 10) would
        #: otherwise all observe zero load and herd onto one container —
        #: the Section-2 staleness problem in miniature.  Each list is a
        #: min-heap, so expired entries pop off its front.
        self._pending: dict[str, list[float]] = {}
        #: ("status", container) / ("perf", service, container) ->
        #: (expires_at, fact row).
        self._fact_cache: dict[tuple, tuple[float, dict]] = {}

    def enable_fact_cache(self, ttl: float, broker=None) -> None:
        """Turn on candidate-fact caching with the given TTL; when
        *broker* (a BrokerageService) is given, also subscribe to its
        ``registry-changed`` push so (de)registrations flush stale facts."""
        self.fact_cache_ttl = ttl
        if broker is not None:
            broker.subscribe_registry(self.name)

    def invalidate_facts(self, container: str | None = None) -> None:
        """Drop cached facts — all of them, or (when the broker's push
        names the affected *container*) only that container's status and
        performance entries.  Monitor status and broker performance for
        *other* containers are untouched by a (de)registration, so the
        selective path keeps the dominant cached-fact population warm
        across mid-run service deployments."""
        if container is None:
            self._fact_cache.clear()
            return
        cache = self._fact_cache
        for key in [k for k in cache if k[-1] == container]:
            del cache[key]

    def on_unhandled(self, message: Message) -> None:
        # The broker's cache-invalidation push (no reply expected).
        if message.action == "registry-changed":
            self.invalidate_facts(message.content.get("container"))
            return
        super().on_unhandled(message)

    def _facts(self, prefix: tuple, names: list, to: str, action: str,
               content: dict, field: str):
        """``{name: row}`` for *names* from one batched lookup (generator).

        The request carries the names under *field* and the reply maps
        each name to its row under the same field.  With the fact cache
        on, fresh ``prefix + (name,)`` entries are served from it and only
        the misses are fetched — still in one RPC, coalesced per key with
        concurrent requests missing the same facts (without that, the N
        cases of a fan-out all cold-miss them at the same instant).
        Cached rows are shared by reference: the decision only reads them.
        """
        ttl = self.fact_cache_ttl
        if ttl <= 0.0:
            reply = yield from self.call(
                to, action, {**content, field: names}, policy=self.lookup_policy
            )
            return reply[field]
        cache = self._fact_cache
        now = self.engine.now
        rows = {}
        misses = []
        for name in names:
            key = prefix + (name,)
            entry = cache.get(key)
            if entry is not None and now < entry[0]:
                rows[name] = entry[1]
            else:
                misses.append(key)
        if rows:
            self.metrics.inc("sched_fact_cache_hit", agent=self.name, amount=len(rows))
        if not misses:
            return rows

        def fetch(keys):
            self.metrics.inc(
                "sched_fact_cache_miss", agent=self.name, amount=len(keys)
            )
            reply = yield from self.call(
                to,
                action,
                {**content, field: [key[-1] for key in keys]},
                policy=self.lookup_policy,
            )
            fetched = reply[field]
            expires = self.engine.now + ttl
            for key in keys:
                cache[key] = (expires, fetched[key[-1]])
            return {key: fetched[key[-1]] for key in keys}

        fetched = yield from self.coalesced_many(
            misses, fetch, "sched_fact_cache_join"
        )
        for key, row in fetched.items():
            rows[key[-1]] = row
        return rows

    def _pending_load(self, container: str) -> int:
        """Assignments booked on *container* whose predicted completion
        has not yet passed: pop the expired ones off its min-heap."""
        entries = self._pending.get(container)
        if not entries:
            return 0
        now = self.engine.now
        while entries and entries[0] <= now:
            heappop(entries)
        return len(entries)

    def handle_schedule(self, message: Message):
        """Pick the best container for a service invocation.

        Content: ``service``, ``candidates`` (names), ``work`` (units,
        default 10); optional ``deadline`` (seconds from now — the
        Section-1 soft deadline: candidates whose estimate exceeds it are
        infeasible) and ``objective`` (``"time"``, the default, or
        ``"cost"``: cheapest deadline-feasible candidate, using each
        node's cost rate).  Reply: ``container``, ``estimate`` (seconds),
        ``cost``, ``alternatives`` (ranked remainder).
        """
        content = message.content
        recorder = self.env.spans
        span = (
            recorder.start(
                content.get("service", ""), "schedule-eval",
                agent=self.name, trace_id=message.trace_id,
                candidates=len(content.get("candidates", ())),
                **({"shard": self.shard} if self.shard else {}),
            )
            if recorder.enabled
            else None
        )
        try:
            reply = yield from self._schedule(content)
        except ServiceError:
            recorder.end(span, status="error")
            raise
        recorder.end(
            span, container=reply["container"], estimate=reply["estimate"]
        )
        return reply

    def _schedule(self, content: dict):
        service = content["service"]
        candidates = list(content.get("candidates", ()))
        work = float(content.get("work", 10.0))
        deadline = content.get("deadline")
        objective = content.get("objective", "time")
        # Critical-path hint from the coordinator's concurrency analysis:
        # a positive criticality inflates queueing-wait in the ranking key
        # so critical activities land on lightly loaded containers.  The
        # reply's estimate/cost stay the plain values — the hint reorders
        # preferences, it does not re-price anything.
        criticality = float(content.get("criticality", 0.0))
        if objective not in ("time", "cost"):
            raise ServiceError(f"unknown scheduling objective {objective!r}")
        if not candidates:
            raise ServiceError(f"no candidates to schedule service {service!r}")

        # Gather the facts first: one monitor ``load`` call, then one
        # broker ``performance`` call over the live candidates.  Each
        # call yields to other agents, so concurrent schedule requests
        # interleave here...
        loads = yield from self._facts(
            ("status",), candidates, self.monitor_name, "load", {}, "agents"
        )
        live = [
            container
            for container in candidates
            if loads[container].get("known") and loads[container].get("alive")
        ]
        perfs = {}
        if live:
            perfs = yield from self._facts(
                ("perf", service),
                live,
                self.broker_name,
                "performance",
                {"service": service},
                "containers",
            )
        facts: list[dict] = []
        for container in live:
            status = loads[container]
            reliability = float(perfs[container].get("success_rate", 1.0))
            facts.append(
                {
                    "container": container,
                    "speed": float(status.get("speed", 1.0)),
                    "slots": max(1, int(status.get("slots", 1))),
                    "occupancy": int(status.get("slots_in_use", 0))
                    + int(status.get("slots_queued", 0)),
                    "penalty": 1.0
                    + self.reliability_weight * (1.0 - reliability),
                    "cost_rate": float(status.get("cost_rate", 1.0)),
                }
            )

        # ...then decide in one synchronous step, so this request sees every
        # pending assignment made by concurrently-processed requests (the
        # Figure-10 fork issues three schedule calls at the same instant;
        # deciding against stale data would herd them all onto one node).
        scored: list[tuple[float, float, float, str]] = []  # key, est, cost
        feasible_existed = False
        for fact in facts:
            compute = work / fact["speed"]
            ahead = fact["occupancy"] + self._pending_load(fact["container"])
            wait = (ahead / fact["slots"]) * compute
            estimate = fact["penalty"] * (wait + compute)
            cost = estimate * fact["cost_rate"]
            if deadline is not None and estimate > float(deadline):
                continue
            feasible_existed = True
            if objective == "cost":
                key = cost
            elif criticality > 0.0:
                key = fact["penalty"] * (wait * (1.0 + criticality) + compute)
            else:
                key = estimate
            scored.append((key, estimate, cost, fact["container"]))

        if not scored:
            if deadline is not None and not feasible_existed:
                raise ServiceError(
                    f"no candidate can run service {service!r} within the "
                    f"{deadline}s deadline"
                )
            raise ServiceError(
                f"no live candidate can run service {service!r}"
            )
        scored.sort()
        _, best_estimate, best_cost, best = scored[0]
        heappush(
            self._pending.setdefault(best, []), self.engine.now + best_estimate
        )
        return {
            "service": service,
            "container": best,
            "estimate": best_estimate,
            "cost": best_cost,
            "alternatives": [name for _, _, _, name in scored[1:]],
        }

    # -- advance reservations (Section 1) ------------------------------------- #
    def handle_quote_reservation(self, message: Message):
        """Price a reservation without booking it.

        Content: ``container``, ``duration``.  Reply: ``supported``,
        ``cost`` (the Section-1 "prohibitive cost" is the ledger's
        premium over the node's base rate).
        """
        node = yield from self._reservable_node(message.content["container"])
        if node is None:
            return {"supported": False}
        duration = float(message.content["duration"])
        return {"supported": True, "cost": node.reservations.quote(duration)}

    def handle_reserve(self, message: Message):
        """Book one slot: ``container``, ``start`` (absolute simulated
        time), ``duration``; reply carries the token and the cost."""
        content = message.content
        recorder = self.env.spans
        span = (
            recorder.start(
                content.get("container", ""), "reserve",
                agent=self.name, trace_id=message.trace_id,
            )
            if recorder.enabled
            else None
        )
        try:
            node = yield from self._reservable_node(content["container"])
        except ServiceError:
            recorder.end(span, status="error")
            raise
        if node is None:
            recorder.end(span, status="error")
            raise ServiceError(
                f"container {content['container']!r} does not support "
                f"advance reservations"
            )
        try:
            reservation = node.reservations.book(
                holder=message.sender,
                start=float(content["start"]),
                duration=float(content["duration"]),
            )
        except SchedulingError as exc:
            recorder.end(span, status="error")
            raise ServiceError(str(exc)) from exc
        recorder.end(span, cost=reservation.cost, start=reservation.start)
        return {
            "token": reservation.token,
            "start": reservation.start,
            "end": reservation.end,
            "cost": reservation.cost,
        }

    def handle_cancel_reservation(self, message: Message):
        content = message.content
        node = yield from self._reservable_node(content["container"])
        if node is None:
            return {"cancelled": False}
        return {"cancelled": node.reservations.cancel(content["token"])}

    def _reservable_node(self, container_name: str):
        """The container's node if it supports reservations, else None.

        (Generator for symmetry with the other handlers; resolves through
        the live environment, which is the scheduler's ground truth.)
        """
        if not self.env.has_agent(container_name):
            raise ServiceError(f"unknown container {container_name!r}")
        agent = self.env.agent(container_name)
        node = getattr(agent, "node", None)
        if node is None or node.reservations is None:
            return None
        return node
        yield  # pragma: no cover - make this a generator
