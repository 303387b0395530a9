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

from repro.errors import SchedulingError, ServiceError
from repro.grid.messages import Message
from repro.services.base import CoreService, WELL_KNOWN

__all__ = ["SchedulingService"]


class SchedulingService(CoreService):
    service_type = "scheduling"

    broker_name = WELL_KNOWN["brokerage"]
    monitor_name = WELL_KNOWN["monitoring"]

    #: Penalty factor applied per observed failure fraction: a container at
    #: 50% success rate looks twice as slow as its raw estimate.
    reliability_weight = 1.0

    def __init__(self, env, name=None, site="core"):
        super().__init__(env, name, site)
        #: Pending assignments per container: expiry times of work we have
        #: scheduled but that monitoring may not see yet.  Concurrent
        #: requests (e.g. the three fork branches of Figure 10) would
        #: otherwise all observe zero load and herd onto one container —
        #: the Section-2 staleness problem in miniature.  Each list is a
        #: min-heap, so expired entries pop off its front.
        self._pending: dict[str, list[float]] = {}

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
        with self.env.spans.span(
            content.get("service", ""), "schedule-eval",
            agent=self.name, trace_id=message.trace_id,
            candidates=len(content.get("candidates", ())),
        ) as span:
            reply = yield from self._schedule(content)
            span.set(container=reply["container"], estimate=reply["estimate"])
        return reply

    def _schedule(self, content: dict):
        service = content["service"]
        candidates = list(content.get("candidates", ()))
        work = float(content.get("work", 10.0))
        deadline = content.get("deadline")
        objective = content.get("objective", "time")
        if objective not in ("time", "cost"):
            raise ServiceError(f"unknown scheduling objective {objective!r}")
        if not candidates:
            raise ServiceError(f"no candidates to schedule service {service!r}")

        # Gather the facts first: one monitor ``load`` call, then one
        # broker ``performance`` call over the live candidates, each
        # behind the read-through cache (rows keyed ``("status", c)`` and
        # ``("perf", service, c)``; cached occupancy is at most a TTL old,
        # and the pending bookings below keep spreading load against it).
        # Each call yields to other agents, so concurrent schedule
        # requests interleave here...
        def fetch_loads(containers):
            reply = yield from self.call(
                self.monitor_name, "load", {"agents": containers}
            )
            return reply["agents"]

        def fetch_perfs(containers):
            reply = yield from self.call(
                self.broker_name, "performance",
                {"service": service, "containers": containers},
            )
            return reply["containers"]

        loads = yield from self.cached(
            "sched_fact_cache", ("status",), candidates, fetch_loads
        )
        live = [
            container
            for container in candidates
            if loads[container].get("known") and loads[container].get("alive")
        ]
        perfs = {}
        if live:
            perfs = yield from self.cached(
                "sched_fact_cache", ("perf", service), live, fetch_perfs
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
            key = cost if objective == "cost" else estimate
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
        with self.env.spans.span(
            content.get("container", ""), "reserve",
            agent=self.name, trace_id=message.trace_id,
        ) as span:
            node = yield from self._reservable_node(content["container"])
            if node is None:
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
                raise ServiceError(str(exc)) from exc
            span.set(cost=reservation.cost, start=reservation.start)
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
