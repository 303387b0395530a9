"""Matchmaking service: locate resources in the spot market.

"Matchmaking services allow individual users represented by their proxies
(coordination services) to locate resources in a spot market, subject to a
wide range of conditions."  A match request names the end-user service and
optional constraints (minimum speed, preferred site, liveness); the
matchmaker combines the broker's (possibly stale) advertisements with the
monitor's live status and returns ranked candidates.
"""

from __future__ import annotations

from typing import Any

from repro.bus.policy import DEFAULT_POLICY, CallPolicy
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message
from repro.services.base import CoreService, WELL_KNOWN

__all__ = ["MatchmakingService"]


class MatchmakingService(CoreService):
    service_type = "matchmaking"

    broker_name = WELL_KNOWN["brokerage"]
    monitor_name = WELL_KNOWN["monitoring"]

    #: Envelope for broker/monitor lookups.  Core services are "persistent
    #: and reliable" (Section 2), so the default single-attempt, no-timeout
    #: policy applies; deployments with flakier cores override this.
    lookup_policy: CallPolicy = DEFAULT_POLICY

    #: Candidate-set cache TTL in simulated seconds.  0 (the default)
    #: disables caching entirely, keeping the broker/monitor message
    #: streams — and therefore every recorded trace — exactly as before.
    #: Throughput deployments set a TTL and subscribe the matchmaker to the
    #: broker's ``registry-changed`` push so (de)registrations invalidate
    #: cached candidate sets immediately.
    candidate_cache_ttl: float = 0.0

    def __init__(
        self, env: GridEnvironment, name: str | None = None, site: str = "core"
    ) -> None:
        super().__init__(env, name, site)
        #: constraint tuple -> (expires_at, ranked candidate dicts).
        self._candidate_cache: dict[tuple, tuple[float, list[dict[str, Any]]]] = {}

    def enable_candidate_cache(self, ttl: float, broker: Any | None = None) -> None:
        """Turn on candidate caching with the given TTL; when *broker* (a
        BrokerageService) is given, also subscribe to its registry pushes."""
        self.candidate_cache_ttl = ttl
        if broker is not None:
            broker.subscribe_registry(self.name)

    def invalidate_candidates(self, services: list[str] | None = None) -> None:
        """Drop cached candidate sets — all of them, or (when the broker's
        push names the affected *services*) only the entries for those
        services, whose provider lists actually changed."""
        if services is None:
            self._candidate_cache.clear()
            return
        affected = set(services)
        cache = self._candidate_cache
        for key in [k for k in cache if k[0] in affected]:
            del cache[key]

    def on_unhandled(self, message: Message) -> None:
        # The broker's cache-invalidation push (no reply expected).
        if message.action == "registry-changed":
            self.invalidate_candidates(message.content.get("services"))
            return
        super().on_unhandled(message)

    def handle_match(self, message: Message):
        """Rank containers able to run a service under the given conditions.

        Content: ``service`` (required); optional ``min_speed``, ``site``,
        ``require_alive`` (default True), ``max_candidates``.
        Reply: ``candidates`` — list of dicts ordered best-first by
        (live load, -speed).
        """
        content = message.content
        service = content["service"]
        min_speed = float(content.get("min_speed", 0.0))
        wanted_site = content.get("site")
        require_alive = bool(content.get("require_alive", True))
        max_candidates = int(content.get("max_candidates", 8))

        ttl = self.candidate_cache_ttl
        cache_key = (service, min_speed, wanted_site, require_alive, max_candidates)
        if ttl > 0.0:
            entry = self._candidate_cache.get(cache_key)
            if entry is not None and self.engine.now < entry[0]:
                self.metrics.inc("match_cache_hit", agent=self.name, action=service)
                return {
                    "service": service,
                    "candidates": [dict(c) for c in entry[1]],
                }

            def fill():
                self.metrics.inc(
                    "match_cache_miss", agent=self.name, action=service
                )
                ranked = yield from self._rank_candidates(
                    service, min_speed, wanted_site, require_alive,
                    max_candidates,
                )
                self._candidate_cache[cache_key] = (
                    self.engine.now + ttl,
                    [dict(c) for c in ranked],
                )
                return ranked

            # Concurrent cold misses on one constraint tuple collapse into
            # a single broker+monitor sweep (the fan-out's first activities
            # all match at the same instant).
            ranked = yield from self.coalesced(
                cache_key, fill, "match_cache_join"
            )
            return {
                "service": service,
                "candidates": [dict(c) for c in ranked],
            }

        ranked = yield from self._rank_candidates(
            service, min_speed, wanted_site, require_alive, max_candidates
        )
        return {"service": service, "candidates": ranked}

    def _rank_candidates(
        self, service, min_speed, wanted_site, require_alive, max_candidates
    ):
        """The actual broker + monitor sweep behind a match (generator):
        the broker's providers, then one monitor ``load`` call for all of
        them."""
        found = yield from self.call(
            self.broker_name,
            "find-containers",
            {"service": service},
            policy=self.lookup_policy,
        )
        containers = found["containers"]
        if not containers:
            return []
        loads = yield from self.call(
            self.monitor_name,
            "load",
            {"agents": containers},
            policy=self.lookup_policy,
        )
        candidates = []
        for container, status in loads["agents"].items():
            if require_alive and not (
                status.get("alive") and status.get("node_up", True)
            ):
                continue
            speed = float(status.get("speed", 1.0))
            if speed < min_speed:
                continue
            if wanted_site is not None and status.get("site") != wanted_site:
                continue
            load = (
                status.get("slots_in_use", 0) + status.get("slots_queued", 0)
            ) / max(1, status.get("slots", 1))
            candidates.append(
                {
                    "container": container,
                    "site": status.get("site", "unknown"),
                    "speed": speed,
                    "load": load,
                }
            )
        candidates.sort(key=lambda c: (c["load"], -c["speed"], c["container"]))
        return candidates[:max_candidates]
