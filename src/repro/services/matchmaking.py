"""Matchmaking service: locate resources in the spot market.

"Matchmaking services allow individual users represented by their proxies
(coordination services) to locate resources in a spot market, subject to a
wide range of conditions."  A match request names the end-user service and
optional constraints (minimum speed, preferred site, liveness); the
matchmaker combines the broker's (possibly stale) advertisements with the
monitor's live status and returns ranked candidates.
"""

from __future__ import annotations

from repro.grid.messages import Message
from repro.services.base import CoreService, WELL_KNOWN

__all__ = ["MatchmakingService"]


class MatchmakingService(CoreService):
    service_type = "matchmaking"

    broker_name = WELL_KNOWN["brokerage"]
    monitor_name = WELL_KNOWN["monitoring"]

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

        # The broker's providers, then one monitor ``load`` call for all
        # of them.
        found = yield from self.call(
            self.broker_name, "find-containers", {"service": service}
        )
        containers = found["containers"]
        if not containers:
            return {"service": service, "candidates": []}
        loads = yield from self.call(
            self.monitor_name, "load", {"agents": containers}
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
        return {"service": service, "candidates": candidates[:max_candidates]}
