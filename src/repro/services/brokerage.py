"""Brokerage service: service classes, resource classes, performance DB.

"Brokerage services maintain information about classes of services offered
by the environment, as well as past performance data bases.  Though the
brokerage services make a best effort to maintain accurate information
regarding the state of resources, such information may be obsolete."
(Section 2) — staleness is modelled explicitly: container advertisements
are snapshots; only the monitoring service has ground truth.

"Brokers must maintain full information about resources with similar
characteristics and group them in multiple equivalence classes based upon
different sets of properties." (Section 1) — the broker keeps a resource
knowledge base (Figure-12 Resource/Hardware frames) and answers
``equivalence-classes`` queries over arbitrary slot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message, Performative
from repro.grid.node import GridNode
from repro.ontology import RESOURCE, KnowledgeBase, builtin_shell, equivalence_classes
from repro.services.base import CoreService
from repro.sim.stats import Tally

__all__ = ["ContainerAd", "BrokerageService"]


@dataclass
class ContainerAd:
    """A (possibly stale) container advertisement."""

    container: str
    site: str
    services: list[str]
    speed: float
    advertised_at: float
    node: str = ""


@dataclass
class _Performance:
    duration: Tally = field(default_factory=Tally)
    successes: int = 0
    failures: int = 0

    @property
    def runs(self) -> int:
        return self.successes + self.failures

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 1.0


class BrokerageService(CoreService):
    service_type = "brokerage"

    def __init__(self, env: GridEnvironment, name: str | None = None, site: str = "core") -> None:
        super().__init__(env, name, site)
        self._ads: dict[str, ContainerAd] = {}
        self._by_service: dict[str, set[str]] = {}
        self._performance: dict[tuple[str, str], _Performance] = {}
        self.resource_kb: KnowledgeBase = builtin_shell("broker-resources")
        #: Bumped on every container (de)registration; caches key on it.
        self.registry_version = 0
        #: Agents that asked to be INFORMed of registry changes (e.g. the
        #: matchmaker's candidate cache).  Opt-in only: with no subscribers
        #: the broker's message traffic is exactly as before.
        self._subscribers: set[str] = set()
        #: service -> sorted container list, rebuilt lazily per version.
        self._service_lists: dict[str, list[str]] = {}
        #: key_paths -> (kb version, reply classes) for equivalence queries.
        self._eqc_cache: dict[tuple[str, ...], tuple[int, list[dict]]] = {}

    # -- direct (bootstrap) API --------------------------------------------------- #
    def advertise(self, ad: ContainerAd) -> None:
        previous = self._ads.get(ad.container)
        affected = set(ad.services)
        if previous is not None:
            affected.update(previous.services)
            for svc in previous.services:
                self._by_service.get(svc, set()).discard(ad.container)
        self._ads[ad.container] = ad
        for svc in ad.services:
            self._by_service.setdefault(svc, set()).add(ad.container)
        self._registry_changed(ad.container, affected)

    def withdraw(self, container: str) -> bool:
        """Deregister a container's advertisement (returns False when it
        was not advertised)."""
        ad = self._ads.pop(container, None)
        if ad is None:
            return False
        for svc in ad.services:
            self._by_service.get(svc, set()).discard(container)
        self._registry_changed(container, set(ad.services))
        return True

    def subscribe_registry(self, agent: str) -> None:
        """INFORM *agent* (action ``registry-changed``) after every
        container (de)registration — cache-invalidation push."""
        self._subscribers.add(agent)

    def _registry_changed(
        self, container: str | None = None, services: set[str] | None = None
    ) -> None:
        self.registry_version += 1
        self._service_lists.clear()
        if not self._subscribers:
            return
        # The push names the affected container and services so subscribers
        # can invalidate only the matching cache entries (a mid-run service
        # deployment used to flush every cached fact in the deployment's
        # blast radius, re-missing dozens of unrelated keys).
        content: dict = {"version": self.registry_version}
        if container is not None:
            content["container"] = container
            content["services"] = sorted(services or ())
        # One pre-batched delivery list: the push fan-out rides a single
        # engine event instead of one per subscriber (ordering unchanged).
        self.env.router.route_many(
            [
                Message(
                    sender=self.name,
                    receiver=subscriber,
                    performative=Performative.INFORM,
                    action="registry-changed",
                    content=dict(content),
                    size=100.0,
                )
                for subscriber in sorted(self._subscribers)
            ],
            cause=self._current_cause,
        )

    def advertise_node(self, node: GridNode) -> None:
        """Record a node's Resource/Hardware frames in the broker KB."""
        node.register_in(self.resource_kb)

    def containers_for(self, service: str) -> list[str]:
        cached = self._service_lists.get(service)
        if cached is None:
            cached = self._service_lists[service] = sorted(
                self._by_service.get(service, ())
            )
        return list(cached)

    def record(self, service: str, container: str, duration: float, success: bool) -> None:
        perf = self._performance.setdefault((service, container), _Performance())
        if success:
            perf.successes += 1
            perf.duration.observe(duration)
        else:
            perf.failures += 1

    def performance_of(self, service: str, container: str) -> _Performance | None:
        return self._performance.get((service, container))

    # -- message API -------------------------------------------------------------------- #
    def handle_advertise_container(self, message: Message):
        content = message.content
        self.advertise(
            ContainerAd(
                container=content["container"],
                site=content.get("site", "unknown"),
                services=list(content.get("services", ())),
                speed=float(content.get("speed", 1.0)),
                advertised_at=self.engine.now,
                node=content.get("node", ""),
            )
        )
        return {"advertised": content["container"]}

    def handle_find_containers(self, message: Message):
        """Figure-3 steps 4-5: containers that can possibly provide the
        execution of an activity's service."""
        service = message.content["service"]
        return {"service": service, "containers": self.containers_for(service)}

    def on_unhandled(self, message: Message) -> None:
        # The coordinator's one-way performance reports: booked inline in
        # the serve loop, no handler process and no reply.
        if message.action == "record-performance":
            content = message.content
            self.record(
                content["service"],
                content["container"],
                float(content.get("duration", 0.0)),
                bool(content.get("success", True)),
            )
            return
        super().on_unhandled(message)

    def handle_performance(self, message: Message):
        """Past performance of one service on many containers.

        Content: ``service``, ``containers`` (names).  Reply: ``service``
        and ``containers`` — name -> ``runs``, ``success_rate``,
        ``mean_duration``; a pair never recorded reads optimistically as
        zero runs at full success.
        """
        content = message.content
        service = content["service"]
        rows = {}
        for container in content["containers"]:
            perf = self.performance_of(service, container)
            rows[container] = (
                {"runs": 0, "success_rate": 1.0, "mean_duration": 0.0}
                if perf is None
                else {
                    "runs": perf.runs,
                    "success_rate": perf.success_rate,
                    "mean_duration": perf.duration.mean,
                }
            )
        return {"service": service, "containers": rows}

    def handle_equivalence_classes(self, message: Message):
        """Group advertised resources by the values at the given slot paths
        (e.g. ``["Hardware/Speed", "Administration Domain"]``).

        Results are cached per key-path tuple and invalidated by the
        resource KB's version counter (any instance add/retract/mutation
        recomputes on the next request)."""
        key_paths = list(message.content.get("key_paths", ()))
        cache_key = tuple(key_paths)
        version = self.resource_kb.version
        entry = self._eqc_cache.get(cache_key)
        if entry is not None and entry[0] == version:
            self.metrics.inc("eqc_cache_hit", agent=self.name)
            classes = entry[1]
        else:
            self.metrics.inc("eqc_cache_miss", agent=self.name)
            groups = equivalence_classes(
                self.resource_kb,
                self.resource_kb.instances_of(RESOURCE),
                key_paths,
            )
            classes = [
                {"key": list(key), "resources": sorted(i.get("Name") for i in members)}
                for key, members in sorted(
                    groups.items(), key=lambda kv: repr(kv[0])
                )
            ]
            self._eqc_cache[cache_key] = (version, classes)
        # Fresh outer/inner containers so callers can mutate their reply.
        return {
            "classes": [
                {"key": list(c["key"]), "resources": list(c["resources"])}
                for c in classes
            ]
        }

    def handle_withdraw_container(self, message: Message):
        return {"withdrawn": self.withdraw(message.content["container"])}

    def handle_subscribe_registry(self, message: Message):
        subscriber = message.content.get("subscriber", message.sender)
        self.subscribe_registry(subscriber)
        return {"subscribed": subscriber, "version": self.registry_version}

    def handle_container_info(self, message: Message):
        ad = self._ads.get(message.content["container"])
        if ad is None:
            return {"known": False}
        return {
            "known": True,
            "container": ad.container,
            "site": ad.site,
            "services": list(ad.services),
            "speed": ad.speed,
            "advertised_at": ad.advertised_at,
            "node": ad.node,
        }
