"""Common machinery for the Figure-1 core services.

"We distinguish between core services, provided by the computing
infrastructure, that are persistent and reliable, and end-user services
provided by end-users."  Core services therefore never use the failure
oracle; they register their offering with the information service at
construction (bootstrap registration is direct, runtime discovery is
message-based, matching how Jade platforms bring up their AMS/DF).
"""

from __future__ import annotations

from typing import Any

from repro.grid.agent import Agent
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message
from repro.sim.engine import Signal

__all__ = ["CoreService", "WELL_KNOWN"]

#: Sentinel a coalesced-lookup leader fires when its RPC raised: joiners
#: retry from scratch instead of receiving a bogus reply.
_LOOKUP_FAILED = object()

#: Conventional agent names for each core-service type.
WELL_KNOWN: dict[str, str] = {
    "information": "information",
    "brokerage": "brokerage",
    "matchmaking": "matchmaking",
    "monitoring": "monitoring",
    "ontology": "ontology",
    "storage": "storage",
    "authentication": "authentication",
    "scheduling": "scheduling",
    "simulation": "simulation",
    "planning": "planning",
    "coordination": "coordination",
}


class CoreService(Agent):
    """Base class: an agent with a service *type* and self-registration."""

    service_type: str = "core"

    #: Shard label (e.g. ``"s2"``) when this instance is one replica of a
    #: sharded service group, else None.  Metrics are already shard-aware
    #: through the agent name; this feeds span attributes so profiles and
    #: trace trees name the shard that carried a case.
    shard: str | None = None

    #: Read-through cache TTL in simulated seconds (see :meth:`cached`).
    #: 0, the default, turns the cache off: every lookup crosses the
    #: network, so the message stream — and every recorded trace — is
    #: exactly that of an uncached grid.
    cache_ttl: float = 0.0

    def __init__(
        self,
        env: GridEnvironment,
        name: str | None = None,
        site: str = "core",
    ) -> None:
        super().__init__(env, name or WELL_KNOWN.get(self.service_type, self.service_type), site)
        #: key -> Signal for an identical lookup currently in flight
        #: (see :meth:`coalesced_many`).
        self._inflight: dict = {}
        #: key -> (expires_at, value).  Every key ends with the registry
        #: name (container or service) its value depends on.
        self._cache: dict[tuple, tuple[float, Any]] = {}
        #: Registry pushes handled so far: a fill that spans one is stale.
        self._cache_epoch = 0
        information = getattr(env, "information_service", None)
        if information is not None and information is not self:
            information.register_offering(
                name=self.name,
                type=self.service_type,
                location=self.site,
                provider=self.name,
            )

    def handle_ping(self, message):
        return {"service": self.name, "type": self.service_type, "alive": True}

    def enable_cache(self, ttl: float, broker: Any | None = None) -> None:
        """Turn on the read-through cache with the given TTL; when *broker*
        (a BrokerageService) is given, also subscribe to its
        ``registry-changed`` push so (de)registrations drop stale entries."""
        self.cache_ttl = ttl
        if broker is not None:
            broker.subscribe_registry(self.name)

    def cached(self, counter: str, prefix: tuple, names: list, fetch):
        """``{name: value}`` for *names* through the read-through cache
        (generator).

        ``fetch(names)`` is a generator performing one batched lookup and
        returning ``{name: value}`` for every name it is given.  With the
        cache off it simply runs on *names*.  With a TTL, entry
        ``prefix + (name,)`` serves each name while fresh and the misses
        go to a single ``fetch``, joining identical fetches already in
        flight (:meth:`coalesced_many`); ``<counter>_hit``, ``_miss`` and
        ``_join`` count the names served, fetched and joined.  Since the
        key ends with *name*, a registry push naming it drops the entry
        (see :meth:`on_unhandled`).

        A fetched value is handed to its requesters but not stored when it
        is empty (an empty candidate list — a crashed fleet — must be asked
        again) or when a registry push landed while the fetch was in
        flight (its reply may predate the change).  Stored values are
        shared by reference: callers must not mutate them.
        """
        ttl = self.cache_ttl
        if ttl <= 0.0:
            return (yield from fetch(names))
        cache = self._cache
        now = self.engine.now
        values = {}
        misses = []
        for name in names:
            key = prefix + (name,)
            entry = cache.get(key)
            if entry is not None and now < entry[0]:
                values[name] = entry[1]
            else:
                misses.append(key)
        if values:
            self.metrics.inc(f"{counter}_hit", agent=self.name, amount=len(values))
        if not misses:
            return values

        def fill(keys):
            self.metrics.inc(f"{counter}_miss", agent=self.name, amount=len(keys))
            epoch = self._cache_epoch
            fetched = yield from fetch([key[-1] for key in keys])
            replies = {key: fetched[key[-1]] for key in keys}
            if epoch == self._cache_epoch:
                expires = self.engine.now + ttl
                for key, value in replies.items():
                    if value:
                        cache[key] = (expires, value)
            return replies

        replies = yield from self.coalesced_many(misses, fill, f"{counter}_join")
        for key, value in replies.items():
            values[key[-1]] = value
        return values

    def on_unhandled(self, message: Message) -> None:
        # The broker's cache-invalidation push (no reply expected): drop
        # the entries whose key ends with the pushed container or one of
        # the pushed services; a push naming neither flushes everything.
        if message.action == "registry-changed":
            self._cache_epoch += 1
            content = message.content
            names = set(content.get("services", ()))
            if "container" in content:
                names.add(content["container"])
            cache = self._cache
            if names:
                for key in [key for key in cache if key[-1] in names]:
                    del cache[key]
            else:
                cache.clear()
            return
        super().on_unhandled(message)

    def coalesced_many(self, keys: list, fetch, counter: str | None = None):
        """De-duplicate concurrent identical lookups (generator).

        Keys already in flight join their leaders (each join counted on
        *counter*); the rest are fetched by one ``fetch(keys)`` — a
        generator performing a single batched lookup and returning
        ``{key: reply}`` for every key it was given — which leads them
        all.  Returns ``{key: reply}`` for *keys*.  This kills the
        cache-stampede pattern where N concurrent cases all miss the same
        cold key before the first reply lands (the dominant miss source in
        ``many_cases``: the fan-out's first activities all schedule at the
        same instant).

        Joiners share the leader's reply objects by reference, matching
        the cache's no-mutate contract.  When the leader's lookup raises,
        its batch fails and each joiner of its keys retries from scratch
        (hitting the cache, a newer leader, or missing on its own), so one
        failed RPC fails only its own requester.
        """
        inflight = self._inflight
        joined: dict = {}
        mine = []
        for key in keys:
            signal = inflight.get(key)
            if signal is None:
                mine.append(key)
            else:
                joined[key] = signal
        replies: dict = {}
        if mine:
            signal = Signal(self.engine, f"{self.name}.inflight")
            for key in mine:
                inflight[key] = signal
            try:
                fetched = yield from fetch(mine)
            except BaseException:
                for key in mine:
                    inflight.pop(key, None)
                signal.fire(_LOOKUP_FAILED)
                raise
            for key in mine:
                inflight.pop(key, None)
            signal.fire(fetched)
            replies.update(fetched)
        retry = []
        for key, signal in joined.items():
            if counter is not None:
                self.metrics.inc(counter, agent=self.name)
            batch = yield signal
            if batch is _LOOKUP_FAILED:
                retry.append(key)
            else:
                replies[key] = batch[key]
        if retry:
            replies.update((yield from self.coalesced_many(retry, fetch, counter)))
        return replies
