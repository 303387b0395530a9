"""Common machinery for the Figure-1 core services.

"We distinguish between core services, provided by the computing
infrastructure, that are persistent and reliable, and end-user services
provided by end-users."  Core services therefore never use the failure
oracle; they register their offering with the information service at
construction (bootstrap registration is direct, runtime discovery is
message-based, matching how Jade platforms bring up their AMS/DF).
"""

from __future__ import annotations

from repro.bus.policy import CallPolicy
from repro.grid.agent import Agent
from repro.grid.environment import GridEnvironment
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

    def __init__(
        self,
        env: GridEnvironment,
        name: str | None = None,
        site: str = "core",
    ) -> None:
        super().__init__(env, name or WELL_KNOWN.get(self.service_type, self.service_type), site)
        #: key -> Signal for an identical lookup currently in flight
        #: (see :meth:`coalesced` and :meth:`coalesced_many`).
        self._inflight: dict = {}
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

    def coalesced(self, key, factory, counter: str | None = None):
        """De-duplicate concurrent identical lookups (generator).

        The first request for *key* (the leader) runs ``factory()`` — a
        generator performing the lookup and filling whatever cache the
        caller maintains — and fires a signal with the reply; requests
        arriving while the leader is still parked join that signal instead
        of issuing their own RPCs.  This kills the cache-stampede pattern
        where N concurrent cases all miss the same cold key before the
        first reply lands (the dominant miss source in ``many_cases``: the
        fan-out's first activities all schedule at the same instant).

        Only meaningful on opt-in cached paths: callers gate on their TTL
        knob, so default-configuration message streams are untouched.
        Joiners share the leader's reply object by reference, matching the
        caches' no-mutate contract.  When the leader's lookup raises, the
        signal fires a failure sentinel and each joiner retries from
        scratch (hitting the cache, a newer leader, or missing on its
        own), so one failed RPC fails only its own requester.
        """

        def fetch(keys):
            reply = yield from factory()
            return {key: reply}

        replies = yield from self.coalesced_many([key], fetch, counter)
        return replies[key]

    def coalesced_many(self, keys: list, fetch, counter: str | None = None):
        """:meth:`coalesced` for a batch of keys (generator).

        Keys already in flight join their leaders; the rest are fetched
        by one ``fetch(keys)`` — a generator performing a single batched
        lookup and returning ``{key: reply}`` for every key it was given
        — which leads them all.  Returns ``{key: reply}`` for *keys*.
        A failed leader fails its own batch; joiners of its keys retry.
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

    def call_with_failover(
        self,
        providers: list[str],
        action: str,
        content: dict | None = None,
        timeout: float = 30.0,
    ):
        """RPC against the first *provider* that answers.

        "Core services are replicated to ensure an adequate level of
        performance and reliability" (Section 2): when a primary replica
        is down (silent -> timeout, or failing), the caller moves on to
        the next.  Raises the last error when every replica fails.
        Generator: ``result = yield from self.call_with_failover(...)``.

        Kept as the historical entry point; the mechanics now live in
        :meth:`~repro.grid.agent.Agent.call_any` under a declarative
        :class:`~repro.bus.policy.CallPolicy`.
        """
        result = yield from self.call_any(
            providers, action, content, policy=CallPolicy(timeout=timeout)
        )
        return result
