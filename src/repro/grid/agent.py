"""Agent base class: message loop, policy-driven RPC, handler dispatch.

An :class:`Agent` is one named participant in the environment with a
mailbox and a *serve loop*: it receives messages and spawns one handler
process per REQUEST/QUERY, so a long-running activity execution never
blocks the agent's other conversations (Jade behaviours work the same
way).

Handlers are generator methods named ``handle_<action>`` (dashes become
underscores): they may ``yield`` delays / signals like any process, and
their return value is sent back as an INFORM.  Raising
:class:`~repro.errors.ServiceError` (or returning via ``Failure``) produces
a FAILURE reply instead.

The :meth:`Agent.call` helper is the client side: it sends a REQUEST and
parks until the matching reply arrives, raising :class:`ServiceError` on
FAILURE/REFUSE — giving the core services a natural RPC style while every
exchange still crosses the simulated network and appears in the message
trace (which the Figure-2/3 protocol benches assert on).  Its reliability
envelope — timeout, bounded deterministic retries — is a
:class:`~repro.bus.policy.CallPolicy`; :meth:`Agent.call_any` adds
failover across a provider list on top.

Causality: while a handler (or a process spawned with
:meth:`spawn_scoped`) runs, every message it sends is linked to the
message it is handling — same ``trace_id``, ``parent_id`` pointing at the
cause — so the bus's trace reconstructs multi-hop protocol exchanges as
trees.  RPC round-trips are timed into the environment's
:class:`~repro.bus.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from types import GeneratorType
from collections.abc import Generator, Sequence
from typing import Any

from repro.bus.policy import DEFAULT_POLICY, CallPolicy
from repro.bus.tracing import MessageTrace  # noqa: F401  (re-export, historical home)
from repro.errors import ServiceError
from repro.grid.messages import Mailbox, Message, Performative
from repro.sim.engine import Engine, Signal

__all__ = ["Agent", "MessageTrace"]

#: Sentinel delivered to a parked caller when its RPC timeout expires.
_TIMEOUT = object()

#: action -> "handle_<action>" method-name cache (actions are a small
#: closed vocabulary; the per-dispatch replace+concat showed up in
#: enactment profiles).
_handler_names: dict[str, str] = {}


class Agent:
    """Base class for every grid participant (core services, containers,
    user proxies)."""

    #: Fixed processing overhead added before each handler runs (seconds).
    service_delay: float = 1e-3

    #: Performative sets the serve loop classifies against (class-level:
    #: no per-message tuple rebuild in the hot loop).
    _REPLY_PERFORMATIVES = frozenset(
        (
            Performative.INFORM,
            Performative.FAILURE,
            Performative.REFUSE,
            Performative.AGREE,
        )
    )
    _HANDLED_PERFORMATIVES = frozenset(
        (Performative.REQUEST, Performative.QUERY)
    )

    def __init__(self, env: "GridEnvironment", name: str, site: str) -> None:  # noqa: F821
        self.env = env
        self.name = name
        self.site = site
        self.engine: Engine = env.engine
        self.mailbox = Mailbox(self.engine, name)
        self._reply_waiters: dict[str, Signal] = {}
        #: The message whose handler is currently executing (causal scope;
        #: maintained by :meth:`_scoped` around every generator step).
        self._current_cause: Message | None = None
        self.alive = True
        env._register_agent(self)
        self._loop = self.engine.spawn(self._serve(), name=f"{name}.serve")

    @property
    def metrics(self):
        """The environment's shared metrics registry."""
        return self.env.router.metrics

    # -- sending -------------------------------------------------------------- #
    def send(self, message: Message, cause: Message | None = None) -> None:
        """Route *message*; its causal parent defaults to the message whose
        handler is currently running (if any)."""
        self.env.route(
            message, cause=cause if cause is not None else self._current_cause
        )

    def request(
        self,
        to: str,
        action: str,
        content: dict[str, Any] | None = None,
        size: float = 1_000.0,
    ) -> Message:
        """Fire-and-forget REQUEST; returns the sent message (with its
        router-assigned conversation id)."""
        message = Message(
            sender=self.name,
            receiver=to,
            performative=Performative.REQUEST,
            action=action,
            content=dict(content or {}),
            size=size,
        )
        self.send(message)
        return message

    def call(
        self,
        to: str,
        action: str,
        content: dict[str, Any] | None = None,
        policy: CallPolicy | None = None,
    ) -> Generator[Any, Any, dict[str, Any]]:
        """RPC helper (generator — use ``result = yield from agent.call(...)``).

        Sends a REQUEST and parks until the reply in the same conversation
        arrives.  Returns the reply content dict; FAILURE/REFUSE raise
        :class:`ServiceError` carrying the remote error text.

        The reliability envelope is a *policy*: with a timeout (simulated
        seconds), a silent peer — e.g. a crashed container — raises
        ServiceError instead of deadlocking the caller (a reply landing
        after the timeout is dropped via :meth:`on_unhandled`); with
        retries, failed attempts repeat after the policy's deterministic
        backoff.  No *policy* means :data:`~repro.bus.policy.DEFAULT_POLICY`:
        one attempt, no timeout.
        """
        if policy is None:
            policy = DEFAULT_POLICY
        last_error: ServiceError | None = None
        for attempt in range(policy.attempts):
            if attempt:
                self.metrics.inc("rpc_retry", agent=to, action=action)
                pause = policy.backoff_before(attempt)
                if pause > 0:
                    yield pause
            try:
                result = yield from self._call_once(to, action, content, policy)
                return result
            except ServiceError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def _call_once(
        self,
        to: str,
        action: str,
        content: dict[str, Any] | None,
        policy: CallPolicy,
    ) -> Generator[Any, Any, dict[str, Any]]:
        """One request/reply round trip under *policy*'s timeout."""
        message = self.request(to, action, content, policy.size)
        conversation = message.conversation
        # The conversation id is already unique — naming the signal with it
        # directly skips an f-string per RPC.
        signal = Signal(self.engine, conversation)
        self._reply_waiters[conversation] = signal
        timer = None
        timeout = policy.timeout
        if timeout is not None:
            def _expire() -> None:
                if not signal.fired:
                    self._reply_waiters.pop(conversation, None)
                    signal.fire(_TIMEOUT)

            timer = self.engine.schedule(timeout, _expire)
        started = self.engine.now
        reply = yield signal
        if timer is not None:
            timer.cancelled = True
        metrics = self.metrics
        if reply is _TIMEOUT:
            metrics.inc("rpc_timeout", agent=to, action=action)
            raise ServiceError(f"{to}!{action} timed out after {timeout}s")
        assert isinstance(reply, Message)
        metrics.observe(
            "rpc_latency", self.engine.now - started, agent=to, action=action
        )
        if reply.is_error:
            metrics.inc("rpc_error", agent=to, action=action)
            raise ServiceError(
                f"{to}!{action} failed: {reply.content.get('error', 'unknown error')}"
            )
        metrics.inc("rpc_ok", agent=to, action=action)
        return reply.content

    def call_any(
        self,
        providers: Sequence[str],
        action: str,
        content: dict[str, Any] | None = None,
        policy: CallPolicy | None = None,
    ) -> Generator[Any, Any, dict[str, Any]]:
        """RPC against the first *provider* that answers (failover).

        Applies *policy* per provider (timeout and retries included), and
        moves to the next provider when one fails outright.  Raises the
        last error when every provider fails.  Generator:
        ``result = yield from agent.call_any(...)``.
        """
        if not providers:
            raise ServiceError(f"no providers available for {action!r}")
        last_error: ServiceError | None = None
        for index, provider in enumerate(providers):
            if index:
                self.metrics.inc("rpc_failover", agent=provider, action=action)
            try:
                result = yield from self.call(provider, action, content, policy=policy)
                return result
            except ServiceError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def reply_to(
        self,
        original: Message,
        performative: Performative,
        content: dict[str, Any] | None = None,
        size: float = 1_000.0,
    ) -> None:
        self.send(original.reply(performative, content, size), cause=original)

    # -- receiving -------------------------------------------------------------- #
    def _serve(self):
        while True:
            message: Message = yield self.mailbox.receive()
            if not self.alive:
                continue  # crashed agents drop traffic silently
            if (
                message.conversation in self._reply_waiters
                and message.performative in self._REPLY_PERFORMATIVES
            ):
                self._reply_waiters.pop(message.conversation).fire(message)
                continue
            if message.performative in self._HANDLED_PERFORMATIVES:
                self.engine.spawn(
                    self._scoped(self._run_handler(message), message),
                    name=f"{self.name}.{message.action}",
                )
            else:
                self.on_unhandled(message)

    def _scoped(self, gen: Generator, cause: Message | None) -> Generator:
        """Drive *gen* with :attr:`_current_cause` set to *cause* around
        every step, so messages it sends are causally linked.  Execution
        is cooperative and single-threaded, so save/restore around each
        ``send`` cannot race with other handlers."""
        value = None
        while True:
            previous = self._current_cause
            self._current_cause = cause
            try:
                yielded = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._current_cause = previous
            value = yield yielded

    def spawn_scoped(self, gen: Generator, name: str | None = None):
        """Spawn a process that inherits the current causal scope (e.g. the
        concurrent branches of a Fork stay inside their request's trace)."""
        return self.engine.spawn(
            self._scoped(gen, self._current_cause),
            name=name or f"{self.name}.proc",
        )

    def _run_handler(self, message: Message):
        handler_name = _handler_names.get(message.action)
        if handler_name is None:
            handler_name = _handler_names[message.action] = (
                "handle_" + message.action.replace("-", "_")
            )
        handler = getattr(self, handler_name, None)
        if handler is None:
            self.reply_to(
                message,
                Performative.REFUSE,
                {"error": f"{self.name} does not provide {message.action!r}"},
            )
            return
        self.metrics.inc("requests_handled", agent=self.name, action=message.action)
        if self.service_delay:
            yield self.service_delay
        try:
            gen = handler(message)
            result = (yield from gen) if isinstance(gen, GeneratorType) else gen
        except ServiceError as exc:
            self.reply_to(message, Performative.FAILURE, {"error": str(exc)})
            return
        self.reply_to(message, Performative.INFORM, dict(result or {}))

    def on_unhandled(self, message: Message) -> None:
        """Hook for non-request traffic outside any RPC conversation."""

    # -- lifecycle -------------------------------------------------------------- #
    def crash(self) -> None:
        """Stop handling traffic (failure injection)."""
        self.alive = False

    def restart(self) -> None:
        self.alive = True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}@{self.site})"
