"""Application containers hosting end-user services.

"Every end-user activity corresponds to an end-user computing service ...
Such activities run under the control of Application Containers" (§3.1).
An :class:`ApplicationContainer` is an agent bound to a
:class:`~repro.grid.node.GridNode`; it accepts ``execute-activity``
requests from the coordination service, runs the named end-user service
(taking simulated time proportional to the service's work and the node's
speed), and returns the output data properties.

End-user services are :class:`EndUserService` definitions: either static
effects (symbolic postconditions, like the planner's ActivitySpec) or a
*compute* callable producing real outputs — the virolab case study plugs
its numpy reconstruction programs in through this hook.

Failure injection: a :class:`~repro.sim.failures.BernoulliFailures` oracle
makes individual invocations fail (FAILURE reply), and :meth:`Agent.crash`
silences the container entirely (callers time out) — the two failure modes
the re-planning experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.errors import GridError, ServiceError
from repro.grid.agent import Agent
from repro.grid.messages import Message
from repro.grid.node import GridNode
from repro.grid.transfer import TransferSpec, execute_plan, plan_transfer
from repro.process.conditions import TRUE, Condition, compile_condition
from repro.sim.failures import BernoulliFailures

__all__ = ["EndUserService", "ApplicationContainer"]

#: compute(input_props, input_payloads) -> (output_props, output_payloads)
ComputeFn = Callable[
    [dict[str, dict], dict[str, Any]],
    tuple[dict[str, dict], dict[str, Any]],
]


@dataclass
class EndUserService:
    """Definition of one end-user computing service.

    *work* is in abstract work units (node speed divides it into seconds).
    *effects* gives static output-data properties; *compute* (optional)
    produces real outputs from real inputs and wins over *effects*.
    *input_condition* guards execution — the Figure-13 ``Input Condition``
    slot (C1..C8) — evaluated over the input data properties.

    *checkpointable* services execute in *checkpoint_chunks* equal slices
    and persist their progress to storage after each slice (Section 1:
    "Some of the computational tasks are long lasting and require
    checkpointing").  A retry of a failed checkpointable activity — on the
    same or a different container — resumes from the last completed slice
    instead of restarting; per-slice failure checks model crashes striking
    mid-computation.
    """

    name: str
    work: float = 10.0
    effects: dict[str, dict] = field(default_factory=dict)
    compute: ComputeFn | None = None
    input_condition: Condition = TRUE
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cost: float = 1.0
    checkpointable: bool = False
    checkpoint_chunks: int = 5

    def __post_init__(self) -> None:
        if self.work < 0:
            raise GridError(f"negative work for service {self.name!r}")
        if self.checkpoint_chunks < 1:
            raise GridError(
                f"service {self.name!r}: checkpoint_chunks must be >= 1"
            )
        if not self.outputs:
            self.outputs = tuple(self.effects)
        self._check_input = compile_condition(self.input_condition)

    def run(
        self, props: dict[str, dict], payloads: dict[str, Any]
    ) -> tuple[dict[str, dict], dict[str, Any]]:
        if self.compute is not None:
            return self.compute(props, payloads)
        return {k: dict(v) for k, v in self.effects.items()}, {}


class _PropsView:
    """Adapter so conditions can evaluate over a plain props dict."""

    __slots__ = ("_props",)

    def __init__(self, props: dict[str, dict]) -> None:
        self._props = props

    def lookup(self, data_name: str, prop: str) -> Any:
        return self._props[data_name][prop]

    def peek(self, data_name: str, prop: str) -> Any:
        from repro.process.conditions import MISSING

        item = self._props.get(data_name)
        if item is None:
            return MISSING
        return item.get(prop, MISSING)


class ApplicationContainer(Agent):
    """An agent hosting end-user services on a grid node."""

    #: Agent name of the authentication service (for ticket validation).
    auth_name = "authentication"

    def __init__(
        self,
        env: "GridEnvironment",  # noqa: F821
        name: str,
        node: GridNode,
        services: dict[str, EndUserService] | None = None,
        failures: BernoulliFailures | None = None,
        require_auth: bool = False,
    ) -> None:
        super().__init__(env, name, node.site)
        self.node = node
        self.services: dict[str, EndUserService] = dict(services or {})
        self.failures = failures
        self.require_auth = require_auth

    def host(self, service: EndUserService) -> None:
        if service.name in self.services:
            raise GridError(
                f"container {self.name!r} already hosts {service.name!r}"
            )
        self.services[service.name] = service

    @property
    def hosted(self) -> tuple[str, ...]:
        return tuple(sorted(self.services))

    # -- protocol handlers ---------------------------------------------------- #
    def handle_can_execute(self, message: Message):
        """Availability probe (Figure-3 steps 6-7 of the re-planning flow)."""
        service = message.content.get("service", "")
        executable = service in self.services and self.node.up and self.alive
        return {"service": service, "executable": executable}

    def handle_hosted_services(self, message: Message):
        return {"services": list(self.hosted)}

    def _run_checkpointed(
        self,
        service: EndUserService,
        service_name: str,
        checkpoint_key: str,
    ):
        """Execute *service* in checkpointed slices, resuming prior progress.

        Raises :class:`ServiceError` on a mid-slice failure; completed
        slices stay recorded in storage, so the coordinator's retry (on any
        container) pays only for the remaining work.
        """
        chunks = service.checkpoint_chunks
        done = 0
        try:
            record = yield from self.call(
                self.env.storage_name, "retrieve", {"key": checkpoint_key}
            )
            done = int(record["payload"].get("chunks_done", 0))
        except ServiceError:
            done = 0
        done = max(0, min(done, chunks))
        slice_duration = self.node.duration(service.work) / chunks
        for index in range(done, chunks):
            yield slice_duration
            if self.failures is not None and self.failures.should_fail_fraction(
                self.name, 1.0 / chunks, self.engine.now
            ):
                self.metrics.inc(
                    "activities_failed", agent=self.name, action=service_name
                )
                raise ServiceError(
                    f"service {service_name!r} on {self.name} failed at "
                    f"checkpoint {index + 1}/{chunks}"
                )
            yield from self.call(
                self.env.storage_name,
                "store",
                {
                    "key": checkpoint_key,
                    "payload": {
                        "chunks_done": index + 1,
                        "chunks": chunks,
                        "service": service_name,
                        "container": self.name,
                    },
                },
            )

    def handle_execute_activity(self, message: Message):
        """Run one end-user activity.

        Content: ``activity`` (name, for the span), ``service``, ``inputs``
        (data name -> properties), optionally ``payload_keys`` (data name
        -> persistent-storage key for real input payloads).
        """
        content = message.content
        service_name = content.get("service", "")
        service = self.services.get(service_name)
        if service is None:
            raise ServiceError(
                f"container {self.name} does not host service {service_name!r}"
            )
        if not self.node.up:
            raise ServiceError(f"node {self.node.name} is down")

        if self.require_auth:
            # Non-cooperative environments (Section 1): this container only
            # executes for principals holding a valid ticket.
            ticket = content.get("ticket")
            if not ticket:
                raise ServiceError(
                    f"container {self.name} requires an authentication ticket"
                )
            verdict = yield from self.call(
                self.auth_name, "validate", {"ticket": ticket}
            )
            if not verdict.get("valid"):
                raise ServiceError(
                    f"container {self.name} rejected ticket: "
                    f"{verdict.get('error', 'invalid')}"
                )

        # The execute span opens once the request is admitted; it carries
        # the case trace, so the journal files its events under the case.
        with self.env.spans.span(
            content.get("activity", service_name),
            "execute",
            agent=self.name,
            trace_id=message.trace_id,
            service=service_name,
            node=self.node.name,
            container=self.name,
            inputs=sorted(content.get("inputs", {})),
        ) as span:
            return (yield from self._execute_activity(content, service, span))

    def _execute_activity(self, content: dict, service: EndUserService, span):
        spans = self.env.spans
        service_name = content.get("service", "")
        activity = content.get("activity", service_name)

        # Formal/actual parameter binding (Figure 13's Input/Output Data
        # Order): when the request carries ordered actual data names and
        # the service declares formal ones of the same arity, inputs are
        # renamed actual->formal before the run and outputs formal->actual
        # after it.  Without orders, names pass through unchanged (the
        # synthetic-services case, where formal == actual).
        input_order: list[str] = list(content.get("input_order", ()))
        rename_in: dict[str, str] = {}
        if service.inputs and len(service.inputs) == len(input_order):
            rename_in = dict(zip(input_order, service.inputs))

        actual_props: dict[str, dict] = {
            k: dict(v) for k, v in content.get("inputs", {}).items()
        }
        # The input condition (Figure 13's C1..C8) is written over the
        # case's actual data names, so check before the formal rename.
        if not service._check_input(_PropsView(actual_props)):
            raise ServiceError(
                f"input condition of service {service_name!r} not met"
            )
        props = {rename_in.get(k, k): v for k, v in actual_props.items()}

        # Fetch real payloads from persistent storage, if referenced.
        # Payloads carrying format metadata may need migration
        # transformations (decompression, decryption, byte swapping —
        # Section 1); the resulting CPU time is spent here, on this node.
        payloads: dict[str, Any] = {}
        for data_name, key in content.get("payload_keys", {}).items():
            with spans.span(
                data_name, "payload", agent=self.name, parent=span,
                key=key, direction="fetch", node=self.node.name,
            ):
                result = yield from self.call(
                    self.env.storage_name, "retrieve", {"key": key}
                )
            fmt = (result.get("meta") or {}).get("format")
            if fmt:
                spec = TransferSpec(
                    size=float(fmt.get("size", 0.0)),
                    byte_order=fmt.get("byte_order", "little"),
                    compressed=bool(fmt.get("compressed", False)),
                    encrypted=bool(fmt.get("encrypted", False)),
                )
                plan = plan_transfer(
                    spec, dest_byte_order=self.node.hardware.byte_order
                )
                _, _, dest_seconds = execute_plan(
                    plan,
                    dest_speed=self.node.hardware.speed,
                    metrics=self.metrics,
                    component=self.name,
                )
                # With no destination-side work the migration costs 0 s:
                # the span (and its journal event) still opens, and closes
                # at once.
                with spans.span(
                    data_name, "transfer", agent=self.name,
                    parent=span, key=key, direction="migrate",
                    node=self.node.name,
                    steps=[s.kind for s in plan.steps],
                    wire_bytes=plan.wire_size,
                ):
                    if dest_seconds > 0:
                        yield dest_seconds
            payloads[rename_in.get(data_name, data_name)] = result["payload"]

        checkpoint_key = content.get("checkpoint_key")
        use_checkpoints = bool(service.checkpointable and checkpoint_key)

        slots = self.node.slots
        with spans.span(
            self.node.name, "slot-wait", agent=self.name, parent=span,
            in_use=slots.in_use, queued=slots.queued,
        ):
            grant = yield slots.acquire()
        with spans.span(
            service_name, "compute", agent=self.name, parent=span,
            work=service.work, checkpointed=use_checkpoints,
        ):
            try:
                if use_checkpoints:
                    yield from self._run_checkpointed(
                        service, service_name, checkpoint_key
                    )
                else:
                    yield self.node.duration(service.work)
                    if self.failures is not None and self.failures.should_fail(
                        self.name, self.engine.now
                    ):
                        self.metrics.inc(
                            "activities_failed", agent=self.name, action=service_name
                        )
                        raise ServiceError(
                            f"service {service_name!r} on {self.name} failed"
                        )
                try:
                    out_props, out_payloads = service.run(props, payloads)
                except ServiceError:
                    raise
                except Exception as exc:
                    # A fault in the service's own code fails this activity
                    # alone; left to propagate it would abort the whole run.
                    self.metrics.inc(
                        "activities_failed", agent=self.name, action=service_name
                    )
                    raise ServiceError(
                        f"service {service_name!r} on {self.name} raised "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            finally:
                slots.release(grant)

        if use_checkpoints:
            # The activity completed: retire its checkpoint record.
            yield from self.call(
                self.env.storage_name, "delete", {"key": checkpoint_key}
            )

        output_order: list[str] = list(content.get("output_order", ()))
        if service.outputs and len(service.outputs) == len(output_order):
            rename_out = dict(zip(service.outputs, output_order))
            out_props = {rename_out.get(k, k): v for k, v in out_props.items()}
            out_payloads = {
                rename_out.get(k, k): v for k, v in out_payloads.items()
            }

        payload_keys: dict[str, str] = {}
        for data_name, payload in out_payloads.items():
            key = f"{self.name}/{activity}/{data_name}/{self.engine.now:.6f}"
            with spans.span(
                data_name, "payload", agent=self.name, parent=span,
                key=key, direction="store", node=self.node.name,
            ):
                yield from self.call(
                    self.env.storage_name,
                    "store",
                    {"key": key, "payload": payload},
                )
            payload_keys[data_name] = key

        self.metrics.inc(
            "activities_completed", agent=self.name, action=service_name
        )
        self.metrics.observe(
            "activity_duration",
            self.node.duration(service.work),
            agent=self.name,
            action=service_name,
        )
        return {
            "activity": activity,
            "service": service_name,
            "outputs": out_props,
            "payload_keys": payload_keys,
            "container": self.name,
            "duration": self.node.duration(service.work),
        }
