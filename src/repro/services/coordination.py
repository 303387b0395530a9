"""Coordination service: the abstract ATN machine.

"Coordination services act as proxies for the end-user.  A coordination
service receives a case description and controls the enactment of the
workflow ...  The coordination service implements an abstract ATN
machine."  (Section 2)

Enactment walks the process description's recovered AST (the graph is
converted on receipt — which doubles as a well-structuredness check):

* end-user activities are dispatched through matchmaking -> scheduling ->
  the chosen application container, with bounded retries and performance
  reporting back to the brokerage;
* Fork/Join branches run as genuinely concurrent simulation processes;
* Choice conditions and Iterative stopping conditions are evaluated over
  the live *case data* (the data items produced so far and their
  properties — exactly the Figure-13 constraint semantics, e.g. Cons1
  looping until the resolution value is good enough);
* when an activity exhausts its retries, the coordinator triggers
  re-planning (Figure 3), resumes with the new process description, and
  carries all data produced so far into the new plan's enactment.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Generator
from typing import Any

from repro.analysis import Severity, analyze_process
from repro.errors import ConversionError, EnactmentError, ServiceError
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message, Performative
from repro.obs.spans import NO_SPAN, Span
from repro.plan.convert import plan_activity_name
from repro.planner.problem import PlanningProblem
from repro.process.ast_nodes import (
    ActivityNode,
    ChoiceNode,
    ForkNode,
    IterativeNode,
    Node,
    SequenceNode,
)
from repro.process.conditions import MISSING
from repro.process.model import ProcessDescription
from repro.process.program import ActivityStep, EnactmentProgram, process_fingerprint
from repro.services.base import CoreService, WELL_KNOWN

__all__ = ["CoordinationService", "EnactmentRecord"]

#: Compiled enactment programs (and intake analyses) kept per coordinator,
#: LRU by process fingerprint.
PROGRAM_CACHE_SIZE = 64


class _ActivityFailed(ServiceError):
    """Internal: an end-user activity exhausted its retries."""

    def __init__(self, activity: str, reason: str) -> None:
        super().__init__(f"activity {activity!r} failed: {reason}")
        self.activity = activity


class _CaseData:
    """Live case data: data name -> properties, plus payload locations.

    Implements the condition-evaluation protocol (lookup/peek) so Choice
    guards and iterative stopping conditions read it directly.  Mutation
    is monotone merge, matching the planner's state algebra.
    """

    def __init__(self, initial: dict[str, dict] | None = None) -> None:
        self.props: dict[str, dict] = {k: dict(v) for k, v in (initial or {}).items()}
        self.payload_keys: dict[str, str] = {}

    def lookup(self, data_name: str, prop: str) -> Any:
        return self.props[data_name][prop]

    def peek(self, data_name: str, prop: str) -> Any:
        item = self.props.get(data_name)
        if item is None:
            return MISSING
        return item.get(prop, MISSING)

    def merge(self, outputs: dict[str, dict], payload_keys: dict[str, str]) -> None:
        for name, props in outputs.items():
            self.props.setdefault(name, {}).update(props)
        self.payload_keys.update(payload_keys)

    def snapshot(self) -> dict[str, dict]:
        return {k: dict(v) for k, v in self.props.items()}


@dataclass
class EnactmentRecord:
    """One enactment as ``task-status`` serves it.  A recorded case ends
    ``completed`` or ``failed``; its history lives in the case's spans,
    journal and message trace, not here."""

    task: str
    activities_run: int = 0
    replans: int = 0
    completed: bool = False
    failed: bool = False
    #: Final case data, set on completion — kept so intermittently
    #: connected users can poll for results after reconnecting.
    result: dict[str, dict] | None = None


class CoordinationService(CoreService):
    service_type = "coordination"

    matchmaker_name = WELL_KNOWN["matchmaking"]
    scheduler_name = WELL_KNOWN["scheduling"]
    broker_name = WELL_KNOWN["brokerage"]
    planner_name = WELL_KNOWN["planning"]

    #: Retries per activity before declaring it failed (Figure-12 Activity
    #: frames carry a Retry Count slot).
    retry_limit = 2
    #: RPC timeout for container executions (crashed containers are silent).
    activity_timeout = 3_600.0
    #: Safety bound on iterative loops whose condition never goes false.
    max_loop_iterations = 25
    #: Re-planning rounds before giving up on a case.
    max_replans = 3
    #: Knowledge base for intake-time service resolvability (E501/W502);
    #: None skips that pass.
    knowledge_base = None
    #: Error codes tolerated at intake: E202 (overlapping Choice guards)
    #: is an error for a process *author* — branch uniqueness is broken —
    #: but this machine resolves it deterministically by first-match, so
    #: enactment proceeds (the finding still rides in the reply).
    #: E612 (a guard-coverage gap inside a fork branch) likewise: this
    #: coordinator falls through to the last arm when no guard holds, so
    #: the join cannot actually starve here.
    tolerated_findings = frozenset({"E202", "E612"})

    #: Name of the authentication service used when credentials are set.
    auth_name = WELL_KNOWN["authentication"]

    def __init__(
        self,
        env: GridEnvironment,
        name: str | None = None,
        site: str = "core",
        credentials: tuple[str, str] | None = None,
    ) -> None:
        super().__init__(env, name, site)
        #: task name -> its newest case's record (``task-status`` reads it).
        self.records: dict[str, EnactmentRecord] = {}
        #: (principal, secret) for secured containers; None = unsecured grid.
        self.credentials = credentials
        self._ticket: str | None = None
        self._ticket_expires = 0.0
        self._programs: OrderedDict[Any, EnactmentProgram] = OrderedDict()
        #: (process fingerprint, initial-data keys) -> intake findings.
        #: Analysis is pure and synchronous (no messages), so sharing one
        #: result across the N cases of a workflow is trace-safe; follows
        #: the program cache's size and LRU policy.
        self._analysis_cache: OrderedDict[Any, list] = OrderedDict()

    def _candidates_for(self, service: str, span: Span):
        """Ranked candidate containers for *service* (generator): the
        matchmaker RPC, behind the read-through cache (key
        ``("match", service)``)."""

        def fetch(_):  # asked only for [service]
            with self.env.spans.span("match", "match", agent=self.name, parent=span):
                match = yield from self.call(
                    self.matchmaker_name, "match", {"service": service}
                )
            return {service: [c["container"] for c in match["candidates"]]}

        found = yield from self.cached(
            "coord_match_cache", ("match",), [service], fetch
        )
        return list(found[service])

    def _analyze(self, process: ProcessDescription, initial: set | None):
        """Intake findings for *process* (cached per fingerprint +
        initial-data keys; N cases of one workflow analyze once)."""
        key = (
            process_fingerprint(process),
            frozenset(initial) if initial else None,
        )
        cached = self._analysis_cache.get(key)
        if cached is not None:
            self._analysis_cache.move_to_end(key)
            self.metrics.inc("analysis_cache_hit", agent=self.name)
            return cached
        findings = analyze_process(
            process, kb=self.knowledge_base, initial_data=initial
        )
        self.metrics.inc("analysis_cache_miss", agent=self.name)
        self._analysis_cache[key] = findings
        while len(self._analysis_cache) > PROGRAM_CACHE_SIZE:
            self._analysis_cache.popitem(last=False)
        return findings

    def _report_performance(
        self, service: str, container: str, duration: float, success: bool
    ) -> None:
        """Report an activity outcome to the broker as a one-way INFORM.
        Nothing waits on it: the broker books it in its serve loop, and a
        lost report costs one sample of metainformation that Section 2
        already allows to be obsolete, never the case itself."""
        self.send(
            Message(
                sender=self.name,
                receiver=self.broker_name,
                performative=Performative.INFORM,
                action="record-performance",
                content={
                    "service": service,
                    "container": container,
                    "duration": duration,
                    "success": success,
                },
                size=1_000.0,
            )
        )

    def _program_for(self, process: ProcessDescription) -> EnactmentProgram:
        """Compile *process* (or fetch the shared compilation): N cases of
        one workflow share a single program.  Raises ConversionError for
        non-well-structured graphs, exactly like ``process_to_ast``."""
        key = process_fingerprint(process)
        program = self._programs.get(key)
        if program is not None:
            self._programs.move_to_end(key)
            self.metrics.inc("program_cache_hit", agent=self.name)
            return program
        program = EnactmentProgram(process)
        self.metrics.inc("program_cache_miss", agent=self.name)
        self._programs[key] = program
        while len(self._programs) > PROGRAM_CACHE_SIZE:
            self._programs.popitem(last=False)
        return program

    def _ensure_ticket(self):
        """Obtain (and cache) an authentication ticket for dispatching to
        secured containers.  Generator; returns the token or None when the
        coordinator has no credentials configured."""
        if self.credentials is None:
            return None
        if self._ticket is not None and self.engine.now < self._ticket_expires:
            return self._ticket
        principal, secret = self.credentials
        reply = yield from self.call(
            self.auth_name,
            "authenticate",
            {"principal": principal, "secret": secret},
        )
        self._ticket = reply["ticket"]
        # Renew a minute before expiry to avoid in-flight rejection.
        self._ticket_expires = float(reply["expires_at"]) - 60.0
        return self._ticket

    # -- message API ----------------------------------------------------------------- #
    def handle_execute_task(self, message: Message):
        """Enact a case over a process description.

        Content:

        * ``process`` — a ProcessDescription (must be well-structured);
        * ``initial_data`` — data name -> properties (the case's initial
          data set with their specifications);
        * optional ``payload_keys`` — data name -> storage key of real
          payloads;
        * optional ``problem`` — the PlanningProblem, enabling re-planning;
        * optional ``task`` — display name;
        * optional ``work`` — service name -> work units (scheduling hint).

        Reply: ``status``, the final ``data`` properties,
        ``payload_keys``, ``activities_run`` and ``replans``, plus the
        intake ``findings`` when there are any.  What happened along the
        way is in the case's spans, journal and message trace.
        """
        content = message.content
        process = content.get("process")
        # The case span's start files the journal's case-intake and binds
        # the case trace, so every downstream span (containers and
        # transfers only see the trace id) lands in this case.
        with self.env.spans.span(
            content.get("task", ""), "case",
            agent=self.name, trace_id=message.trace_id,
            case=self._journal_case_id(content, message.trace_id),
            process=process.name if process is not None else None,
            initial=sorted(content.get("initial_data") or ()),
            payload_keys=sorted(content.get("payload_keys") or ()),
        ) as case_span:
            try:
                return (yield from self._execute_task(content, case_span))
            except ServiceError as exc:
                case_span.set(error=str(exc))
                raise

    @staticmethod
    def _journal_case_id(content: dict[str, Any], trace_id) -> str:
        """Stable journal/provenance identity for a case request."""
        task = content.get("task")
        if task:
            return str(task)
        process = content.get("process")
        if process is not None:
            return process.name
        problem = content.get("problem")
        if problem is not None:
            return problem.name
        return f"case@{trace_id}"

    def _execute_task(
        self,
        content: dict[str, Any],
        case_span: Span,
    ) -> Generator[Any, Any, dict[str, Any]]:
        spans = self.env.spans
        process: ProcessDescription | None = content.get("process")
        findings = []
        if process is not None:
            # Semantic intake gate: user-supplied processes are analyzed
            # before any enactment work; error findings (minus the
            # tolerated set) refuse the case with a diagnostic reply.
            # Planner-produced processes skip this — imperfect plans are
            # the re-planning loop's job, not intake's.
            initial = content.get("initial_data")
            findings = self._analyze(
                process, set(initial) if initial else None
            )
            refused = [
                f
                for f in findings
                if f.severity is Severity.ERROR
                and f.code not in self.tolerated_findings
            ]
            if refused:
                self.metrics.inc("cases_refused", agent=self.name)
                # Instant span: the refusal is zero sim-time.
                spans.instant(
                    process.name, "refusal", agent=self.name,
                    parent=case_span, reason="semantic-analysis",
                    findings=[str(f) for f in refused],
                )
                raise ServiceError(
                    f"case {content.get('task', process.name)!r} refused: "
                    f"process {process.name!r} failed semantic analysis: "
                    + "; ".join(str(f) for f in refused)
                )
        plan_source: str | None = None
        if process is None:
            # No process description supplied (the Task's "Need Planning"
            # flag): obtain one from the planning service first — the
            # Figure-2 exchange.
            problem_for_plan: PlanningProblem = content["problem"]
            with spans.span(
                "plan", "plan", agent=self.name, parent=case_span
            ) as plan_span:
                reply = yield from self.call(
                    self.planner_name, "plan", {"problem": problem_for_plan}
                )
                plan_span.set(
                    source=reply.get("source") or "gp",
                    process=reply["process"].name,
                    solved=reply.get("solved"),
                    fitness=reply.get("fitness"),
                )
            process = reply["process"]
            plan_source = reply.get("source")
            if plan_source in ("hit", "repair") and not reply.get("verified"):
                # A plan-library plan may only skip GP when the planning
                # service re-verified it against the current registry in
                # *this* exchange — a stale plan is never enacted blind.
                self.metrics.inc("cases_refused", agent=self.name)
                spans.instant(
                    process.name, "refusal", agent=self.name,
                    parent=case_span, reason="unverified-library-plan",
                    source=plan_source, process=process.name,
                )
                raise ServiceError(
                    f"case {content.get('task', process.name)!r} refused: "
                    f"library {plan_source} for {process.name!r} was not "
                    "re-verified by the analyzer"
                )
        case = _CaseData(content.get("initial_data"))
        case.payload_keys.update(content.get("payload_keys", {}))
        problem: PlanningProblem | None = content.get("problem")
        record = EnactmentRecord(task=content.get("task", process.name))
        case_span.rename(record.task)
        self.records[record.task] = record
        if plan_source is not None:
            case_span.set(plan_source=plan_source)
        work: dict[str, float] = dict(content.get("work", {}))

        failed_activities: list[str] = []
        current = process
        try:
            while True:
                with spans.span(
                    current.name, "compile", agent=self.name, parent=case_span
                ) as compile_span:
                    try:
                        program = self._program_for(current)
                    except ConversionError as exc:
                        compile_span.set(error=str(exc))
                        raise ServiceError(
                            f"process {current.name!r} is not well-structured: {exc}"
                        ) from exc
                    compile_span.set(**program.stats())
                try:
                    with spans.span(
                        current.name, "enact", agent=self.name, parent=case_span
                    ) as enact_span:
                        try:
                            yield from self._enact(
                                program.ast, program, case, record, work, enact_span
                            )
                        except _ActivityFailed as failure:
                            enact_span.set(failed=failure.activity)
                            raise
                    break
                except _ActivityFailed as failure:
                    if problem is None or record.replans >= self.max_replans:
                        raise ServiceError(
                            f"enactment of {record.task!r} failed at activity "
                            f"{failure.activity!r} and cannot re-plan"
                        ) from failure
                    failed_activities.append(
                        plan_activity_name(failure.activity, problem.activities)
                    )
                    record.replans += 1
                    self.metrics.inc("replans", agent=self.name)
                    excluded = sorted(set(failed_activities))
                    with spans.span(
                        "replan", "replan", agent=self.name, parent=case_span,
                        round=record.replans, excluded=excluded,
                        aborted=failure.activity,
                    ):
                        reply = yield from self.call(
                            self.planner_name,
                            "replan",
                            {
                                "problem": problem,
                                "data": case.snapshot(),
                                "failed_activities": excluded,
                            },
                        )
                    current = reply["process"]
        except ServiceError:
            # The one place a recorded case fails, whatever ended it: no
            # re-plan left, a refused ticket, a Fork-branch error, a
            # failed replan RPC or a replanned process that is not
            # well-structured.  task-status then answers failed.
            record.failed = True
            self.metrics.inc("enactments_failed", agent=self.name)
            raise
        record.completed = True
        self.metrics.inc("enactments_completed", agent=self.name)
        record.result = case.snapshot()
        case_span.set(activities_run=record.activities_run, replans=record.replans)
        reply = {
            "status": "completed",
            "data": case.snapshot(),
            "payload_keys": dict(case.payload_keys),
            "activities_run": record.activities_run,
            "replans": record.replans,
        }
        if findings:
            reply["findings"] = [f.to_dict() for f in findings]
        return reply

    def handle_task_status(self, message: Message):
        """Poll a task's progress/result by name.

        This is how intermittently connected users (Section 2) retrieve
        outcomes: the coordinator acts as their proxy and holds results
        until they reconnect and ask.
        """
        record = self.records.get(message.content["task"])
        if record is None:
            return {"known": False, "completed": False, "failed": False}
        reply = {
            "known": True,
            "completed": record.completed,
            "failed": record.failed,
            "activities_run": record.activities_run,
            "replans": record.replans,
        }
        if record.completed and record.result is not None:
            reply["data"] = record.result
        return reply

    # -- the ATN machine ----------------------------------------------------------- #
    def _enact(
        self,
        node: Node,
        program: EnactmentProgram,
        case: _CaseData,
        record: EnactmentRecord,
        work: dict[str, float],
        span: Span = NO_SPAN,
    ) -> Generator[Any, Any, None]:
        if isinstance(node, ActivityNode):
            yield from self._run_activity(
                program.step(node.name), case, record, work, span
            )
            return
        if isinstance(node, SequenceNode):
            for child in node.children:
                yield from self._enact(child, program, case, record, work, span)
            return
        if isinstance(node, ForkNode):
            yield from self._run_fork(node, program, case, record, work, span)
            return
        if isinstance(node, ChoiceNode):
            branch = self._choose(node, program, case, span)
            yield from self._enact(branch, program, case, record, work, span)
            return
        if isinstance(node, IterativeNode):
            with self.env.spans.span(
                "iterative", "loop", agent=self.name, parent=span
            ) as loop_span:
                holds = program.check(node)
                iterations = 0
                try:
                    while True:
                        yield from self._enact(
                            node.body, program, case, record, work, loop_span
                        )
                        iterations += 1
                        if not holds(case):
                            break
                        if iterations >= self.max_loop_iterations:
                            loop_span.set(bounded=True)
                            break
                finally:
                    loop_span.set(iterations=iterations)
            return
        raise EnactmentError(f"unknown AST node {type(node).__name__}")

    def _choose(
        self,
        node: ChoiceNode,
        program: EnactmentProgram,
        case: _CaseData,
        span: Span = NO_SPAN,
    ) -> Node:
        """First branch whose condition holds (Section 3.1's Choice)."""
        spans = self.env.spans
        for index, (holds, condition, branch) in enumerate(program.branches(node)):
            if holds(case):
                # Instant span: condition evaluation is zero sim-time.
                spans.instant(
                    "choice", "choice", agent=self.name, parent=span,
                    branch=index, condition=str(condition),
                )
                return branch
        # No condition holds: the paper leaves this undefined; taking the
        # last branch (conventionally the default/else arm) keeps the
        # machine live and is recorded on the choice span.
        spans.instant(
            "choice", "choice", agent=self.name, parent=span,
            branch=len(node.branches) - 1, condition="default",
        )
        return node.branches[-1][1]

    def _run_fork(
        self,
        node: ForkNode,
        program: EnactmentProgram,
        case: _CaseData,
        record: EnactmentRecord,
        work: dict[str, float],
        span: Span = NO_SPAN,
    ) -> Generator[Any, Any, None]:
        with self.env.spans.span(
            "fork", "fork", agent=self.name, parent=span,
            branches=len(node.branches),
        ) as fork_span:

            def wrap(branch: Node):
                # A branch hands its failure to the join rather than
                # raising it: an exception escaping a spawned process
                # would abort the whole run, not just this case.
                try:
                    yield from self._enact(
                        branch, program, case, record, work, fork_span
                    )
                except ServiceError as exc:
                    return exc
                return None

            # spawn_scoped (not engine.spawn) so every branch stays inside
            # the requesting message's causal trace — the fork's concurrent
            # calls reconstruct as siblings under the execute-task request.
            handles = [
                self.spawn_scoped(wrap(branch), name=f"{self.name}.branch{i}")
                for i, branch in enumerate(node.branches)
            ]
            failures = []
            for handle in handles:
                failure = yield handle
                if failure is not None:
                    failures.append(failure)
            if failures:
                # The first failure in branch order: an activity failure
                # still triggers re-planning, any other error fails the case.
                raise failures[0]

    def _run_activity(
        self,
        step: ActivityStep,
        case: _CaseData,
        record: EnactmentRecord,
        work: dict[str, float],
        parent: Span = NO_SPAN,
    ) -> Generator[Any, Any, None]:
        name = step.name
        service = step.service
        spans = self.env.spans
        with spans.span(
            name, "activity", agent=self.name, parent=parent, service=service
        ) as activity_span:
            inputs = {
                d: dict(case.props[d]) for d in step.inputs if d in case.props
            }
            payload_keys = {
                d: case.payload_keys[d]
                for d in step.inputs
                if d in case.payload_keys
            }
            try:
                ticket = yield from self._ensure_ticket()
            except ServiceError as exc:
                activity_span.set(reason=str(exc))
                raise
            last_error = "no candidates"
            for attempt in range(self.retry_limit + 1):
                container: str | None = None
                try:
                    candidates = yield from self._candidates_for(
                        service, activity_span
                    )
                    if not candidates:
                        raise ServiceError(f"no container offers service {service!r}")
                    with spans.span(
                        "schedule", "schedule", agent=self.name,
                        parent=activity_span,
                    ):
                        schedule = yield from self.call(
                            self.scheduler_name,
                            "schedule",
                            {
                                "service": service,
                                "candidates": candidates,
                                "work": work.get(service, 10.0),
                            },
                        )
                    container = schedule["container"]
                    started = self.engine.now
                    with spans.span(
                        "execute-activity", "dispatch", agent=self.name,
                        parent=activity_span, container=container,
                        activity=name, service=service,
                        inputs=sorted(inputs), attempt=attempt,
                    ):
                        result = yield from self.call(
                            container,
                            "execute-activity",
                            {
                                "activity": name,
                                "service": service,
                                "inputs": inputs,
                                "payload_keys": payload_keys,
                                "input_order": step.input_order,
                                "output_order": step.output_order,
                                # Checkpointable services resume from here on
                                # retry (Section 1: long-lasting tasks need
                                # checkpointing).
                                "checkpoint_key": f"ckpt/{record.task}/{name}",
                                **({"ticket": ticket} if ticket else {}),
                            },
                            timeout=self.activity_timeout,
                        )
                    self._report_performance(
                        service, container, self.engine.now - started, True
                    )
                    case.merge(
                        result.get("outputs", {}), result.get("payload_keys", {})
                    )
                    record.activities_run += 1
                    activity_span.set(
                        container=container, retries=attempt,
                        outputs=sorted(result.get("outputs", {})),
                        payload_keys=dict(result.get("payload_keys", {})),
                    )
                    return
                except ServiceError as exc:
                    last_error = str(exc)
                    if container is not None:
                        self._report_performance(service, container, 0.0, False)
            activity_span.set(retries=self.retry_limit, reason=last_error)
            raise _ActivityFailed(name, last_error)
