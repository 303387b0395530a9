"""Planning service: ab-initio planning (Figure 2) and re-planning (Figure 3).

The planning service "accepts planning requests from the coordination
service", generates a valid process description with the GP planner of
Section 3.4, and returns it.  For re-planning it implements the paper's
second knowledge-acquisition method verbatim (Figure 3):

1. coordination sends the planning task and the non-executable activities;
2. planning asks the **information service** for a brokerage service;
3. information replies;
4. planning asks the **brokerage service** for application containers that
   can possibly provide each activity's execution;
5. brokerage replies;
6. planning asks each **application container** whether the activity is
   executable;
7. containers reply;
8. planning sends the new plan to coordination.

Activities with no executable container — plus those coordination already
reported failed (method one) — are removed from T before the GP runs, so
the new plan avoids them ("the planning service ... avoid[s] reusing in
the new plan those activities that prevent the previous plan from
successful execution").
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro._util import as_rng
from repro.analysis.analyzer import unresolvable_loci, verify_reusable
from repro.analysis.findings import Severity
from repro.errors import ServiceError
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message
from repro.ontology.builtin import SERVICE
from repro.ontology.frames import KnowledgeBase
from repro.ontology.query import Op, Query
from repro.plan.convert import plan_activity_name, tree_to_process
from repro.plan.tree import Controller, ControllerKind, PlanNode
from repro.planner.config import GPConfig
from repro.planner.engine import EvaluationEngine
from repro.planner.gp import GPPlanner
from repro.planner.library import (
    PlanEntry,
    PlanLibrary,
    goal_signature,
    problem_digest,
    substitution_map,
)
from repro.planner.problem import PlanningProblem
from repro.planner.repair import repair_plan, swap_terminals
from repro.planner.state import WorldState
from repro.process.conditions import TRUE, And, Condition, Not
from repro.process.model import Activity
from repro.services.base import CoreService, WELL_KNOWN

__all__ = ["PlanningService"]


def _scorer(problem: PlanningProblem, config: GPConfig) -> EvaluationEngine:
    """An evaluator scoring plans as the request's GP run does (its
    weights, Smax and simulation options; no static filter)."""
    return EvaluationEngine(problem, config.weights, config.smax, config.simulation)


class PlanningService(CoreService):
    service_type = "planning"

    information_name = WELL_KNOWN["information"]

    #: Timeout of each brokerage lookup during re-planning (replicated
    #: core service: time out, then fail over to the next).
    broker_timeout = 30.0
    #: Timeout of each availability probe against a possibly-crashed
    #: container (Figure-3 steps 6-7): silent peers must not hang the
    #: re-planning exchange.
    probe_timeout = 60.0

    def __init__(
        self,
        env: GridEnvironment,
        name: str | None = None,
        site: str = "core",
        config: GPConfig | None = None,
        rng: int | np.random.Generator | None = 0,
        repair_plans: bool = True,
        library: PlanLibrary | None = None,
        knowledge_base: KnowledgeBase | None = None,
    ) -> None:
        super().__init__(env, name, site)
        self.config = config or GPConfig()
        self.rng = as_rng(rng)
        #: Post-process evolved plans with the never-valid-terminal repair
        #: pass (see :mod:`repro.planner.repair`) before emitting them.
        self.repair_plans = repair_plans
        #: Warm-start plan repository (see :mod:`repro.planner.library`).
        #: The retrieve → verify → repair → seed ladder runs exactly when
        #: one is wired; without it every request is a plain GP run.
        self.library = library
        #: Current registry view for re-verifying retrieved plans.  Without
        #: it, library hits cannot be re-verified and are therefore *never
        #: enacted directly* — they demote to GP seeds.
        self.knowledge_base = knowledge_base
        self.plans_created = 0
        self.replans_created = 0

    # -- plan construction helpers ----------------------------------------------- #
    def _activity_library(self, problem: PlanningProblem) -> dict[str, Activity]:
        return {
            name: spec.as_activity() for name, spec in problem.activities.items()
        }

    def _condition_provider(self, problem: PlanningProblem):
        """Conditions for the emitted process description.

        Iterative nodes loop *until the goal holds* (re-try semantics);
        selective first branches get ``true`` (the planner has no basis to
        prefer either branch, and the coordinator takes the first branch
        whose condition holds).
        """
        goals = (
            problem.goals[0] if len(problem.goals) == 1 else And(problem.goals)
        )
        not_done = Not(goals)

        def provider(node: Controller) -> Condition:
            if node.kind is ControllerKind.ITERATIVE:
                return not_done
            return TRUE

        return provider

    def _run_planner(
        self,
        problem: PlanningProblem,
        config: GPConfig,
        trace_id: str | None = None,
        seeds: tuple[PlanNode, ...] = (),
    ) -> dict[str, Any]:
        # The GP run is synchronous (zero simulated time); the span records
        # it as an instant with *wall-clock* cost in its attributes — the
        # one place real time is the interesting number.
        with self.env.spans.span(
            problem.name, "gp", agent=self.name, trace_id=trace_id
        ) as span:
            wall_started = time.perf_counter()
            result = GPPlanner(config, rng=self.rng).plan(problem, seeds=seeds)
            if result.analysis_rejected:
                self.metrics.inc(
                    "analysis_rejected",
                    agent=self.name,
                    amount=result.analysis_rejected,
                )
            plan = result.best_plan
            fitness = result.best_fitness
            repaired_away: tuple[str, ...] = ()
            if self.repair_plans:
                repaired = repair_plan(plan, problem, _scorer(problem, config))
                plan, fitness = repaired.plan, repaired.fitness
                repaired_away = repaired.removed
            process = tree_to_process(
                plan,
                name=f"plan-{problem.name}",
                library=self._activity_library(problem),
                condition_provider=self._condition_provider(problem),
            )
            span.set(
                wall_s=time.perf_counter() - wall_started,
                generations=result.generations_run,
                fitness=fitness.overall,
                solved=fitness.validity == 1.0 and fitness.goal == 1.0,
            )
        return {
            "plan": plan,
            "process": process,
            "fitness": fitness.overall,
            "validity": fitness.validity,
            "goal": fitness.goal,
            "solved": fitness.validity == 1.0 and fitness.goal == 1.0,
            "generations": result.generations_run,
            "analysis_rejected": result.analysis_rejected,
            "repaired_away": list(repaired_away),
        }

    # -- plan library (warm starts) ----------------------------------------------- #
    def _resolvable_services(self, problem: PlanningProblem) -> list[str]:
        """Services of T with at least one Service instance registered."""
        kb = self.knowledge_base
        assert kb is not None
        resolvable: list[str] = []
        for name in sorted(problem.activities):
            service = problem.activities[name].service or name
            if Query(SERVICE).where("Name", Op.EQ, service).run(kb):
                resolvable.append(service)
        return resolvable

    def _verify_entry(self, entry: PlanEntry) -> tuple[bool, list]:
        """Analyzer re-verification of a retrieved plan against the current
        registry.  No knowledge base ⇒ unverifiable ⇒ not enactable."""
        assert self.library is not None
        self.library.count("verify")
        self.metrics.inc("planlib_verify", agent=self.name)
        if self.knowledge_base is None:
            return False, []
        # Resolvability (the registry may have rotted under the entry) plus
        # the concurrency pass (entries stored before the E6xx codes were
        # never screened; a racy shape is rejected, not repaired).
        findings = verify_reusable(entry.process, self.knowledge_base)
        clean = not any(f.severity is Severity.ERROR for f in findings)
        return clean, findings

    def _repair_entry(
        self,
        entry: PlanEntry,
        problem: PlanningProblem,
        config: GPConfig,
        findings: list,
    ) -> tuple[PlanEntry, tuple[tuple[str, str], ...]] | None:
        """Swap exactly the E501-flagged terminals for resolvable
        substitutes; None when any flagged activity has no viable swap."""
        if self.knowledge_base is None:
            return None
        flagged = sorted(
            {
                plan_activity_name(locus, problem.activities)
                for locus in unresolvable_loci(findings)
            }
        )
        if not flagged:
            return None
        mapping = substitution_map(
            problem, flagged, self._resolvable_services(problem)
        )
        if sorted(mapping) != flagged:
            return None
        plan, swapped = swap_terminals(entry.plan, mapping)
        process = tree_to_process(
            plan,
            name=f"plan-{problem.name}",
            library=self._activity_library(problem),
            condition_provider=self._condition_provider(problem),
        )
        after = verify_reusable(process, self.knowledge_base)
        if any(f.severity is Severity.ERROR for f in after):
            return None
        fitness = _scorer(problem, config)(plan)
        repaired = PlanEntry(
            digest=entry.digest,
            goal_sig=entry.goal_sig,
            plan=plan,
            process=process,
            fitness=fitness.overall,
            goals=entry.goals,
            validity=fitness.validity,
            goal=fitness.goal,
            problem_name=problem.name,
            stored_at=self.engine.now,
        )
        return repaired, swapped

    def _entry_reply(self, entry: PlanEntry, verified: bool) -> dict[str, Any]:
        """A planning reply shaped exactly like :meth:`_run_planner`'s."""
        return {
            "plan": entry.plan,
            "process": entry.process,
            "fitness": entry.fitness,
            "validity": entry.validity,
            "goal": entry.goal,
            "solved": entry.validity == 1.0 and entry.goal == 1.0,
            "generations": 0,
            "analysis_rejected": 0,
            "repaired_away": [],
            "verified": verified,
        }

    def _library_store(self, entry: PlanEntry) -> None:
        """Adopt an entry into the library (LRU-evicting past its cap)."""
        lib = self.library
        assert lib is not None
        lib.put(entry)
        lib.count("store")
        self.metrics.inc("planlib_store", agent=self.name)

    def _plan_with_library(
        self, problem: PlanningProblem, config: GPConfig, trace_id: str | None
    ) -> dict[str, Any]:
        """The retrieve → verify → repair → seed ladder.

        Exact hit: re-verified against the current registry, enacted
        directly (never blind — an unverifiable or stale entry demotes).
        Stale hit: E501-flagged terminals swapped locally, re-verified,
        re-stored.  Near-miss: retrieved plans seed the GP initial
        population.  Miss: full GP; the result is stored for next time.
        """
        lib = self.library
        assert lib is not None
        digest = problem_digest(problem)
        goal_sig = goal_signature(problem.goals)
        goal_texts = tuple(str(goal) for goal in problem.goals)
        with self.env.spans.span(
            problem.name, "library", agent=self.name, trace_id=trace_id
        ) as span:
            entry = lib.get(digest, goal_sig)
            source = "miss"
            reply: dict[str, Any] | None = None
            if entry is not None:
                clean, findings = self._verify_entry(entry)
                if clean:
                    source = "hit"
                    reply = self._entry_reply(entry, verified=True)
                else:
                    repaired = self._repair_entry(entry, problem, config, findings)
                    if repaired is not None:
                        fixed, swapped = repaired
                        self._library_store(fixed)
                        source = "repair"
                        reply = self._entry_reply(fixed, verified=True)
                        reply["swapped"] = [list(pair) for pair in swapped]
                    else:
                        # Stale and irreparable: drop it so the fresh plan
                        # stored below replaces it, and fall through to GP
                        # with the stale plan as a seed at most.
                        lib.remove(digest, goal_sig)
                        lib.count("reject")
                        self.metrics.inc("planlib_reject", agent=self.name)
            if reply is None:
                seeds = [near.plan for near in lib.related(digest, goal_texts)]
                if entry is not None and self.knowledge_base is None:
                    # Unverifiable exact hit: warm-start from it, don't enact it.
                    seeds.insert(0, entry.plan)
                if seeds:
                    source = "seed"
                reply = self._run_planner(
                    problem, config, trace_id=trace_id, seeds=tuple(seeds)
                )
                reply["verified"] = False
                fresh = PlanEntry(
                    digest=digest,
                    goal_sig=goal_sig,
                    plan=reply["plan"],
                    process=reply["process"],
                    fitness=reply["fitness"],
                    goals=goal_texts,
                    validity=reply["validity"],
                    goal=reply["goal"],
                    problem_name=problem.name,
                    stored_at=self.engine.now,
                )
                self._library_store(fresh)
            lib.count(source)
            self.metrics.inc(f"planlib_{source}", agent=self.name)
            reply["source"] = source
            span.set(source=source, digest=digest[:8], entries=len(lib))
        return reply

    # -- message API ----------------------------------------------------------------- #
    def handle_plan(self, message: Message):
        """Figure 2: a standard planning request.

        Content: ``problem`` (PlanningProblem); optional ``config``
        (GPConfig).  Reply: the plan tree, the elaborated process
        description and fitness telemetry.  With a plan library wired the
        reply also carries ``source`` (hit/repair/seed/miss) and
        ``verified``.  Either way the handler sends nothing, so the
        exchange is the request and its reply.
        """
        problem: PlanningProblem = message.content["problem"]
        config: GPConfig = message.content.get("config") or self.config
        if self.library is not None:
            reply = self._plan_with_library(problem, config, message.trace_id)
        else:
            reply = self._run_planner(problem, config, trace_id=message.trace_id)
        self.plans_created += 1
        return reply

    def handle_library_stats(self, message: Message):
        """Repository health: entry count, cap, and ladder counters."""
        if self.library is None:
            return {"enabled": False, "entries": 0, "counters": {}}
        stats = self.library.stats()
        return {
            "enabled": True,
            "entries": stats.entries,
            "max_entries": stats.max_entries,
            "counters": stats.counters,
        }

    def handle_library_list(self, message: Message):
        """Entries, most-recently-used first (``repro-grid planlib list``)."""
        limit = message.content.get("limit")
        rows: list[dict[str, Any]] = []
        if self.library is not None:
            for entry in reversed(self.library.entries()):
                rows.append(
                    {
                        "digest": entry.digest,
                        "goal_sig": entry.goal_sig,
                        "problem": entry.problem_name,
                        "fitness": entry.fitness,
                        "size": entry.plan.size,
                        "uses": entry.uses,
                        "stored_at": entry.stored_at,
                    }
                )
                if limit is not None and len(rows) >= limit:
                    break
        return {"entries": rows}

    def handle_library_purge(self, message: Message):
        """Drop every library entry."""
        if self.library is None:
            return {"purged": 0}
        return {"purged": self.library.purge()}

    def handle_replan(self, message: Message):
        """Figure 3: re-planning after a failed enactment.

        Content: ``problem`` (the original PlanningProblem), ``data``
        (current case data: name -> properties — "all available data,
        including the initial set ... and the data modified, or created
        during the execution"), ``failed_activities`` (names coordination
        knows are non-executable; may be empty), optional ``config``,
        optional ``probe`` (default True: run the 3-step availability
        check of Figure 3).
        """
        content = message.content
        problem: PlanningProblem = content["problem"]
        data: dict[str, dict] = dict(content.get("data") or {})
        failed: set[str] = set(content.get("failed_activities", ()))
        config: GPConfig = content.get("config") or self.config
        probe: bool = bool(content.get("probe", True))

        unexecutable = set(failed)
        if probe:
            with self.env.spans.span(
                problem.name, "probe", agent=self.name,
                trace_id=message.trace_id,
            ) as probe_span:
                # Steps 2-3: locate a brokerage service through information.
                # Several replicas may be registered; we keep them all and fail
                # over if the primary is down (core services are replicated).
                lookup = yield from self.call(
                    self.information_name, "lookup", {"type": "brokerage"}
                )
                brokers = [p["provider"] for p in lookup["providers"]]
                if not brokers:
                    raise ServiceError("no brokerage service available for re-planning")

                # Steps 4-7: per activity, find candidate containers and probe them.
                probe_cache: dict[tuple[str, str], bool] = {}
                for name, spec in problem.activities.items():
                    if name in unexecutable:
                        continue
                    found = yield from self.call_any(
                        brokers,
                        "find-containers",
                        {"service": spec.service},
                        timeout=self.broker_timeout,
                    )
                    executable = False
                    for container in found["containers"]:
                        key = (container, spec.service or name)
                        verdict = probe_cache.get(key)
                        if verdict is None:
                            try:
                                answer = yield from self.call(
                                    container,
                                    "can-execute",
                                    {"service": spec.service},
                                    timeout=self.probe_timeout,
                                )
                                verdict = bool(answer.get("executable"))
                            except ServiceError:
                                verdict = False
                            probe_cache[key] = verdict
                        if verdict:
                            executable = True
                            break
                    if not executable:
                        unexecutable.add(name)
                probe_span.set(
                    probed=len(probe_cache), unexecutable=len(unexecutable)
                )

        surviving = {
            name: spec
            for name, spec in problem.activities.items()
            if name not in unexecutable
        }
        if not surviving:
            raise ServiceError(
                "re-planning impossible: no executable activities remain"
            )
        new_problem = PlanningProblem(
            initial_state=WorldState(data) if data else problem.initial_state,
            goals=problem.goals,
            activities=surviving,
            name=f"{problem.name}-replan",
        )
        if self.library is not None:
            # The restricted problem digests differently from the original
            # (T shrank), so replan results build their own library line.
            reply = self._plan_with_library(
                new_problem, config, message.trace_id
            )
        else:
            reply = self._run_planner(
                new_problem, config, trace_id=message.trace_id
            )
        reply["excluded_activities"] = sorted(unexecutable)
        self.replans_created += 1
        return reply
