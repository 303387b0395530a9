"""Record performance numbers: eight suites, one ``BENCH_<suite>.json`` each.

Run from the repo root::

    PYTHONPATH=src python benchmarks/record_bench.py [--suite NAME]
        [--rounds N] [--shard-cases N] [--out-dir DIR]

Each suite is one row of :data:`SUITES`: its title, the function that
builds its record and its gates.  The recorder runs the chosen suites in
table order, writes each record to ``<out-dir>/BENCH_<suite>.json`` (the
default ``.`` is the repo root, home of the committed records), checks
the suite's gates and exits 1 when one fails.

* **planner** — ``evaluate_many`` on a population-60 case-study batch and
  on 12 unique structures (in-batch dedup), one seeded GP run's evaluator
  calls against its simulations (the fitness cache's effect), a full
  population-60 GP run, and the warm-table check: a seeded GP run on a
  fresh problem equals the run on a problem whose transition table
  another run filled.  Every timed round and GP run gets a fresh problem,
  built outside the timing.
* **bus** — one-way routing at the default and at a tiny bounded trace
  capacity, and sequential RPC round trips through ``Agent.call``.
* **enact** — ``many_cases`` enactment throughput by default, with each
  fast-path knob alone and with both (``FAST_PATH_KNOBS``), a 1k-case
  stress row, and the counters of a fast-path and of a default run.
* **shard** — the process-split driver at 1/2/4/8 shards on a
  ``--shard-cases`` population, and the scaling against one shard.
* **analysis** — analyzer and concurrency-verifier throughput on the
  Figure-10 process (asserted finding-free), seeded GP runs with the
  static pre-filter off vs ``exact`` (asserted identical) and ``exact``
  vs ``race``, and the race witness's precision on a racy fork.
* **obs** — spans off (against the pre-obs baseline), on, and on with
  gauges, plus one instrumented run's span accounting and profile.
* **planlib** — cold vs warm ``plan_mix`` latency percentiles, the
  hit/repair/seed/miss ladder counts, and a mid-run service kill that
  exercises repair.
* **prov** — the two journal modes (off against the pre-prov
  baseline), a 1k-case append stress row, and the journal of the
  enacted ``plan_mix`` cases.

A gate is a key path into the record, an operator (``>=``, ``<=`` or
``==``) and a bound.  A wall-time gate also names the reference host its
bound was measured on and skips on any other host (one with a different
``cpu_count`` or ``platform``): cross-host medians say nothing about
regression.  Every other gate reads a deterministic value and runs on
every host.

Timings are medians of ``--rounds`` repetitions with the collector frozen;
the host block records the CPU budget they were taken under (a
single-core host cannot show a parallel win).
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import platform
import statistics
import time
from collections.abc import Callable
from contextlib import nullcontext
from typing import Any, NamedTuple

import numpy as np

from repro.plan import random_tree
from repro.planner import EvaluationEngine, GPConfig, GPPlanner
from repro.virolab import planning_problem


def _time(fn, rounds, setup=None):
    """Median-of-*rounds* wall time of ``fn()`` with the gc frozen.

    Collect before and freeze the collector during each sample: cyclic-gc
    pauses landing inside a sample were the dominant variance source on
    single-core hosts (spreads of 2x for identical configs).

    With *setup* (a factory of context managers), each sample enters a
    fresh ``setup()`` outside the timing, times ``fn(value)`` and exits it
    afterwards — so a round can start from fresh inputs (a problem with a
    cold transition table, say) without timing their construction.
    """
    samples = []
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(rounds):
            with setup() if setup is not None else nullcontext() as value:
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                fn() if setup is None else fn(value)
                samples.append(time.perf_counter() - t0)
                gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
        else:
            gc.disable()
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "rounds": rounds,
    }


def host_fingerprint():
    """The host block recorded into every BENCH_*.json."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _population(problem, count, seed=0):
    rng = np.random.default_rng(seed)
    activities = list(problem.activity_names)
    return [
        random_tree(activities, max_size=40, rng=rng, max_branch=4)
        for _ in range(count)
    ]


def bench_evaluate_many(rounds):
    """Every timed round builds a fresh problem outside the timing: a
    problem's transition table stays warm for its lifetime, so a reused
    one would make every round but the first cheaper."""
    trees = _population(planning_problem(), 60)
    out = {}

    def serial_engine():
        return nullcontext(EvaluationEngine(planning_problem()))

    out["serial_60"] = _time(
        lambda engine: engine.evaluate_many(trees), rounds, setup=serial_engine
    )

    unique = _population(planning_problem(), 12)
    dup_trees = [unique[i % 12] for i in range(60)]
    out["dedup_60_of_12_unique"] = _time(
        lambda engine: engine.evaluate_many(dup_trees), rounds, setup=serial_engine
    )
    return out


def bench_cache_effect():
    """One seeded GP run on a fresh problem: its evaluator calls against
    the unique structures it scored."""
    cfg = GPConfig(population_size=60, generations=10)
    run = GPPlanner(cfg, rng=0).plan(planning_problem())
    return {
        "evaluator_calls": run.cache_hits + run.cache_misses,
        "simulations_with_shared_cache": run.evaluations,
        "cache_hit_rate": run.cache_hit_rate,
        "eval_time_cached_s": run.eval_time,
    }


def _fresh_problem():
    return nullcontext(planning_problem())


def bench_gp_run(rounds):
    cfg = GPConfig(population_size=60, generations=10)
    return _time(
        lambda problem: GPPlanner(cfg, rng=1).plan(problem),
        rounds,
        setup=_fresh_problem,
    )


def verify_warm_table_identity():
    """Gate: a seeded GP run on a fresh problem equals the same run on a
    problem whose transition table another run already filled
    (``PlanningResult`` equality excludes timing)."""
    cfg = GPConfig(population_size=60, generations=10)
    warm = planning_problem()
    GPPlanner(cfg, rng=1).plan(warm)
    warm_states = len(warm.transitions())
    fresh_result = GPPlanner(cfg, rng=0).plan(planning_problem())
    return {
        "identical": fresh_result == GPPlanner(cfg, rng=0).plan(warm),
        "warm_states": warm_states,
    }


def _bus_env(trace_capacity=None):
    from repro.grid import Agent, GridEnvironment

    env = GridEnvironment(trace_capacity=trace_capacity)

    class Sink(Agent):
        def handle_ping(self, message):
            return {"pong": True}

    Sink(env, "sink", "core")
    driver = Agent(env, "driver", "core")
    return env, driver


def bench_bus_throughput(rounds, oneway_count=5_000, rpc_count=2_000):
    """Message-fabric throughput: routing, delivery, tracing, metrics."""
    from repro.grid import Message, Performative

    out = {}

    def oneway(trace_capacity):
        def run():
            env, driver = _bus_env(trace_capacity)
            for _ in range(oneway_count):
                driver.send(
                    Message(
                        sender="driver",
                        receiver="sink",
                        performative=Performative.INFORM,
                        action="event",
                    )
                )
            env.run()

        return run

    for label, capacity in (("default_trace", None), ("trace_capacity_256", 256)):
        timing = _time(oneway(capacity), rounds)
        timing["messages_per_s"] = oneway_count / timing["median_s"]
        out[f"oneway_{oneway_count}_{label}"] = timing

    def rpc_run():
        env, driver = _bus_env()

        def main():
            for _ in range(rpc_count):
                yield from driver.call("sink", "ping")

        env.engine.spawn(main(), "main")
        env.run()

    timing = _time(rpc_run, rounds)
    timing["roundtrips_per_s"] = rpc_count / timing["median_s"]
    out[f"rpc_roundtrip_{rpc_count}"] = timing
    return out


#: The many_cases population the enact, obs and prov suites time.
CASES = 32
CONTAINERS = 4


def _time_many_cases(configs, rounds):
    """One timed row per ``label -> run_many_cases knobs`` entry of
    *configs*: the median wall time of a CASES-case run and its cases/s."""
    from repro.workloads import run_many_cases

    rows = {}
    for label, knobs in configs.items():
        timing = _time(lambda knobs=knobs: run_many_cases(
            cases=CASES, containers=CONTAINERS, **knobs
        ), rounds)
        timing["cases_per_s"] = CASES / timing["median_s"]
        rows[label] = timing
    return rows


#: Pre-PR reference point for the enact suite, measured on the grading
#: host immediately before the throughput layer landed (commit 65ff5fe,
#: 32 cases / 4 containers / 3 rounds, median of 5): kept in the JSON so
#: the speedup is computable without checking out the old tree.
PRE_PR_BASELINE = {
    "median_s": 0.4497,
    "min_s": 0.3987,
    "rounds": 5,
    "commit": "65ff5fe",
    "note": "same workload driver, pre-optimization enactment path",
}

#: The two throughput knobs that pay for themselves, at once: tracing
#: off and the read-through cache effectively run-long.  Each also has
#: its own row in the enact suite (``tracing_off``, ``cache_ttl_120``).
FAST_PATH_KNOBS = {
    "tracing": False,
    "cache_ttl": 120.0,
}

#: Host-fingerprinted reference for the 1k-case stress row: the enact
#: suite's stress floor gate runs only on this host.  Measured on the
#: grading host (serial fast path, gc frozen during samples).
STRESS_REFERENCE = {
    "cases": 1000,
    "containers": 8,
    "cases_per_s": 525.0,
    "host": {
        "cpu_count": 1,
        "platform": "Linux-6.18.5-fc-v20-x86_64-with-glibc2.36",
    },
    "note": "serial fast-path stress row, grading host",
}


def bench_enact(rounds, stress_cases=1000):
    """End-to-end enactment throughput on the many_cases workload."""
    from repro.workloads import run_many_cases

    out = {"cases": CASES, "containers": CONTAINERS}
    out.update(_time_many_cases({
        # Default path: byte-identical traces, program cache on.
        "default_tracing": {},
        # Each surviving fast-path knob alone: its price on record.
        "tracing_off": {"tracing": False},
        "cache_ttl_120": {"cache_ttl": 120.0},
        # Throughput path: both knobs at once (see FAST_PATH_KNOBS).
        "optimized_fast_path": dict(FAST_PATH_KNOBS),
    }, rounds))

    # 1k-case stress row: same fast path, more contention (makespan grows
    # with the case count, so the rate is lower than the 32-case row —
    # that is the honest sustained number the stress floor gate watches).
    stress_rounds = 1 if rounds <= 2 else 3
    timing = _time(lambda: run_many_cases(
        cases=stress_cases,
        containers=STRESS_REFERENCE["containers"],
        **FAST_PATH_KNOBS,
    ), stress_rounds)
    timing["cases"] = stress_cases
    timing["containers"] = STRESS_REFERENCE["containers"]
    timing["cases_per_s"] = stress_cases / timing["median_s"]
    out["stress_1k"] = timing

    # Completion + cache-hit counters of one fast-path run: the metrics
    # registry proves the caches actually carried the load.
    result = run_many_cases(cases=CASES, containers=CONTAINERS, **FAST_PATH_KNOBS)
    out["counters_optimized"] = result["counters"]
    out["counters_optimized"]["completed_cases"] = result["completed"]
    out["counters_optimized"]["activities_run"] = result["activities_run"]
    out["counters_optimized"]["engine_events"] = result["engine_events"]
    result = run_many_cases(cases=CASES, containers=CONTAINERS)
    out["counters_default"] = result["counters"]

    out["pre_pr_baseline"] = dict(PRE_PR_BASELINE)
    out["stress_reference"] = dict(STRESS_REFERENCE)
    baseline = PRE_PR_BASELINE["median_s"]
    out["speedup_default_vs_pre_pr"] = baseline / out["default_tracing"]["median_s"]
    out["speedup_optimized_vs_pre_pr"] = (
        baseline / out["optimized_fast_path"]["median_s"]
    )
    return out


#: Host-fingerprinted reference for the shard suite's scaling floor gate,
#: which compares the 8-shard row's throughput against the 1-shard row and
#: runs only on this host.  On the
#: single-core grading host the win comes from superlinear cost avoidance
#: (eight small environments beat one 10k-case environment on scheduler
#: scan and heap growth), not from parallelism.
SHARD_REFERENCE = {
    "cases": 10_000,
    "containers": 8,
    "host": {
        "cpu_count": 1,
        "platform": "Linux-6.18.5-fc-v20-x86_64-with-glibc2.36",
    },
    "note": "fast-path 10k-case rows, grading host",
}

#: Shard counts measured by the shard suite.
SHARD_COUNTS = (1, 2, 4, 8)


def bench_shard(rounds, cases=10_000, containers=8):
    """Process-split scaling: the 10k-case workload at 1/2/4/8 shards."""
    from repro.workloads import run_many_cases, shard_assignment

    out = {"cases": cases, "containers": containers}
    # The big rows cost minutes each; medians over many rounds would not
    # change the scaling story.
    shard_rounds = 1 if rounds <= 3 else 2
    rates = {}
    for shards in SHARD_COUNTS:
        holder = {}

        def run(shards=shards, holder=holder):
            holder["result"] = run_many_cases(
                cases=cases,
                containers=containers,
                shards=shards,
                **FAST_PATH_KNOBS,
            )

        timing = _time(run, shard_rounds)
        result = holder["result"]
        timing["cases_per_s"] = cases / timing["median_s"]
        timing["completed"] = result["completed"]
        if shards > 1:
            timing["pool_error"] = result["pool_error"]
            timing["case_spread"] = {
                entry["shard"]: entry["cases"] for entry in result["shards"]
            }
        rates[shards] = timing["cases_per_s"]
        out[f"shards_{shards}"] = timing

    out["scaling_vs_1_shard"] = {
        f"shards_{shards}": rates[shards] / rates[1] for shards in SHARD_COUNTS
    }
    out["assignment_spread_10k"] = {
        label: len(indices)
        for label, indices in shard_assignment(cases, max(SHARD_COUNTS)).items()
    }
    out["shard_reference"] = dict(SHARD_REFERENCE)
    return out


#: Pre-PR reference point for the obs suite, measured on the grading host
#: immediately before the span-telemetry layer landed (commit 882c84e,
#: 32 cases / 4 containers, median of 7): the obs suite's spans-off
#: overhead gate compares against this, on this host only.
PRE_OBS_BASELINE = {
    "median_s": 0.306,
    "min_s": 0.282,
    "rounds": 7,
    "commit": "882c84e",
    "host": {
        "cpu_count": 1,
        "platform": "Linux-6.18.5-fc-v19-x86_64-with-glibc2.36",
    },
    "note": "many_cases default config, pre span-instrumentation tree",
}


def bench_obs(rounds):
    """Span-telemetry overhead: disabled (the default) must stay free."""
    from repro.obs.profile import case_profile
    from repro.workloads import run_many_cases

    out = {"cases": CASES, "containers": CONTAINERS}
    out.update(_time_many_cases({
        # Default path: recording off; must track PRE_OBS_BASELINE.
        "spans_off": {},
        # Full recording: every layer opens/closes spans.
        "spans_on": {"spans": True},
        # Recording plus periodic gauge sampling.
        "spans_on_gauges": {"spans": True, "gauge_period": 5.0},
    }, rounds))

    baseline = PRE_OBS_BASELINE["median_s"]
    out["pre_obs_baseline"] = dict(PRE_OBS_BASELINE)
    out["disabled_overhead_pct"] = (
        (out["spans_off"]["median_s"] - baseline) / baseline * 100.0
    )
    out["enabled_overhead_pct"] = (
        (out["spans_on"]["median_s"] - out["spans_off"]["median_s"])
        / out["spans_off"]["median_s"] * 100.0
    )

    # One instrumented run proves the recording is complete and balanced:
    # every span pairs, and the profile attributes the case window.
    result = run_many_cases(
        cases=CASES, containers=CONTAINERS, spans=True, gauge_period=5.0
    )
    out["span_accounting"] = result["spans"]
    profile = case_profile(result["env"].spans, case="case-0")
    out["profile_case0"] = {
        "coverage": profile["coverage"],
        "duration": profile["duration"],
        "spans": profile["spans"],
    }
    gauges = result["env"].gauges.summary()
    out["gauges"] = {
        name: series
        for name, series in gauges.items()
        if name in ("spans.open", "transfers.inflight")
        or name.endswith("slots_in_use")
    }
    return out


def bench_analysis(rounds, iterations=200):
    """Semantic-analyzer throughput and the GP pre-filter's effect."""
    from repro.analysis import analyze_process, concurrency_findings
    from repro.virolab import (
        DATA_CLASSIFICATIONS,
        INITIAL_DATA,
        case_study_kb,
        process_description,
    )

    out = {}
    pd = process_description()
    kb = case_study_kb()
    initial = set(INITIAL_DATA)

    def analyze_all():
        for _ in range(iterations):
            analyze_process(
                pd,
                kb=kb,
                initial_data=initial,
                classifications=DATA_CLASSIFICATIONS,
            )

    timing = _time(analyze_all, rounds)
    timing["analyses_per_s"] = iterations / timing["median_s"]
    out[f"full_pass_figure10_x{iterations}"] = timing
    findings = analyze_process(
        pd, kb=kb, initial_data=initial, classifications=DATA_CLASSIFICATIONS
    )
    # Zero-false-positive gate: the shipped case study must stay clean.
    assert not findings, [str(f) for f in findings]
    out["figure10_findings"] = len(findings)

    # Concurrency verifier alone: region recovery + interference +
    # deadlock + critical path over the Figure-10 fork, per process.
    def concurrency_all():
        for _ in range(iterations):
            concurrency_findings(pd)

    timing = _time(concurrency_all, rounds)
    timing["analyses_per_s"] = iterations / timing["median_s"]
    out[f"concurrency_pass_figure10_x{iterations}"] = timing
    assert concurrency_findings(pd) == []

    # GP pre-filter: exact mode must leave the run byte-identical while
    # measurably reducing simulator work.
    runs = {}
    for mode in ("off", "exact"):
        cfg = GPConfig(population_size=60, generations=8, static_filter=mode)
        timing = _time(
            lambda problem, cfg=cfg: GPPlanner(cfg, rng=7).plan(problem),
            rounds,
            setup=_fresh_problem,
        )
        result = GPPlanner(cfg, rng=7).plan(planning_problem())
        runs[mode] = result
        timing["evaluations"] = result.evaluations
        timing["analysis_rejected"] = result.analysis_rejected
        timing["best_overall"] = result.best_fitness.overall
        out[f"gp_pop60_gen8_filter_{mode}"] = timing
    off, exact = runs["off"], runs["exact"]
    assert exact.best_fitness == off.best_fitness
    assert exact.best_plan.struct_key() == off.best_plan.struct_key()
    assert exact.history == off.history
    assert exact.evaluations == off.evaluations
    assert exact.analysis_rejected > 0 and off.analysis_rejected == 0
    out["traces_identical"] = True
    out["simulations_avoided"] = exact.analysis_rejected
    out["simulations_avoided_pct"] = (
        exact.analysis_rejected / exact.evaluations * 100.0
    )

    # Race filter mode on the plan_mix problem (analyze_a/analyze_b both
    # produce "insight" from distinct services, so CONCURRENT pairings
    # statically interfere): how many extra simulations the fork-
    # interference floor skips on top of the doomed check.  Race mode
    # changes traces by design (floored fitness), so this row reports
    # counts, not identity.
    from repro.workloads.plan_mix import plan_mix_problem

    mix_problem = plan_mix_problem(0)
    mix_runs = {}
    for mode in ("exact", "race"):
        cfg = GPConfig(
            population_size=60, generations=8, smax=12, static_filter=mode
        )
        result = GPPlanner(cfg, rng=7).plan(mix_problem)
        mix_runs[mode] = result
        out[f"gp_plan_mix_filter_{mode}"] = {
            "evaluations": result.evaluations,
            "analysis_rejected": result.analysis_rejected,
            "race_rejected": result.race_rejected,
            "best_overall": result.best_fitness.overall,
        }
    race = mix_runs["race"]
    assert mix_runs["exact"].race_rejected == 0
    assert race.race_rejected > 0
    out["race_simulations_additionally_skipped_pct"] = (
        race.race_rejected / race.evaluations * 100.0
    )

    out["race_witness"] = _witness_precision()
    return out


def _witness_precision():
    """Enact a deliberately racy two-branch fork under ``journal=True``
    and replay the journal against the static conflicts.

    The intake gate would (correctly) refuse the specimen on its E601,
    so the bench tolerates that code for this one grid — the point is to
    measure how many statically-flagged races the runtime record bears
    out (confirmed / checkable = the witness precision)."""
    from repro.analysis import interference_conflicts, race_witness
    from repro.grid.container import EndUserService
    from repro.process.builder import WorkflowBuilder
    from repro.process.model import Activity
    from repro.services.bootstrap import standard_environment

    library = {
        "WA": Activity("WA", service="SVA", inputs=("d0",), outputs=("r",)),
        "WB": Activity("WB", service="SVB", inputs=("d0",), outputs=("r",)),
    }
    pd = (
        WorkflowBuilder("racy-fork")
        .fork(lambda b: b.activity("WA"), lambda b: b.activity("WB"))
        .build(library)
    )
    conflicts = interference_conflicts(pd)
    services = [
        EndUserService("SVA", work=3.0, effects={"r": {"Status": "ready"}}),
        EndUserService("SVB", work=5.0, effects={"r": {"Status": "ready"}}),
    ]
    env, core, _ = standard_environment(services, containers=2, journal=True)
    core.coordination.tolerated_findings = (
        core.coordination.tolerated_findings | {"E601", "W602"}
    )
    outcome = {}

    def enact():
        outcome["reply"] = yield from core.coordination.call(
            "coordination",
            "execute-task",
            {
                "process": pd,
                "initial_data": {"d0": {"Status": "ready"}},
                "task": "racy-0",
            },
        )

    env.engine.spawn(enact(), "driver")
    env.run(max_events=2_000_000)
    assert outcome["reply"]["status"] == "completed"
    report = race_witness(env.journal.events("racy-0"), conflicts)
    return {
        "static_conflicts": len(conflicts),
        "confirmed": report.confirmed,
        "refuted": report.refuted,
        "unobserved": report.unobserved,
        "checkable": report.checkable,
        "precision": report.precision,
        "verdicts": [v.to_dict() for v in report.verdicts],
    }


#: Host-fingerprinted reference for the plan-library warm-start suite: its
#: warm-hit speedup floor gate runs only on this host.  Measured on the
#: grading host (24 requests over 4 goal variants, population 40 / 8
#: generations).
PLANLIB_REFERENCE = {
    "requests": 24,
    "distinct": 4,
    "warm_speedup_p50": 30.0,
    "host": {
        "cpu_count": 1,
        "platform": "Linux-6.18.5-fc-v20-x86_64-with-glibc2.36",
    },
    "note": "cold GP p50 over warm hit-path p50, grading host",
}


def _latency_percentiles(samples):
    """p50/p95 of per-request planning latencies (nearest-rank)."""
    ordered = sorted(samples)

    def pct(p):
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1)))]

    return {"p50_s": pct(50), "p95_s": pct(95), "n": len(ordered)}


def bench_planlib(requests=24, distinct=4):
    """Plan-library warm-start: cold vs warm latency plus the ladder counts.

    Three runs of the repeated-goal ``plan_mix`` traffic:

    * cold — ``library="off"``, no library wired: every request is a full
      GP run (the baseline percentiles);
    * warm — ``library="on"``, first occurrences miss or seed, repeats are
      analyzer-verified hits (the warm-hit percentiles and the speedup);
    * stale — warm plus a mid-run service kill, exercising the repair leg.
    """
    from repro.workloads import run_plan_mix

    out = {"requests": requests, "distinct": distinct}

    cold = run_plan_mix(requests=requests, distinct=distinct, library="off")
    out["cold_library_off"] = {
        **_latency_percentiles(cold["latencies"]),
        "solved": cold["solved"],
    }

    warm = run_plan_mix(requests=requests, distinct=distinct, library="on")
    hit_latencies = [
        latency
        for latency, source in zip(warm["latencies"], warm["sources"])
        if source in ("hit", "repair")
    ]
    out["warm_library_on"] = {
        **_latency_percentiles(warm["latencies"]),
        "solved": warm["solved"],
        "library_entries": warm["library_entries"],
        "sources": warm["sources"],
    }
    out["warm_hit_path"] = _latency_percentiles(hit_latencies)
    out["counts"] = warm["counts"]
    out["warm_speedup_p50"] = (
        out["cold_library_off"]["p50_s"] / out["warm_hit_path"]["p50_s"]
        if out["warm_hit_path"]["p50_s"] > 0
        else 0.0
    )

    stale = run_plan_mix(
        requests=requests,
        distinct=distinct,
        library="on",
        kill_after=max(1, requests // 2),
    )
    out["repair_leg"] = {
        "killed_service": stale["killed"],
        "counts": stale["counts"],
        "sources": stale["sources"],
        "solved": stale["solved"],
    }

    out["planlib_reference"] = dict(PLANLIB_REFERENCE)
    return out


#: Host-fingerprinted reference for the flight-recorder overhead gate:
#: the default (journal off) many_cases median measured immediately
#: before the journal hooks landed in coordination / containers /
#: transfer.  The prov suite's journal-off overhead gate compares the
#: current journal-off median against this, on this host only.
PRE_PROV_BASELINE = {
    "median_s": 0.176,
    "min_s": 0.166,
    "rounds": 7,
    "host": {
        "cpu_count": 1,
        "platform": "Linux-6.18.5-fc-v20-x86_64-with-glibc2.36",
    },
    "note": "many_cases default config, pre journal-instrumentation tree",
}


def bench_prov(rounds, stress_cases=1000):
    """Flight-recorder cost: journal modes, append throughput.

    * journal-off (the default) against the committed pre-prov baseline
      (the journal-off overhead gate watches this row);
    * the journal-on row (``journal=True``, the honest price of recording);
    * a 1k-case journal-on stress row on the fast-path knobs — events
      appended per second is the journal's append throughput;
    * the enacted ``plan_mix`` acceptance workload: its cases, plan
      sources and journal event count (host-independent, so its count
      gate is enforced everywhere).
    """
    from repro.workloads import run_many_cases, run_plan_mix

    # One untimed run first: the 1% overhead gate is tighter than the
    # cold-process warm-up penalty (imports, allocator, bytecode), which
    # would otherwise land entirely on the first-timed config.
    run_many_cases(cases=CASES, containers=CONTAINERS)

    out = {"cases": CASES, "containers": CONTAINERS}
    out.update(_time_many_cases({
        "journal_off": {},
        "journal_record": {"journal": True},
    }, rounds))

    baseline = PRE_PROV_BASELINE["median_s"]
    out["pre_prov_baseline"] = dict(PRE_PROV_BASELINE)
    out["journal_disabled_overhead_pct"] = (
        (out["journal_off"]["median_s"] - baseline) / baseline * 100.0
    )
    out["record_overhead_pct"] = (
        (out["journal_record"]["median_s"] - out["journal_off"]["median_s"])
        / out["journal_off"]["median_s"] * 100.0
    )

    # Append throughput: 1k cases on the fast-path knobs, journal on.
    started = time.perf_counter()
    stress = run_many_cases(
        cases=stress_cases, containers=8, journal=True, **FAST_PATH_KNOBS
    )
    elapsed = time.perf_counter() - started
    stats = stress["journal"]
    out["stress_1k_record"] = {
        "cases": stress_cases,
        "completed": stress["completed"],
        "elapsed_s": elapsed,
        "events_appended": stats["appended"],
        "events_per_s": stats["appended"] / elapsed if elapsed > 0 else 0.0,
        "cases_per_s": stress_cases / elapsed if elapsed > 0 else 0.0,
    }

    # The enacted plan_mix acceptance workload with the journal on.
    mix = run_plan_mix(
        requests=8, distinct=4, enact=True, journal=True, spans=True
    )
    out["plan_mix"] = {
        "cases": mix["requests"],
        "completed": mix["completed"],
        "plan_sources": mix["sources"],
        "journal_events": mix["journal"]["appended"],
    }
    return out


def planner_record(args):
    return {
        "problem": planning_problem().name,
        "evaluate_many": bench_evaluate_many(args.rounds),
        "cache_effect_pop60_gen10": bench_cache_effect(),
        "gp_run_pop60_gen10": bench_gp_run(max(2, args.rounds // 2)),
        "warm_table_identity": verify_warm_table_identity(),
    }


class Gate(NamedTuple):
    """``record[path] <op> bound``, *path* dotted.  A wall-time gate names
    its reference *host* (a fingerprint); None runs on every host."""

    path: str
    op: str
    bound: Any
    host: dict | None = None


class Suite(NamedTuple):
    title: str
    build: Callable[[argparse.Namespace], dict]
    gates: tuple[Gate, ...] = ()


_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def check_gate(suite, gate, record, host) -> bool:
    """Print *gate*'s verdict on *record*, measured on *host*; False only
    on an enforced failure.  The Python version is left out of the host
    match: medians are comparable across interpreter patches."""
    label = f"{suite} gate {gate.path} {gate.op} {gate.bound!r}"
    reference = gate.host
    if reference is not None and any(
        host[key] != reference[key] for key in ("cpu_count", "platform")
    ):
        print(
            f"{label} skipped: host differs from the reference host "
            f"({host['cpu_count']} cpus, {host['platform']})"
        )
        return True
    value = record
    for key in gate.path.split("."):
        value = value[key]
    if not _OPS[gate.op](value, gate.bound):
        print(f"FAIL: {label}: got {value!r}")
        return False
    print(f"{label} passed: {value!r}")
    return True


SUITES = {
    "planner": Suite(
        "GP planner evaluation engine",
        planner_record,
        (
            Gate("warm_table_identity.identical", "==", True),
            # One seeded GP run's evaluator calls and the simulations its
            # shared fitness cache left: counts, so every host.
            Gate("cache_effect_pop60_gen10.evaluator_calls", "==", 660),
            Gate("cache_effect_pop60_gen10.simulations_with_shared_cache", "==", 363),
        ),
    ),
    "bus": Suite(
        "message bus throughput",
        lambda args: {"throughput": bench_bus_throughput(args.rounds)},
    ),
    "enact": Suite(
        "enactment throughput (many_cases workload)",
        lambda args: {"enact": bench_enact(args.rounds)},
        (
            Gate("enact.stress_1k.cases_per_s", ">=", 150, STRESS_REFERENCE["host"]),
            Gate("enact.counters_default.messages_sent", "==", 3_904),
            Gate("enact.counters_optimized.engine_events", "==", 5_496),
        ),
    ),
    "shard": Suite(
        "sharded-grid scaling (many_cases workload)",
        lambda args: {"shard": bench_shard(args.rounds, cases=args.shard_cases)},
        (
            Gate(
                "shard.scaling_vs_1_shard.shards_8", ">=", 3.0,
                SHARD_REFERENCE["host"],
            ),
        ),
    ),
    "analysis": Suite(
        "semantic workflow verifier (analysis package)",
        lambda args: {"analysis": bench_analysis(args.rounds)},
        # The witness replays the simulated journal: its precision is a
        # ratio of counts that repeat exactly on any host, as are the
        # seeded GP runs' evaluation and filter counts.
        (
            Gate("analysis.race_witness.precision", ">=", 0.9),
            Gate("analysis.gp_pop60_gen8_filter_exact.evaluations", "==", 327),
            Gate("analysis.gp_pop60_gen8_filter_exact.analysis_rejected", "==", 59),
            Gate("analysis.gp_plan_mix_filter_race.evaluations", "==", 206),
            Gate("analysis.gp_plan_mix_filter_race.analysis_rejected", "==", 91),
            Gate("analysis.gp_plan_mix_filter_race.race_rejected", "==", 11),
        ),
    ),
    "obs": Suite(
        "span telemetry overhead (many_cases workload)",
        lambda args: {"obs": bench_obs(args.rounds)},
        (
            Gate("obs.disabled_overhead_pct", "<=", 5, PRE_OBS_BASELINE["host"]),
            Gate("obs.span_accounting.open", "==", 0),
            Gate("obs.span_accounting.closed", "==", 2_240),
        ),
    ),
    "planlib": Suite(
        "plan library warm-start (plan_mix workload)",
        lambda args: {"planlib": bench_planlib()},
        (
            Gate("planlib.warm_speedup_p50", ">=", 5.0, PLANLIB_REFERENCE["host"]),
            Gate(
                "planlib.counts", "==",
                {"hit": 20, "repair": 0, "seed": 3, "miss": 1, "store": 4,
                 "verify": 20, "reject": 0},
            ),
        ),
    ),
    "prov": Suite(
        "case flight recorder (journal)",
        lambda args: {"prov": bench_prov(args.rounds)},
        (
            # The enacted plan_mix cases file exactly this many events.
            Gate("prov.plan_mix.journal_events", "==", 16_304),
            Gate(
                "prov.journal_disabled_overhead_pct", "<=", 1,
                PRE_PROV_BASELINE["host"],
            ),
            Gate("prov.stress_1k_record.events_appended", "==", 27_000),
        ),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=("all", *SUITES), default="all")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--shard-cases",
        type=int,
        default=10_000,
        help="population size for the shard suite's scaling rows",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory each suite's BENCH_<suite>.json is written to",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    for name, suite in SUITES.items():
        if args.suite not in ("all", name):
            continue
        host = host_fingerprint()
        record = {"benchmark": suite.title, "host": host, **suite.build(args)}
        path = os.path.join(args.out_dir, f"BENCH_{name}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(json.dumps(record, indent=2))
        print(f"\nwrote {path}")
        # A list, not a generator: every gate prints its verdict.
        if not all([check_gate(name, gate, record, host) for gate in suite.gates]):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
