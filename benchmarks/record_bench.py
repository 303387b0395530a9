"""Record performance numbers (planner, bus, enactment, obs, analysis).

Run from the repo root::

    PYTHONPATH=src python benchmarks/record_bench.py \\
        [--suite all|planner|bus|enact|obs|analysis]

The **planner** suite (BENCH_planner.json) measures, on the Section-5
case-study problem:

* ``evaluate_many`` on a population-60 batch;
* the same batch with only 12 unique structures (in-batch dedup);
* a seeded GP run with the shared fitness cache vs. the identical run
  with caching disabled (unique-simulation counts);
* one full Table-1-budget GP generation sequence at population 60;
* the warm-table gate: a seeded GP run on a fresh problem must equal the
  same run on a problem whose transition table is already filled (fails
  the run otherwise).

Every timed round and every GP run gets a fresh problem, built outside
the timing, so no row runs on a transition table an earlier round warmed.

The **bus** suite (BENCH_bus.json) measures message-fabric throughput:

* one-way fire-and-forget routing (router + mailbox + trace + metrics),
  at the default trace capacity and at a tiny bounded capacity (eviction
  on the hot path);
* sequential RPC round trips through ``Agent.call`` (request, handler
  dispatch, reply, latency histogram).

The **enact** suite (BENCH_enact.json) measures end-to-end enactment
throughput on the ``many_cases`` workload (K concurrent cases of one
workflow through the full matchmaking -> scheduling -> container path):

* the default configuration (tracing on, no read-through cache);
* one row per surviving throughput knob, so each knob's price is on
  record: ``tracing=False`` and ``cache_ttl=120`` (the coordinator and
  scheduler read-through cache);
* both fast-path knobs together (``FAST_PATH_KNOBS``), plus the
  cache-hit counters of the same configuration;
* a 1k-case serial stress row (the ``--min-stress-cases-per-s`` floor
  gate watches it, host-fingerprint-matched like the obs gate).

The **shard** suite (BENCH_shard.json) measures the process-split
driver on a 10k-case ``many_cases`` population:

* one row per shard count in {1, 2, 4, 8} — fast-path knobs, cases
  assigned to shards by consistent hash of the case id, one process per
  shard (``run_many_cases(shards=N)``);
* the scaling table relative to the single-shard row (the
  ``--min-shard-scaling`` floor gate watches the 8-shard entry,
  host-fingerprint-matched like the other gates).

The **obs** suite (BENCH_obs.json) measures the span-telemetry layer's
cost on the same workload:

* the default spans-off configuration against the committed pre-obs
  baseline — the ``--max-disabled-overhead`` gate fails the run when the
  regression exceeds the given percentage (host-fingerprint-matched
  only, since cross-host medians are not comparable);
* spans-on and spans-on-plus-gauges configurations (the honest price of
  full recording);
* one instrumented run's span accounting, case-0 profile coverage, and
  gauge summaries.

The **analysis** suite (BENCH_analysis.json) measures the semantic
workflow verifier:

* full-pass analyzer throughput (structure + conditions + dataflow +
  resolvability) on the Figure-10 case-study process against the
  case-study knowledge base — and asserts it stays finding-free;
* a seeded GP run with the static pre-filter off vs. on (the ``exact``
  default): best fitness, plan and per-generation history must be
  identical, while ``analysis_rejected`` records how many candidate
  simulations the filter made unnecessary.

The **planlib** suite (BENCH_planlib.json) measures the persistent plan
library's warm-start path on the repeated-goal ``plan_mix`` workload:

* cold (``library="off"``) vs warm (``library="on"``) per-request
  planning-latency percentiles (p50/p95), plus the warm-hit-path
  percentiles and the p50 speedup (the ``--min-warm-speedup`` floor
  gate, host-fingerprint-matched like the other gates);
* the hit / repair / seed / miss ladder counters of the warm run and of
  a third run with a mid-run service kill (the repair leg);
* the library-off byte-identity gate: a grid with a library wired but
  ``GPConfig.library="off"`` must produce exactly the unwired grid's
  message trace and GP results (enforced unconditionally).

The **prov** suite (BENCH_prov.json) measures the case flight recorder:

* journal-off (the default) against the committed pre-prov baseline —
  the ``--max-journal-overhead`` gate fails the run when the regression
  exceeds the given percentage (host-fingerprint-matched only);
* record-only and full-mirror rows (the honest price of each mode);
* a 1k-case record-only append-throughput stress row (events/s) on the
  fast-path knobs;
* the enacted ``plan_mix`` acceptance workload replayed case-by-case
  from storage blobs alone — replay wall time, and every replayed
  provenance graph must equal the one built from the live journal
  (``replay_mismatched`` lists the cases that do not; enforced
  unconditionally).

Each PR can re-run this and diff against the committed JSON to keep a
perf trajectory.  Timings are medians of --rounds repetitions; the host
block records the CPU budget the numbers were taken under (a single-core
host cannot show a parallel win — the dispatch overhead is then the
honest number).
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext

import numpy as np

from bench_util import (
    enforce_gate,
    host_fingerprint as _host,
    time_fn as _time,
    trace_rows,
    write_record as _write,
)
from repro.plan import random_tree
from repro.planner import EvaluationEngine, GPConfig, GPPlanner, PlanEvaluator
from repro.virolab import planning_problem


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
    """The same seeded GP run with and without the shared fitness cache,
    each on its own fresh problem."""
    cfg = GPConfig(population_size=60, generations=10)
    cached = GPPlanner(cfg, rng=0).plan(planning_problem())
    problem = planning_problem()
    uncached = GPPlanner(cfg, rng=0).plan(
        problem, evaluator=PlanEvaluator(problem, cache_size=0)
    )
    assert cached.best_fitness == uncached.best_fitness
    return {
        "evaluator_calls": uncached.cache_hits + uncached.cache_misses,
        "simulations_in_batch_dedup_only": uncached.evaluations,
        "simulations_with_shared_cache": cached.evaluations,
        "cache_hit_rate": cached.cache_hit_rate,
        "eval_time_cached_s": cached.eval_time,
        "eval_time_uncached_s": uncached.eval_time,
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

#: Host-fingerprinted reference for the 1k-case stress row.  The
#: ``--min-stress-cases-per-s`` floor gate is enforced only when the
#: current host matches this fingerprint — cross-host rates say nothing
#: about regression.  Measured on the grading host (serial fast path,
#: gc frozen during samples).
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


def bench_enact(rounds, cases=32, containers=4, stress_cases=1000):
    """End-to-end enactment throughput on the many_cases workload."""
    from repro.workloads import run_many_cases

    out = {"cases": cases, "containers": containers}

    configs = {
        # Default path: byte-identical traces, program cache on.
        "default_tracing": {},
        # Each surviving fast-path knob alone: its price on record.
        "tracing_off": {"tracing": False},
        "cache_ttl_120": {"cache_ttl": 120.0},
        # Throughput path: both knobs at once (see FAST_PATH_KNOBS).
        "optimized_fast_path": dict(FAST_PATH_KNOBS),
    }
    for label, knobs in configs.items():
        timing = _time(lambda knobs=knobs: run_many_cases(
            cases=cases, containers=containers, **knobs
        ), rounds)
        timing["cases_per_s"] = cases / timing["median_s"]
        out[label] = timing

    # 1k-case stress row: same fast path, more contention (makespan grows
    # with the case count, so the rate is lower than the 32-case row —
    # that is the honest sustained number the CI floor gate watches).
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
    result = run_many_cases(cases=cases, containers=containers, **FAST_PATH_KNOBS)
    out["counters_optimized"] = result["counters"]
    out["counters_optimized"]["completed_cases"] = result["completed"]
    out["counters_optimized"]["activities_run"] = result["activities_run"]
    out["counters_optimized"]["engine_events"] = result["engine_events"]
    result = run_many_cases(cases=cases, containers=containers)
    out["counters_default"] = result["counters"]

    out["pre_pr_baseline"] = dict(PRE_PR_BASELINE)
    out["stress_reference"] = dict(STRESS_REFERENCE)
    baseline = PRE_PR_BASELINE["median_s"]
    out["speedup_default_vs_pre_pr"] = baseline / out["default_tracing"]["median_s"]
    out["speedup_optimized_vs_pre_pr"] = (
        baseline / out["optimized_fast_path"]["median_s"]
    )
    return out


#: Host-fingerprinted reference for the shard suite's scaling-floor gate:
#: ``--min-shard-scaling`` compares the 8-shard row's throughput against
#: the 1-shard row and is enforced only on a matching host.  On the
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
#: 32 cases / 4 containers, median of 7): the disabled-overhead gate
#: compares against this — but only when the host fingerprint matches,
#: since cross-host medians say nothing about regression.
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


def bench_obs(rounds, cases=32, containers=4):
    """Span-telemetry overhead: disabled (the default) must stay free."""
    from repro.obs.profile import case_profile
    from repro.workloads import run_many_cases

    out = {"cases": cases, "containers": containers}

    configs = {
        # Default path: recording off; must track PRE_OBS_BASELINE.
        "spans_off": {},
        # Full recording: every layer opens/closes spans.
        "spans_on": {"spans": True},
        # Recording plus periodic gauge sampling.
        "spans_on_gauges": {"spans": True, "gauge_period": 5.0},
    }
    for label, knobs in configs.items():
        timing = _time(lambda knobs=knobs: run_many_cases(
            cases=cases, containers=containers, **knobs
        ), rounds)
        timing["cases_per_s"] = cases / timing["median_s"]
        out[label] = timing

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
        cases=cases, containers=containers, spans=True, gauge_period=5.0
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


#: Host-fingerprinted reference for the plan-library warm-start suite.
#: The ``--min-warm-speedup`` floor gate is enforced only when the current
#: host matches this fingerprint.  Measured on the grading host (24
#: requests over 4 goal variants, population 40 / 8 generations).
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


def verify_library_off_identity(requests=8, distinct=4):
    """Byte-identity gate: library wired but ``library="off"`` vs unwired.

    ``GPConfig.library="off"`` must leave the planning service on the
    pre-library code path exactly — same GP populations (hence fitness and
    replies), same default message trace — even when a :class:`PlanLibrary`
    and knowledge base are wired into the grid.  The unwired half of the
    pair runs the original handler body with zero generator yields, i.e.
    the pre-PR behavior.
    """
    from repro.workloads import run_plan_mix

    def observable(wired):
        result = run_plan_mix(
            requests=requests,
            distinct=distinct,
            library="off",
            wire_disabled_library=wired,
        )
        return {
            "trace": trace_rows(result["env"]),
            "fitness": result["fitness"],
            "sources": result["sources"],
            "solved": result["solved"],
            "makespan": result["makespan"],
        }

    wired = observable(True)
    plain = observable(False)
    identical = wired == plain
    gate = {
        "requests": requests,
        "identical": identical,
        "messages_compared": len(plain["trace"]),
    }
    if not identical:
        for index, (one, other) in enumerate(
            zip(wired["trace"], plain["trace"])
        ):
            if one != other:
                gate["first_divergence"] = {
                    "index": index,
                    "wired_off": one,
                    "unwired": other,
                }
                break
        else:
            gate["first_divergence"] = {
                "wired_len": len(wired["trace"]),
                "unwired_len": len(plain["trace"]),
                "fitness_equal": wired["fitness"] == plain["fitness"],
            }
    return gate


def bench_planlib(requests=24, distinct=4):
    """Plan-library warm-start: cold vs warm latency plus the ladder counts.

    Three runs of the repeated-goal ``plan_mix`` traffic:

    * cold — ``library="off"``, every request is a full GP run (the
      baseline percentiles);
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
    out["library_off_identity"] = verify_library_off_identity()
    return out


#: Host-fingerprinted reference for the flight-recorder overhead gate:
#: the default (journal off) many_cases median measured immediately
#: before the journal hooks landed in coordination / containers /
#: transfer.  ``--max-journal-overhead`` compares the current
#: journal-off median against this on the matching host only.
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


def bench_prov(rounds, cases=32, containers=4, stress_cases=1000):
    """Flight-recorder cost: journal modes, append throughput, replay.

    * journal-off (the default) against the committed pre-prov baseline
      (the ``--max-journal-overhead`` gate watches this row);
    * record-only and full-mirror rows (the honest price of each mode);
    * a 1k-case record-only stress row on the fast-path knobs — events
      appended per second is the journal's append throughput;
    * the enacted ``plan_mix`` acceptance workload: every case's journal
      replayed from its storage blob alone, wall time recorded, and each
      replayed provenance graph compared with the one built from the
      live journal (host-independent, so enforced everywhere).
    """
    import time as _walltime

    from repro.obs.provenance import ProvenanceGraph, journal_replay
    from repro.workloads import run_many_cases, run_plan_mix

    out = {"cases": cases, "containers": containers}

    # One untimed run first: the 1% overhead gate is tighter than the
    # cold-process warm-up penalty (imports, allocator, bytecode), which
    # would otherwise land entirely on the first-timed config.
    run_many_cases(cases=cases, containers=containers)

    configs = {
        "journal_off": {},
        "journal_record": {"journal": "record"},
        "journal_mirror": {"journal": True},
    }
    for label, knobs in configs.items():
        timing = _time(lambda knobs=knobs: run_many_cases(
            cases=cases, containers=containers, **knobs
        ), rounds)
        timing["cases_per_s"] = cases / timing["median_s"]
        out[label] = timing

    baseline = PRE_PROV_BASELINE["median_s"]
    out["pre_prov_baseline"] = dict(PRE_PROV_BASELINE)
    out["journal_disabled_overhead_pct"] = (
        (out["journal_off"]["median_s"] - baseline) / baseline * 100.0
    )
    out["record_overhead_pct"] = (
        (out["journal_record"]["median_s"] - out["journal_off"]["median_s"])
        / out["journal_off"]["median_s"] * 100.0
    )
    out["mirror_overhead_pct"] = (
        (out["journal_mirror"]["median_s"] - out["journal_off"]["median_s"])
        / out["journal_off"]["median_s"] * 100.0
    )

    # Append throughput: 1k cases on the fast-path knobs, record-only.
    started = _walltime.perf_counter()
    stress = run_many_cases(
        cases=stress_cases, containers=8, journal="record", **FAST_PATH_KNOBS
    )
    elapsed = _walltime.perf_counter() - started
    stats = stress["journal"]
    out["stress_1k_record"] = {
        "cases": stress_cases,
        "completed": stress["completed"],
        "elapsed_s": elapsed,
        "events_appended": stats["appended"],
        "events_per_s": stats["appended"] / elapsed if elapsed > 0 else 0.0,
        "cases_per_s": stress_cases / elapsed if elapsed > 0 else 0.0,
    }

    # Replay: the enacted plan_mix acceptance workload, rebuilt from
    # storage blobs alone, then held equal to the live journal's graph.
    mix = run_plan_mix(
        requests=8, distinct=4, enact=True, journal=True, spans=True
    )
    services, env = mix["services"], mix["env"]
    cases = [f"mix-{index}" for index in range(mix["requests"])]
    started = _walltime.perf_counter()
    replays = [journal_replay(services.storage, case) for case in cases]
    replay_elapsed = _walltime.perf_counter() - started
    mismatched = [
        case
        for case, replay in zip(cases, replays)
        if replay["graph"].to_json()
        != ProvenanceGraph.from_journal(env.journal, case).to_json()
    ]
    out["replay"] = {
        "cases": mix["requests"],
        "completed": mix["completed"],
        "plan_sources": mix["sources"],
        "journal_events": mix["journal"]["appended"],
        "wall_s": replay_elapsed,
        "events_per_s": (
            sum(r["events"] for r in replays) / replay_elapsed
            if replay_elapsed > 0
            else 0.0
        ),
        "replay_mismatched": mismatched,
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=(
            "all",
            "planner",
            "bus",
            "enact",
            "obs",
            "analysis",
            "shard",
            "planlib",
            "prov",
        ),
        default="all",
    )
    parser.add_argument("--out", default="BENCH_planner.json")
    parser.add_argument("--bus-out", default="BENCH_bus.json")
    parser.add_argument("--enact-out", default="BENCH_enact.json")
    parser.add_argument("--obs-out", default="BENCH_obs.json")
    parser.add_argument("--analysis-out", default="BENCH_analysis.json")
    parser.add_argument("--shard-out", default="BENCH_shard.json")
    parser.add_argument("--planlib-out", default="BENCH_planlib.json")
    parser.add_argument("--prov-out", default="BENCH_prov.json")
    parser.add_argument(
        "--max-journal-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if the prov suite's journal-off median exceeds "
        "the committed pre-prov baseline by more than PCT percent; only "
        "enforced when the host fingerprint matches the baseline host",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail (exit 1) if the planlib suite's warm-hit p50 latency is "
        "not at least FACTOR times below the cold (library-off) p50; only "
        "enforced when the host fingerprint matches the committed planlib "
        "reference host",
    )
    parser.add_argument(
        "--min-witness-precision",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail (exit 1) if the analysis suite's race-witness precision "
        "(journal-confirmed over checkable static races) falls below "
        "FRACTION; a ratio of deterministic counts, so enforced on every "
        "host",
    )
    parser.add_argument(
        "--shard-cases",
        type=int,
        default=10_000,
        help="population size for the shard suite's scaling rows",
    )
    parser.add_argument(
        "--min-shard-scaling",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail (exit 1) if the shard suite's 8-shard row is less than "
        "FACTOR times the 1-shard row's throughput; only enforced when "
        "the host fingerprint matches the committed shard reference host",
    )
    parser.add_argument(
        "--max-disabled-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if the obs suite's spans-off median exceeds "
        "the committed pre-obs baseline by more than PCT percent; only "
        "enforced when the host fingerprint matches the baseline host",
    )
    parser.add_argument(
        "--min-stress-cases-per-s",
        type=float,
        default=None,
        metavar="RATE",
        help="fail (exit 1) if the enact suite's 1k-case stress row falls "
        "below RATE cases/s; only enforced when the host fingerprint "
        "matches the committed stress reference host",
    )
    parser.add_argument("--cases", type=int, default=32)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    if args.suite in ("all", "planner"):
        record = {
            "benchmark": "GP planner evaluation engine",
            "problem": planning_problem().name,
            "host": _host(),
            "evaluate_many": bench_evaluate_many(args.rounds),
            "cache_effect_pop60_gen10": bench_cache_effect(),
            "gp_run_pop60_gen10": bench_gp_run(max(2, args.rounds // 2)),
            "warm_table_identity": verify_warm_table_identity(),
        }
        _write(args.out, record)
        if not record["warm_table_identity"]["identical"]:
            print("FAIL: a GP run on a warm transition table diverges from a fresh one")
            return 1
        print("warm-table gate passed: fresh and warm-table GP runs are identical")

    if args.suite in ("all", "bus"):
        record = {
            "benchmark": "message bus throughput",
            "host": _host(),
            "throughput": bench_bus_throughput(args.rounds),
        }
        _write(args.bus_out, record)

    if args.suite in ("all", "enact"):
        host = _host()
        record = {
            "benchmark": "enactment throughput (many_cases workload)",
            "host": host,
            "enact": bench_enact(args.rounds, cases=args.cases),
        }
        _write(args.enact_out, record)
        if args.min_stress_cases_per_s is not None and not enforce_gate(
            "stress floor (--min-stress-cases-per-s)",
            record["enact"]["stress_1k"]["cases_per_s"],
            args.min_stress_cases_per_s,
            host,
            STRESS_REFERENCE["host"],
            mode="min",
            unit=" cases/s",
            fmt="{:.0f}",
        ):
            return 1

    if args.suite in ("all", "shard"):
        host = _host()
        record = {
            "benchmark": "sharded-grid scaling (many_cases workload)",
            "host": host,
            "shard": bench_shard(args.rounds, cases=args.shard_cases),
        }
        _write(args.shard_out, record)
        if args.min_shard_scaling is not None and not enforce_gate(
            f"{max(SHARD_COUNTS)}-shard scaling (--min-shard-scaling)",
            record["shard"]["scaling_vs_1_shard"][f"shards_{max(SHARD_COUNTS)}"],
            args.min_shard_scaling,
            host,
            SHARD_REFERENCE["host"],
            mode="min",
            unit="x",
        ):
            return 1

    if args.suite in ("all", "analysis"):
        host = _host()
        record = {
            "benchmark": "semantic workflow verifier (analysis package)",
            "host": host,
            "analysis": bench_analysis(args.rounds),
        }
        _write(args.analysis_out, record)
        # The witness replays the simulated journal, so its precision is a
        # ratio of counts that repeat exactly on any host: every host is
        # its own reference and the floor holds everywhere.
        if args.min_witness_precision is not None and not enforce_gate(
            "race-witness precision (--min-witness-precision)",
            record["analysis"]["race_witness"]["precision"],
            args.min_witness_precision,
            host,
            host,
            mode="min",
        ):
            return 1

    if args.suite in ("all", "obs"):
        host = _host()
        record = {
            "benchmark": "span telemetry overhead (many_cases workload)",
            "host": host,
            "obs": bench_obs(args.rounds, cases=args.cases),
        }
        _write(args.obs_out, record)
        if args.max_disabled_overhead is not None and not enforce_gate(
            "spans-off disabled-overhead (--max-disabled-overhead)",
            record["obs"]["disabled_overhead_pct"],
            args.max_disabled_overhead,
            host,
            PRE_OBS_BASELINE["host"],
            mode="max",
            unit="%",
            fmt="{:+.1f}",
        ):
            return 1

    if args.suite in ("all", "planlib"):
        host = _host()
        record = {
            "benchmark": "plan library warm-start (plan_mix workload)",
            "host": host,
            "planlib": bench_planlib(),
        }
        _write(args.planlib_out, record)
        gate = record["planlib"]["library_off_identity"]
        if not gate["identical"]:
            print(
                "FAIL: library-off grid diverges from the unwired grid: "
                f"{gate.get('first_divergence')}"
            )
            return 1
        if args.min_warm_speedup is not None and not enforce_gate(
            "warm-hit speedup (--min-warm-speedup)",
            record["planlib"]["warm_speedup_p50"],
            args.min_warm_speedup,
            host,
            PLANLIB_REFERENCE["host"],
            mode="min",
            unit="x",
        ):
            return 1

    if args.suite in ("all", "prov"):
        host = _host()
        record = {
            "benchmark": "case flight recorder (journal + provenance replay)",
            "host": host,
            "prov": bench_prov(args.rounds, cases=args.cases),
        }
        _write(args.prov_out, record)
        mismatched = record["prov"]["replay"]["replay_mismatched"]
        if mismatched:
            print(
                "FAIL: provenance replayed from storage differs from the "
                f"live journal for {mismatched}"
            )
            return 1
        if args.max_journal_overhead is not None and not enforce_gate(
            "journal-off disabled-overhead (--max-journal-overhead)",
            record["prov"]["journal_disabled_overhead_pct"],
            args.max_journal_overhead,
            host,
            PRE_PROV_BASELINE["host"],
            mode="max",
            unit="%",
            fmt="{:+.1f}",
        ):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
