"""The many_cases enactment workload and the throughput fast paths."""

import pytest

from repro.errors import WorkloadError
from repro.grid.messages import Performative
from repro.workloads import many_cases_process, run_many_cases


CASES = 4


@pytest.fixture(scope="module")
def default_run():
    return run_many_cases(cases=CASES, containers=2)


class TestWorkload:
    def test_all_cases_complete(self, default_run):
        assert default_run["completed"] == CASES
        assert all(o["status"] == "completed" for o in default_run["outcomes"])

    def test_activity_count(self, default_run):
        # ingest + 3 fork parts + 3 refine rounds + 1 publish = 8 per case.
        assert default_run["activities_run"] == 8 * CASES

    def test_publish_route_alternates(self, default_run):
        outs = [o["data"]["out"] for o in default_run["outcomes"]]
        assert [("Archived" in props) for props in outs] == [
            i % 2 != 0 for i in range(CASES)
        ]

    def test_loop_runs_requested_rounds(self):
        result = run_many_cases(cases=CASES, containers=2, spans=True)
        loops = result["env"].spans.spans(kind="loop")
        # One loop per case, each ended by its condition, not the bound.
        assert len({span.trace_id for span in loops}) == CASES
        assert [span.attrs for span in loops] == [{"iterations": 3}] * CASES

    def test_no_counter_series_per_case(self, default_run):
        # Per-case facts live in task-status and the journal; counters
        # are per agent, so the registry does not grow with the cases.
        tasks = {f"case-{i}" for i in range(CASES)}
        counters = default_run["env"].metrics.dump()["counters"]
        per_case = [
            (name, series)
            for name, table in counters.items()
            for series in table
            if series.split("|")[1] in tasks
        ]
        assert per_case == []
        assert counters["enactments_completed"] == {"coordination|": CASES}

    def test_rejects_zero_cases(self):
        with pytest.raises(WorkloadError):
            run_many_cases(cases=0)

    def test_process_is_well_structured(self):
        from repro.process import process_to_ast

        assert process_to_ast(many_cases_process()) is not None


class TestProgramCache:
    def test_shared_compilation_across_cases(self, default_run):
        counters = default_run["counters"]
        assert counters["program_cache_miss"] == 1
        assert counters["program_cache_hit"] == CASES - 1


class TestRouterFastPath:
    def test_tracing_off_same_enactment(self, default_run):
        fast = run_many_cases(cases=CASES, containers=2, tracing=False)
        assert len(fast["env"].trace) == 0  # nothing recorded...
        assert (
            fast["counters"]["messages_delivered"]
            == default_run["counters"]["messages_delivered"]
        )  # ...but everything delivered
        assert fast["messages"] == default_run["messages"]
        assert fast["outcomes"] == default_run["outcomes"]


    @pytest.mark.parametrize("shards", [0, 2])
    def test_messages_counted_with_tracing_off(self, shards):
        # ``messages`` reads the registry's delivery count, which is exact
        # whether or not the trace records each message.
        fast = run_many_cases(cases=8, containers=4, tracing=False, shards=shards)
        assert fast["messages"] == 976


class TestCandidateCache:
    """The coordinator's ranked-match entries in the read-through cache."""

    def test_cache_hits_and_saved_messages(self, default_run):
        cached = run_many_cases(cases=CASES, containers=2, cache_ttl=300.0)
        counters = cached["counters"]
        assert counters["coord_match_cache_hit"] > 0
        assert (
            counters["messages_sent"] < default_run["counters"]["messages_sent"]
        )
        assert cached["completed"] == CASES

    def test_registry_change_invalidates_selectively(self):
        # The broker's push names the affected services: only their cached
        # match replies drop; every other service's entries stay warm.
        result = run_many_cases(cases=2, containers=2, cache_ttl=1e9)
        services = result["services"]
        coordinator = services.coordination
        cached = set(coordinator._cache)
        assert ("match", "ingest") in cached  # warm after the run
        assert len(cached) > 1
        from repro.services.brokerage import ContainerAd

        services.brokerage.advertise(
            ContainerAd("ac-new", "siteA", ["ingest"], 1.0, 0.0)
        )
        result["env"].run()  # deliver the registry-changed push
        assert set(coordinator._cache) == cached - {("match", "ingest")}

    def test_registry_push_without_detail_flushes_everything(self):
        # Backwards-compatible push shape (no container/services payload):
        # subscribers fall back to a full flush.
        result = run_many_cases(cases=2, containers=2, cache_ttl=1e9)
        services = result["services"]
        assert services.coordination._cache and services.scheduling._cache
        services.brokerage._registry_changed()
        result["env"].run()
        assert not services.coordination._cache
        assert not services.scheduling._cache


class TestFactCache:
    """The scheduler's candidate-fact entries in the read-through cache."""

    def test_registry_change_drops_only_the_named_container(self):
        # A push naming container C drops the keys ending in C — its
        # monitor status and every (service, C) performance row — and
        # keeps the rest of the fleet's facts warm.
        result = run_many_cases(cases=2, containers=2, cache_ttl=1e9)
        services = result["services"]
        scheduler = services.scheduling
        cached = set(scheduler._cache)
        assert {key[-1] for key in cached} == {"ac1", "ac2"}
        assert services.brokerage.withdraw("ac1")
        result["env"].run()
        assert set(scheduler._cache) == {
            key for key in cached if key[-1] != "ac1"
        }


class TestMissCoalescing:
    def test_concurrent_cold_misses_join_one_lookup(self):
        # All cases fan out at t~0, so without in-flight coalescing every
        # cold key misses once per case (the stampede).  With it, misses
        # equal the distinct-key count and the rest join the leader's RPC.
        result = run_many_cases(cases=8, containers=2, cache_ttl=300.0)
        counters = result["counters"]
        assert counters["sched_fact_cache_join"] > 0
        assert counters["coord_match_cache_join"] > 0
        # Distinct fact keys only: ("status", c) and ("perf", service, c).
        distinct = len(result["services"].scheduling._cache)
        assert counters["sched_fact_cache_miss"] == distinct
        assert result["completed"] == 8


class TestPerformanceReports:
    def test_one_way_reports_reach_broker(self, default_run):
        # Every activity's performance report reaches the broker as a
        # one-way INFORM: the broker books one run per activity and
        # sends no reply back.
        broker = default_run["services"].brokerage
        recorded = sum(perf.runs for perf in broker._performance.values())
        assert recorded == default_run["activities_run"]
        reports = [
            event.message
            for event in default_run["env"].trace.events()
            if event.message.action == "record-performance"
        ]
        assert len(reports) == default_run["activities_run"]
        assert all(
            message.sender == "coordination"
            and message.receiver == "brokerage"
            and message.performative is Performative.INFORM
            for message in reports
        )


class TestParallelDriver:
    """The process-pool side of the one process-split driver (``shards=N``)."""

    def test_parallel_merge_matches_serial(self):
        from repro.workloads import shard_assignment

        # Each shard is a deterministic simulation, so the pool's merge
        # must equal the same shards enacted serially in-process, with
        # outcomes placed back in global case order, timelines included.
        merged = run_many_cases(
            cases=6, containers=2, tracing=False, shards=2
        )
        populated = [
            (label, indices)
            for label, indices in shard_assignment(6, 2).items()
            if indices
        ]
        assert merged["shards"] == [
            {"shard": label, "cases": len(indices)}
            for label, indices in populated
        ]
        serial_outcomes = [None] * 6
        messages = 0
        for _, indices in populated:
            shard = run_many_cases(
                cases=len(indices), containers=2, tracing=False,
                case_indices=indices,
            )
            for index, outcome in zip(indices, shard["outcomes"]):
                serial_outcomes[index] = outcome
            messages += shard["messages"]
        assert repr(merged["outcomes"]) == repr(serial_outcomes)
        assert merged["messages"] == messages
        assert merged["completed"] == 6
        # Live objects cannot cross process boundaries.
        assert merged["env"] is None and merged["services"] is None

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        pooled = run_many_cases(cases=4, containers=2, tracing=False, shards=2)

        class DiesMidRun:
            # The pool starts, then a worker dies while mapping shards.
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

        # The driver imports the pool class at call time, so patching the
        # stdlib module intercepts it.
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", DiesMidRun
        )
        fallback = run_many_cases(
            cases=4, containers=2, tracing=False, shards=2
        )
        assert fallback["completed"] == 4
        assert fallback["pool_error"] == "BrokenProcessPool: worker died"
        # The serial fallback reruns the same shards: identical merge.
        assert repr(fallback["outcomes"]) == repr(pooled["outcomes"])
        assert fallback["shards"] == pooled["shards"]


class TestShardedDriver:
    def test_shard_assignment_is_deterministic_and_total(self):
        from repro.workloads import shard_assignment

        first = shard_assignment(50, 4)
        again = shard_assignment(50, 4)
        assert first == again
        indices = sorted(i for bucket in first.values() for i in bucket)
        assert indices == list(range(50))
        # Population-independent: a case keeps its shard when the
        # population grows.
        bigger = shard_assignment(200, 4)
        for label, bucket in first.items():
            assert set(bucket) <= set(bigger[label])

    def test_single_shard_builds_the_standard_grid(self):
        # One shard is the plain in-process run: a live environment and
        # no worker pool.
        result = run_many_cases(cases=2, containers=2, shards=1)
        assert result["env"] is not None
        assert "pool_error" not in result

    def test_merged_span_accounting(self):
        from repro.workloads import shard_assignment

        knobs = dict(containers=2, spans=True, journal=True)
        merged = run_many_cases(cases=6, shards=2, **knobs)
        per_shard = [
            run_many_cases(cases=len(indices), case_indices=indices, **knobs)
            for indices in shard_assignment(6, 2).values()
            if indices
        ]
        spans = merged["spans"]
        assert spans["enabled"] and merged["journal"]["enabled"]
        for key in ("started", "closed", "open", "evicted"):
            assert spans[key] == sum(run["spans"][key] for run in per_shard)
        assert spans["started"] == spans["closed"] > 0
        assert merged["journal"]["events"] == sum(
            run["journal"]["events"] for run in per_shard
        )

    def test_failed_shard_raises_without_rerun(self, monkeypatch):
        from repro.errors import SimulationError
        from repro.grid.environment import GridEnvironment

        # Every shard runs out of events in its worker.  The worker's
        # error comes back as raised, and no shard runs again in this
        # process (a forked worker counts into its own copy of the list).
        built = []
        init = GridEnvironment.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GridEnvironment, "__init__", counting_init)
        with pytest.raises(SimulationError):
            run_many_cases(cases=6, containers=2, shards=2, max_events=200)
        assert built == []

    def test_sharded_merge_matches_serial(self):
        serial = run_many_cases(cases=8, containers=2, tracing=False)
        merged = run_many_cases(
            cases=8, containers=2, tracing=False, shards=3
        )
        assert merged["sharded"] == 3
        assert merged["completed"] == 8
        assert sum(s["cases"] for s in merged["shards"]) == 8
        for mine, theirs in zip(merged["outcomes"], serial["outcomes"]):
            assert mine["status"] == theirs["status"] == "completed"
            assert mine["data"] == theirs["data"]
            assert mine["activities_run"] == theirs["activities_run"]
        assert merged["env"] is None and merged["services"] is None

    def test_case_indices_keep_case_identity(self):
        # A shard worker enacts global cases by index: case-3 keeps its
        # population-level initial data (odd index: the full route).
        result = run_many_cases(
            cases=2, containers=2, tracing=False, case_indices=[3, 4]
        )
        assert result["completed"] == 2
        outs = [o["data"]["out"] for o in result["outcomes"]]
        assert ["Archived" in props for props in outs] == [True, False]

    def test_case_indices_must_match_cases(self):
        with pytest.raises(WorkloadError):
            run_many_cases(cases=3, case_indices=[0, 1])

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from repro.workloads import many_cases

        class Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool for you")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", Boom
        )
        # The fallback runs the workers in this process, where the grids
        # they build can be counted: one standard grid per shard.
        built = []
        build = many_cases.standard_environment

        def recording_build(*args, **kwargs):
            env, services, fleet = build(*args, **kwargs)
            built.append(env)
            return env, services, fleet

        monkeypatch.setattr(many_cases, "standard_environment", recording_build)
        result = run_many_cases(
            cases=4, containers=2, tracing=False, shards=2
        )
        assert result["completed"] == 4
        assert "no pool for you" in result["pool_error"]
        assert len(built) == len(result["shards"]) == 2
