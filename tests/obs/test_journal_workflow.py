"""Integration: the case journal against live enactments.

Covers the flight-recorder acceptance properties — on real workloads
(standard and failing grids) the provenance graph replayed
from a case's storage blob equals the one built from the live journal,
storage mirroring, and the byte-identity guarantee of the
disabled/record-only modes.
"""

import pytest

from repro.errors import ObservabilityError, ServiceError
from repro.obs.journal import JOURNAL_KEY_PREFIX, decode_events, journal_storage_key
from repro.obs.provenance import ProvenanceGraph, journal_replay
from repro.planner import GPConfig
from repro.services import standard_environment
from repro.virolab import planning_problem, process_description
from repro.workloads.many_cases import (
    many_cases_initial_data,
    many_cases_process,
    many_cases_services,
    run_many_cases,
)
from tests.services.conftest import drive, synthetic_services


def assert_replay_matches(storage, journal, case_id):
    """The graph rebuilt from the stored blob alone equals the live one."""
    replay = journal_replay(storage, case_id)
    live = ProvenanceGraph.from_journal(journal, case_id)
    assert replay["graph"].to_json() == live.to_json()
    return replay


def _enact(env, services, cases, rounds=2):
    process = many_cases_process(rounds)
    outcomes = [None] * cases

    def enact_case(index):
        reply = yield from services.coordination.call(
            "coordination",
            "execute-task",
            {
                "process": process,
                "initial_data": many_cases_initial_data(index),
                "task": f"case-{index}",
            },
        )
        outcomes[index] = reply

    for index in range(cases):
        env.engine.spawn(enact_case(index), name=f"user-{index}")
    env.run(max_events=2_000_000)
    return outcomes


class TestWorkloadJournal:
    def test_disabled_journal_records_nothing(self):
        result = run_many_cases(cases=4, containers=2)
        stats = result["journal"]
        assert stats["enabled"] is False
        assert stats["appended"] == 0
        assert stats["cases"] == 0

    def test_record_mode_keeps_storage_clean(self):
        result = run_many_cases(cases=4, containers=2, journal="record")
        assert result["journal"]["appended"] > 0
        assert result["journal"]["flushed"] == 0
        journal_keys = [
            key
            for key in result["services"].storage.keys()
            if key.startswith(JOURNAL_KEY_PREFIX)
        ]
        assert journal_keys == []

    def test_mirror_mode_flushes_and_replays_every_case(self):
        cases = 6
        result = run_many_cases(
            cases=cases, containers=3, journal=True, spans=True
        )
        env, services = result["env"], result["services"]
        stats = result["journal"]
        assert stats["appended"] == stats["flushed"] > 0
        for index in range(cases):
            case_id = f"case-{index}"
            assert services.storage.get(journal_storage_key(case_id))
            replay = assert_replay_matches(services.storage, env.journal, case_id)
            assert replay["case"] == case_id
            assert replay["activities"] > 0
            runs = replay["graph"].activities.values()
            assert any(run.status == "completed" for run in runs)

    def test_replay_of_unknown_case_raises(self):
        result = run_many_cases(cases=2, containers=2, journal=True)
        with pytest.raises(ObservabilityError):
            journal_replay(result["services"].storage, "no-such-case")


class TestFailureJournal:
    def test_replan_recorded_and_aborted_activity_not_lost(self):
        # Mirror the replanning suite's recipe: scan seeds for a run
        # that actually replans under heavy Bernoulli failures.
        for seed in range(6):
            env, services, _ = standard_environment(
                synthetic_services(),
                containers=3,
                failure_probability=0.4,
                failure_seed=seed,
                planner_config=GPConfig(population_size=30, generations=5),
                planner_seed=seed,
                journal=True,
                spans=True,
            )
            request = {
                "process": process_description(),
                "initial_data": {
                    "D1": {"Classification": "POD-Parameter"},
                    "D2": {"Classification": "P3DR-Parameter"},
                    "D3": {"Classification": "P3DR-Parameter"},
                    "D4": {"Classification": "P3DR-Parameter"},
                    "D5": {"Classification": "POR-Parameter"},
                    "D6": {"Classification": "PSF-Parameter"},
                    "D7": {"Classification": "2D Image"},
                },
                "task": "case",
                "problem": planning_problem(),
            }
            try:
                result = drive(
                    env,
                    services.coordination,
                    lambda: services.coordination.call(
                        "coordination", "execute-task", request
                    ),
                    max_events=5_000_000,
                )
            except ServiceError:
                continue
            if result.get("replans", 0) < 1:
                continue

            events = env.journal.events("case")
            kinds = [event.kind for event in events]
            replans = [e for e in events if e.kind == "replan"]
            assert len(replans) == result["replans"]
            aborted = replans[0].attrs["aborted"]
            # the aborted activity run survives as a failed node
            graph = ProvenanceGraph.from_journal(env.journal, "case")
            aborted_runs = [
                run
                for run in graph.activities.values()
                if run.name == aborted
            ]
            assert any(run.status == "failed" for run in aborted_runs)
            # failure did not corrupt the mirrored record
            assert_replay_matches(services.storage, env.journal, "case")
            assert kinds[-1] == "case-complete"
            return
        pytest.skip("no seed in range produced a replanning run")


class TestEvictionMidRun:
    def test_evicted_case_files_and_mirrors_nothing_more(self):
        env, services, _ = standard_environment(
            many_cases_services(), containers=3, journal=True
        )
        journal = env.journal
        journal.max_cases = 2
        outcomes = _enact(env, services, 5)
        assert all(o["status"] == "completed" for o in outcomes)
        stats = journal.stats()
        # case-0..2 are evicted at the later intakes, each holding its
        # intake and compile; their later events have no case to join.
        assert stats["cases_evicted"] == 3
        assert stats["events_lost"] == 6
        assert stats["unbound_dropped"] == 66
        assert journal.case_ids() == ("case-4", "case-3")
        blobs = {
            key: decode_events(services.storage.get(key))[1]
            for key in services.storage.keys()
            if key.startswith(JOURNAL_KEY_PREFIX)
        }
        assert sorted(blobs) == ["journal/case-3", "journal/case-4"]
        for events in blobs.values():
            assert len(events) == 24
            assert events[0].kind == "case-intake"
            assert events[-1].kind == "case-complete"
            assert len({event.trace for event in events}) == 1

        # Lazy sync finds no blob for an evicted case and so leaves the
        # resident cases alone.
        reply = drive(
            env,
            services.coordination,
            lambda: services.coordination.call(
                "monitoring", "journal", {"case": "case-0"}
            ),
        )
        assert reply["events"] == []
        assert journal.case_ids() == ("case-4", "case-3")
        assert journal.stats()["cases_synced"] == 0


class TestReusedCaseId:
    def test_every_event_carries_its_own_enactment_trace(self):
        env, services, _ = standard_environment(
            many_cases_services(), containers=2, journal="record"
        )
        process = many_cases_process(1)

        def enact_twice():
            for index in range(2):
                yield from services.coordination.call(
                    "coordination",
                    "execute-task",
                    {
                        "process": process,
                        "initial_data": many_cases_initial_data(index),
                        "task": "dup",
                    },
                )

        env.engine.spawn(enact_twice(), name="user")
        env.run(max_events=2_000_000)
        events = env.journal.events("dup")
        intakes = [i for i, e in enumerate(events) if e.kind == "case-intake"]
        assert len(intakes) == 2
        first, second = events[: intakes[1]], events[intakes[1]:]
        assert first[-1].kind == second[-1].kind == "case-complete"
        assert {e.trace for e in first} == {first[0].trace}
        assert {e.trace for e in second} == {second[0].trace}
        assert first[0].trace != second[0].trace
        # both sides of the exchange: coordinator and container events
        assert {"dispatch", "execute"} <= {e.kind for e in second}
