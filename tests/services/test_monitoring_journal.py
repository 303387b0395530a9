"""Monitoring service: the journal/provenance RPC surface.

``journal`` / ``provenance`` / ``lineage`` expose the case flight
recorder over the monitoring protocol and read the resident journal
only; ``journal-purge`` is the retention verb.
"""

import pytest

from repro.errors import ServiceError
from repro.services import standard_environment
from repro.workloads.many_cases import (
    many_cases_initial_data,
    many_cases_process,
    many_cases_services,
)
from tests.services.conftest import drive


def journal_grid(journal=True, journal_cases=None):
    kwargs = {"journal": journal, "spans": True}
    env, services, fleet = standard_environment(
        many_cases_services(), containers=3, **kwargs
    )
    if journal_cases is not None:
        env.journal.max_cases = journal_cases
    return env, services, fleet


def enact(env, services, cases=3):
    process = many_cases_process(rounds=2)
    user = services.coordination
    for index in range(cases):
        drive(
            env,
            user,
            lambda: user.call(
                "coordination",
                "execute-task",
                {
                    "process": process,
                    "initial_data": many_cases_initial_data(index),
                    "task": f"case-{index}",
                },
            ),
        )
    return user


class TestJournalRPC:
    def test_journal_summary_and_case_events(self):
        env, services, _ = journal_grid()
        user = enact(env, services)
        summary = drive(env, user, lambda: user.call("monitoring", "journal", {}))
        assert summary["enabled"] is True
        assert summary["stats"]["appended"] > 0
        assert "case-0" in summary["cases"]

        detail = drive(
            env, user,
            lambda: user.call("monitoring", "journal", {"case": "case-1"}),
        )
        kinds = [event["kind"] for event in detail["events"]]
        assert kinds[0] == "case-intake"
        assert kinds[-1] == "case-complete"
        assert "dispatch" in kinds and "execute" in kinds

        limited = drive(
            env, user,
            lambda: user.call(
                "monitoring", "journal", {"case": "case-1", "limit": 2}
            ),
        )
        assert len(limited["events"]) == 2

    def test_journal_disabled_reports_so(self):
        env, services, _ = journal_grid(journal=False)
        user = enact(env, services, cases=1)
        summary = drive(env, user, lambda: user.call("monitoring", "journal", {}))
        assert summary["enabled"] is False
        assert summary["cases"] == []

    def test_unknown_case_returns_empty_events(self):
        env, services, _ = journal_grid()
        user = enact(env, services, cases=1)
        detail = drive(
            env, user,
            lambda: user.call("monitoring", "journal", {"case": "ghost"}),
        )
        assert detail["events"] == []


class TestProvenanceRPC:
    def test_provenance_graph_for_case(self):
        env, services, _ = journal_grid()
        user = enact(env, services)
        reply = drive(
            env, user,
            lambda: user.call("monitoring", "provenance", {"case": "case-0"}),
        )
        assert reply["case"] == "case-0"
        assert reply["events"] > 0
        assert reply["activities"]
        assert all(a["case"] == "case-0" for a in reply["activities"])
        assert reply["edges"]

    def test_lineage_backward_and_forward(self):
        env, services, _ = journal_grid()
        user = enact(env, services)
        lineage = drive(
            env, user,
            lambda: user.call(
                "monitoring", "lineage", {"key": "out", "case": "case-0"}
            ),
        )
        assert lineage["target"].endswith(":out")
        assert lineage["activities"]

        forward = drive(
            env, user,
            lambda: user.call(
                "monitoring",
                "lineage",
                {
                    "key": lineage["activities"][0]["name"],
                    "case": "case-0",
                    "direction": "descendants",
                },
            ),
        )
        assert forward["activities"]

    def test_lineage_unknown_key_is_service_error(self):
        env, services, _ = journal_grid()
        user = enact(env, services, cases=1)
        with pytest.raises(ServiceError):
            drive(
                env, user,
                lambda: user.call(
                    "monitoring", "lineage", {"key": "no-such-data"}
                ),
            )


class TestJournalPurge:
    def test_purge_clears_resident_cases(self):
        env, services, _ = journal_grid()
        user = enact(env, services)
        assert env.journal.stats()["cases"] == 3
        reply = drive(
            env, user, lambda: user.call("monitoring", "journal-purge", {})
        )
        assert reply["purged_cases"] == 3
        assert reply["purged_events"] > 0
        assert "storage_deleted" not in reply
        assert env.journal.stats()["cases"] == 0
        # cumulative counters survive the purge for post-mortem accounting
        assert reply["stats"]["appended"] > 0
