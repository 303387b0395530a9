"""End-to-end span telemetry over the many-cases workload.

These are the acceptance tests from the observability milestone: spans
stay default-off, a spans-on run pairs every span it opens, the per-case
profile attributes >= 95% of case sim time, and the Chrome export of a
real run validates.
"""

import pytest

from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.profile import case_profile
from repro.workloads import run_many_cases


CASES = 4


@pytest.fixture(scope="module")
def spans_run():
    return run_many_cases(cases=CASES, containers=2, spans=True)


class TestDefaultOff:
    def test_spans_disabled_by_default(self):
        result = run_many_cases(cases=2, containers=2)
        assert result["spans"] == {
            "enabled": False, "started": 0, "closed": 0, "open": 0,
            "evicted": 0,
        }

    def test_enabled_run_same_enactment(self, spans_run):
        plain = run_many_cases(cases=CASES, containers=2)
        assert spans_run["outcomes"] == plain["outcomes"]
        assert spans_run["messages"] == plain["messages"]
        assert spans_run["makespan"] == plain["makespan"]


class TestAccounting:
    def test_all_spans_paired(self, spans_run):
        accounting = spans_run["spans"]
        assert accounting["enabled"] is True
        assert accounting["started"] > 0
        assert accounting["started"] == accounting["closed"]
        assert accounting["open"] == 0

    def test_one_case_span_per_case(self, spans_run):
        recorder = spans_run["env"].spans
        cases = recorder.spans(kind="case")
        assert len(cases) == CASES
        assert sorted(s.name for s in cases) == [
            f"case-{i}" for i in range(CASES)
        ]
        assert all(s.status == "ok" for s in cases)

    def test_kind_vocabulary_covers_the_pipeline(self, spans_run):
        kinds = set(spans_run["env"].spans.kinds())
        # "plan"/"gp"/"payload"/"storage" need planning or payload cases;
        # those sites are exercised in tests/services instead.
        for expected in (
            "case", "compile", "enact", "activity", "match", "schedule",
            "dispatch", "schedule-eval", "execute", "slot-wait", "compute",
            "fork", "loop", "choice",
        ):
            assert expected in kinds, expected

    def test_spans_carry_the_message_trace_id(self, spans_run):
        recorder = spans_run["env"].spans
        root = recorder.spans(kind="case", name="case-0")[0]
        assert root.trace_id is not None
        joined = recorder.spans(trace_id=root.trace_id)
        # the container-side execute spans join the case through trace_id
        assert any(s.kind == "execute" for s in joined)


class TestProfileCoverage:
    @pytest.mark.parametrize("case", [f"case-{i}" for i in range(CASES)])
    def test_attributes_at_least_95_percent(self, spans_run, case):
        profile = case_profile(spans_run["env"].spans, case=case)
        assert profile["coverage"] >= 0.95

    def test_activity_rows_match_enactment(self, spans_run):
        profile = case_profile(spans_run["env"].spans, case="case-0")
        by_kind = {row["kind"]: row for row in profile["rows"]}
        # ingest + 3 fork parts + 3 refine rounds + 1 publish = 8
        assert by_kind["activity"]["count"] == 8
        assert len(profile["activities"]) > 0


class TestChromeExportOfRealRun:
    def test_export_validates(self, spans_run):
        document = chrome_trace(spans_run["env"].spans)
        events = validate_chrome_trace(document)
        assert events == spans_run["spans"]["closed"]
