"""Unit tests for the case flight recorder (`repro.obs.journal`)."""

import pytest

from repro.errors import ServiceError
from repro.grid.environment import GridEnvironment
from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    SPAN_EVENTS,
    CaseJournal,
    encode_events,
)
from repro.obs.spans import SpanRecorder
from repro.process import ActivityKind, ProcessDescription
from repro.services import standard_environment
from repro.sim.engine import Engine
from repro.virolab import process_description
from repro.workloads import run_many_cases
from tests.services.conftest import drive, synthetic_services


def make_journal(enabled=True, max_cases=4096):
    return CaseJournal(Engine(), enabled=enabled, max_cases=max_cases)


class TestRecording:
    def test_disabled_by_default_records_nothing(self):
        journal = CaseJournal(Engine())
        assert journal.enabled is False
        assert journal.append("c1", "case-intake") is None
        journal.bind("t-1", "c1")
        assert journal.append_traced("t-1", "execute") is None
        assert journal.events("c1") == []
        stats = journal.stats()
        assert stats["appended"] == 0
        assert stats["cases"] == 0
        assert stats["unbound_dropped"] == 0

    def test_append_orders_events_with_global_seq(self):
        journal = make_journal()
        journal.append("c1", "case-intake", agent="coord")
        journal.append("c2", "case-intake", agent="coord")
        journal.append("c1", "dispatch", agent="coord", activity="a")
        events = journal.events("c1")
        assert [e.kind for e in events] == ["case-intake", "dispatch"]
        assert events[0].seq < events[1].seq
        assert journal.total_appended == 3
        # LRU order: the append to c1 refreshed it past c2
        assert journal.case_ids() == ("c2", "c1")

    def test_bind_resolves_traced_appends_and_backfills_trace(self):
        journal = make_journal()
        journal.bind("trace-9", "c1")
        journal.append("c1", "case-intake", trace_id="trace-9")
        # trace omitted -> auto-filled from the intake binding
        event = journal.append("c1", "dispatch", activity="a")
        assert event.trace == "trace-9"
        remote = journal.append_traced("trace-9", "execute", agent="ac1", node="n1")
        assert remote.case == "c1"
        assert remote.attrs["node"] == "n1"
        assert journal.case_for_trace("trace-9") == "c1"
        assert journal.trace_for_case("c1") == "trace-9"

    def test_unbound_traced_append_is_dropped_and_counted(self):
        journal = make_journal()
        assert journal.append_traced("nope", "execute") is None
        assert journal.unbound_dropped == 1
        assert journal.stats()["unbound_dropped"] == 1


class TestRetention:
    def test_lru_eviction_exact_accounting(self):
        journal = make_journal(max_cases=2)
        for case in ("c1", "c2", "c3"):
            journal.append(case, "case-intake")
            journal.append(case, "case-complete")
        assert journal.case_ids() == ("c2", "c3")
        assert journal.cases_evicted == 1
        assert journal.events_evicted == 2
        assert journal.total_appended == 6

    def test_eviction_unbinds_every_trace_of_the_case(self):
        journal = make_journal(max_cases=1)
        journal.bind("t-1", "c1")
        journal.bind("t-2", "c1")  # a second enactment under one case id
        journal.append_traced("t-2", "case-intake")
        journal.append("c2", "case-intake")  # evicts c1
        assert journal.case_for_trace("t-1") is None
        assert journal.case_for_trace("t-2") is None
        assert journal.append_traced("t-2", "dispatch") is None
        assert journal.unbound_dropped == 1
        assert journal.case_ids() == ("c2",)

    def test_appending_refreshes_lru_position(self):
        journal = make_journal(max_cases=2)
        journal.append("c1", "case-intake")
        journal.append("c2", "case-intake")
        journal.append("c1", "dispatch")  # c1 now most-recently-used
        journal.append("c3", "case-intake")
        assert journal.case_ids() == ("c1", "c3")

    def test_purge_drops_cases_but_keeps_counters(self):
        journal = make_journal()
        journal.append("c1", "case-intake")
        journal.append("c2", "case-intake")
        cases, events = journal.purge()
        assert (cases, events) == (2, 2)
        assert journal.case_ids() == ()
        assert journal.total_appended == 2  # history preserved

    def test_clear_resets_everything(self):
        journal = make_journal()
        journal.append("c1", "case-intake")
        journal.clear()
        assert journal.total_appended == 0
        assert journal.case_ids() == ()


class TestEncoding:
    def test_header_carries_schema_and_count(self):
        blob = encode_events("c1", []).decode("utf-8")
        header = blob.split("\n")[0]
        assert f'"schema":{JOURNAL_SCHEMA_VERSION}' in header
        assert '"events":0' in header

    def test_encoding_is_byte_stable(self):
        journal = make_journal()
        journal.append("c1", "case-intake", zeta=1, alpha=2)
        assert journal.encode_case("c1") == journal.encode_case("c1")


def recording_pair():
    """A span recorder feeding an enabled journal, as the environment
    wires them."""
    engine = Engine()
    recorder = SpanRecorder(engine, enabled=True)
    recorder.journal = CaseJournal(engine, enabled=True)
    return recorder, recorder.journal


class TestSpanDerivation:
    @pytest.mark.parametrize("rule", list(SPAN_EVENTS), ids="-".join)
    def test_each_rule_files_its_event_with_exactly_its_attributes(self, rule):
        kind, phase, status = rule
        event_kind, name_attr, carried = SPAN_EVENTS[rule]
        recorder, journal = recording_pair()
        attrs = {key: f"{key}-value" for key in carried}
        start_attrs = attrs if phase == "start" else {}
        if kind == "case":
            span = recorder.start(
                "the-name", "case", agent="agent-x", trace_id="t-1",
                case="c1", unrelated=1, **start_attrs,
            )
        else:
            case = recorder.start("task", "case", agent="coord", trace_id="t-1", case="c1")
            span = recorder.start(
                "the-name", kind, agent="agent-x", parent=case, unrelated=1,
                **start_attrs,
            )
        filed = len(journal.events("c1"))
        if phase == "end":
            assert filed == 1  # only the intake: nothing at this start
            recorder.end(span, status=status, **attrs)
        event = journal.events("c1")[-1]
        expected = dict(attrs)
        if name_attr is not None:
            expected[name_attr] = "the-name"
        assert (event.kind, event.agent, event.trace) == (event_kind, "agent-x", "t-1")
        assert event.attrs == expected

    def test_absent_span_attributes_are_not_carried(self):
        recorder, journal = recording_pair()
        case = recorder.start("task", "case", trace_id="t-1", case="c1")
        recorder.end(recorder.start("x", "refusal", parent=case, reason="why"))
        assert journal.events("c1")[-1].attrs == {"reason": "why"}

    @pytest.mark.parametrize(
        ("kind", "status"),
        [
            ("match", "ok"), ("schedule", "error"), ("enact", "ok"),
            ("fork", "ok"), ("choice", "ok"), ("loop", "error"),
            ("slot-wait", "ok"), ("compute", "error"), ("storage", "ok"),
            ("gp", "ok"), ("plan", "error"), ("payload", "error"),
        ],
    )
    def test_other_boundaries_file_nothing(self, kind, status):
        recorder, journal = recording_pair()
        case = recorder.start("task", "case", trace_id="t-1", case="c1")
        recorder.end(
            recorder.start("x", kind, parent=case, activity="a", key="k"),
            status=status,
        )
        assert [e.kind for e in journal.events("c1")] == ["case-intake"]
        assert journal.unbound_dropped == 0

    def test_unbound_trace_is_dropped_and_counted(self):
        recorder, journal = recording_pair()
        recorder.start("a", "execute", trace_id="t-unbound", service="s")
        assert journal.case_ids() == ()
        assert journal.unbound_dropped == 1

    def test_disabled_journal_is_not_fed(self):
        recorder, journal = recording_pair()
        journal.enabled = False
        case = recorder.start("task", "case", trace_id="t-1", case="c1")
        recorder.end(case)
        assert journal.stats()["appended"] == 0
        assert journal.case_for_trace("t-1") is None

    def test_journal_enables_spans_but_spans_alone_journal_nothing(self):
        assert GridEnvironment(journal=True).spans.enabled is True
        assert GridEnvironment().spans.enabled is False
        result = run_many_cases(cases=2, containers=2, spans=True)
        assert result["spans"]["started"] > 0
        assert result["journal"]["appended"] == 0
        assert result["journal"]["unbound_dropped"] == 0


def _doctored_plan_case(reply):
    """Enact a "Need Planning" case whose planner returns *reply*."""
    env, services, _ = standard_environment(
        synthetic_services(), containers=1, journal=True
    )
    services.planning.handle_plan = lambda message: dict(reply)
    with pytest.raises(ServiceError) as err:
        drive(
            env,
            services.coordination,
            lambda: services.coordination.call(
                "coordination",
                "execute-task",
                {"problem": object(), "initial_data": {"D1": {}}, "task": "t"},
            ),
        )
    return env.journal.events("t"), str(err.value)


class TestCoordinatorEvents:
    def test_unverified_library_plan_refusal(self):
        process = process_description()
        events, error = _doctored_plan_case(
            {"process": process, "source": "hit", "verified": False,
             "solved": True, "fitness": 2.5}
        )
        assert [(e.kind, e.attrs) for e in events] == [
            ("case-intake", {"process": None, "initial": ["D1"], "payload_keys": []}),
            ("plan", {"source": "hit", "process": process.name,
                      "solved": True, "fitness": 2.5}),
            ("refusal", {"reason": "unverified-library-plan", "source": "hit",
                         "process": process.name}),
            ("case-fail", {"error": events[-1].attrs["error"]}),
        ]
        assert "not re-verified" in events[-1].attrs["error"] in error
        assert len({e.trace for e in events}) == 1

    def test_compile_error(self):
        bad = ProcessDescription("bad")
        bad.add("BEGIN", ActivityKind.BEGIN)
        bad.add("END", ActivityKind.END)
        bad.add("F", ActivityKind.FORK)
        bad.add("A")
        bad.add("J", ActivityKind.JOIN)
        for src, dst in [("BEGIN", "F"), ("F", "A"), ("F", "J"), ("A", "J"), ("J", "END")]:
            bad.connect(src, dst)
        events, error = _doctored_plan_case({"process": bad})
        kinds = [e.kind for e in events]
        assert kinds == ["case-intake", "plan", "compile", "case-fail"]
        assert events[1].attrs == {
            "source": "gp", "process": "bad", "solved": None, "fitness": None,
        }
        compile_event = events[2]
        assert set(compile_event.attrs) == {"process", "error"}
        assert compile_event.attrs["process"] == "bad"
        assert compile_event.attrs["error"] in error
