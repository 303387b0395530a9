"""Span recorder lifecycle, accounting, and watch rules."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.spans import NO_SPAN, Alert, SpanRecorder, WatchRule
from repro.sim.engine import Engine


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def recorder(engine):
    return SpanRecorder(engine, enabled=True)


class TestLifecycle:
    def test_disabled_start_returns_none(self, engine):
        recorder = SpanRecorder(engine, enabled=False)
        assert recorder.start("x", "case") is None
        recorder.end(None)  # no-op, no error
        assert recorder.total_started == 0
        assert recorder.total_closed == 0

    def test_open_close_pairing(self, engine, recorder):
        span = recorder.start("case-0", "case", agent="coordination")
        assert not span.closed
        assert span.duration == 0.0
        assert recorder.open_count == 1
        engine.now = 4.0
        recorder.end(span)
        assert span.closed
        assert span.start == 0.0 and span.end == 4.0
        assert span.duration == 4.0
        assert recorder.open_count == 0
        assert recorder.total_started == recorder.total_closed == 1

    def test_double_close_raises(self, recorder):
        span = recorder.start("x", "case")
        recorder.end(span)
        with pytest.raises(ObservabilityError, match="closed twice"):
            recorder.end(span)

    def test_parent_nesting_and_trace_inheritance(self, engine, recorder):
        root = recorder.start("case-0", "case", trace_id="trace-7")
        child = recorder.start("plan", "plan", parent=root)
        grandchild = recorder.start("gp", "gp", parent=child)
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        # trace_id flows down unless overridden
        assert child.trace_id == "trace-7"
        assert grandchild.trace_id == "trace-7"
        own = recorder.start("other", "plan", parent=root, trace_id="trace-9")
        assert own.trace_id == "trace-9"
        for span in (grandchild, child, own, root):
            recorder.end(span)
        tree = list(recorder.tree(root))
        assert [(d, s.name) for d, s in tree] == [
            (0, "case-0"), (1, "plan"), (2, "gp"), (1, "other"),
        ]

    def test_status_and_attrs_on_end(self, recorder):
        span = recorder.start("a", "activity", service="POD")
        recorder.end(span, status="error", retries=2)
        assert span.status == "error"
        assert span.attrs == {"service": "POD", "retries": 2}
        as_dict = span.as_dict()
        assert as_dict["status"] == "error"
        assert as_dict["attrs"]["retries"] == 2

    def test_eviction_accounting_under_bounded_capacity(self, engine):
        recorder = SpanRecorder(engine, enabled=True, capacity=3)
        spans = [recorder.start(f"s{i}", "case") for i in range(10)]
        for span in spans:
            recorder.end(span)
        assert len(recorder.closed) == 3
        assert recorder.total_started == 10
        assert recorder.total_closed == 10
        assert recorder.evicted == 7
        # the resident window holds the newest spans
        assert [s.name for s in recorder.closed] == ["s7", "s8", "s9"]

    def test_bad_capacity_rejected(self, engine):
        with pytest.raises(ObservabilityError):
            SpanRecorder(engine, capacity=0)

    def test_queries_and_kinds(self, recorder):
        a = recorder.start("a", "case", trace_id="t1")
        b = recorder.start("b", "activity", trace_id="t1")
        c = recorder.start("c", "activity", trace_id="t2")
        for span in (a, b, c):
            recorder.end(span)
        assert [s.name for s in recorder.spans(trace_id="t1")] == ["a", "b"]
        assert [s.name for s in recorder.spans(kind="activity")] == ["b", "c"]
        assert [s.name for s in recorder.spans(name="c")] == ["c"]
        assert recorder.kinds() == ["case", "activity"]

    def test_open_spans_filter(self, recorder):
        recorder.start("t", "transfer")
        recorder.start("c", "compute")
        assert len(recorder.open_spans()) == 2
        assert [s.name for s in recorder.open_spans(kind="transfer")] == ["t"]

    def test_clear_resets_accounting(self, recorder):
        recorder.end(recorder.start("x", "case"))
        recorder.clear()
        assert recorder.total_started == 0
        assert recorder.total_closed == 0
        assert len(recorder.closed) == 0

    def test_mid_run_disable_still_closes_open_spans(self, engine, recorder):
        span = recorder.start("x", "case")
        recorder.enabled = False
        assert recorder.start("y", "case") is None
        recorder.end(span)  # opened while enabled: closes normally
        assert recorder.total_closed == 1


class TestScopedSpans:
    def test_block_exit_closes_ok(self, engine, recorder):
        with recorder.span("a", "activity", service="POD") as span:
            assert recorder.open_count == 1
            engine.now = 2.0
            span.set(retries=0)
            span.rename("A")
        assert (span.status, span.end, span.name) == ("ok", 2.0, "A")
        assert span.attrs == {"service": "POD", "retries": 0}
        assert recorder.open_count == 0

    def test_exception_closes_error_and_propagates(self, recorder):
        with pytest.raises(ValueError, match="boom"), recorder.span("a", "activity") as span:
            span.set(reason="boom")
            raise ValueError("boom")
        assert span.status == "error"
        assert span.attrs == {"reason": "boom"}
        assert recorder.open_count == 0

    def test_generator_exit_leaves_the_span_open(self, recorder):
        def parked():
            with recorder.span("a", "activity"):
                yield

        process = parked()
        next(process)
        process.close()
        assert recorder.open_count == 1
        assert recorder.total_closed == 0

    def test_instant_is_zero_length_and_ok(self, engine, recorder):
        engine.now = 3.0
        root = recorder.start("case-0", "case", trace_id="t1")
        recorder.instant("choice", "choice", parent=root, branch=1)
        (span,) = recorder.spans(kind="choice")
        assert (span.start, span.end, span.status) == (3.0, 3.0, "ok")
        assert span.parent_id == root.span_id and span.trace_id == "t1"
        assert span.attrs == {"branch": 1}

    def test_disabled_recorder_hands_out_one_no_op_handle(self, engine):
        recorder = SpanRecorder(engine, enabled=False)
        first = recorder.span("a", "activity")
        with first as handle, recorder.span("b", "dispatch", parent=handle) as inner:
            handle.set(retries=1)
            handle.rename("A")
        assert first is inner is NO_SPAN
        with pytest.raises(ValueError), recorder.span("c", "compute"):
            raise ValueError("still propagates")
        recorder.instant("x", "refusal")
        assert recorder.total_started == recorder.total_closed == 0

    def test_no_span_parent_reads_as_no_parent(self, recorder):
        with recorder.span("a", "activity", parent=NO_SPAN) as span:
            pass
        assert span.parent_id is None and span.trace_id is None


class TestWatchRules:
    def test_unknown_op_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown op"):
            WatchRule("bad", "duration", 1.0, op="!=")

    def test_duration_rule_fires_on_close(self, engine, recorder):
        recorder.add_rule(WatchRule("slow", "duration", 5.0, kind="activity"))
        slow = recorder.start("a1", "activity", trace_id="t1")
        fast = recorder.start("a2", "activity")
        other = recorder.start("c", "compute")
        engine.now = 10.0
        recorder.end(slow)
        assert recorder.total_alerts == 1
        engine.now = 12.0
        recorder.end(fast)  # duration 12 > 5 -> fires too
        recorder.end(other)  # wrong kind: never fires
        assert recorder.total_alerts == 2
        alert = recorder.alerts[0]
        assert isinstance(alert, Alert)
        assert alert.rule == "slow" and alert.span_name == "a1"
        assert alert.value == 10.0 and alert.trace_id == "t1"
        assert alert.as_dict()["kind"] == "activity"

    def test_attribute_rule_skips_missing_and_non_numeric(self, recorder):
        recorder.add_rule(WatchRule("retries", "retries", 1.0, op=">="))
        recorder.end(recorder.start("a", "activity"))  # attr missing
        recorder.end(recorder.start("b", "activity", retries="two"))  # non-numeric
        recorder.end(recorder.start("c", "activity", retries=True))  # bool ignored
        assert recorder.total_alerts == 0
        recorder.end(recorder.start("d", "activity", retries=2))
        assert recorder.total_alerts == 1

    def test_all_operators(self, recorder):
        for op, bound, value, fires in [
            (">", 1.0, 2.0, True), (">=", 2.0, 2.0, True),
            ("<", 3.0, 2.0, True), ("<=", 1.0, 2.0, False),
            ("==", 2.0, 2.0, True),
        ]:
            recorder.rules = [WatchRule("r", "v", bound, op=op)]
            before = recorder.total_alerts
            recorder.end(recorder.start("x", "k", v=value))
            assert (recorder.total_alerts > before) is fires, (op, bound, value)

    def test_duplicate_rule_name_rejected(self, recorder):
        recorder.add_rule(WatchRule("r", "duration", 1.0))
        with pytest.raises(ObservabilityError, match="duplicate"):
            recorder.add_rule(WatchRule("r", "duration", 2.0))

    def test_remove_rule(self, recorder):
        recorder.add_rule(WatchRule("r", "duration", 1.0))
        assert recorder.remove_rule("r") is True
        assert recorder.remove_rule("r") is False

    def test_alert_ring_is_bounded(self, engine):
        recorder = SpanRecorder(engine, enabled=True, alert_capacity=2)
        recorder.add_rule(WatchRule("r", "v", 0.0))
        for i in range(5):
            recorder.end(recorder.start(f"s{i}", "k", v=float(i + 1)))
        assert recorder.total_alerts == 5
        assert [a.span_name for a in recorder.alerts] == ["s3", "s4"]
