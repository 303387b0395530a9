"""The ``race_witness`` checker: static conflicts replayed against journals.

Hand-built :class:`~repro.obs.journal.JournalEvent` sequences pin the
three verdicts — *confirmed* (execution windows overlap on the flagged
key), *refuted* (both ran, windows disjoint), *unobserved* (the journal
cannot decide).
"""

from repro.analysis import race_witness
from repro.analysis.concurrency import Conflict
from repro.obs.journal import JournalEvent

WW = Conflict("write-write", "FORK", "R", "WA", "WB")
RW = Conflict("read-write", "FORK", "Q", "RD", "WR")


def _event(seq, kind, time, **attrs):
    return JournalEvent(seq, "case-0", kind, time, agent="t", attrs=attrs)


def overlapping_events():
    """WA and WB interleave: [1, 5] x [2, 6], both writing R."""
    return [
        _event(0, "dispatch", 1.0, activity="WA", inputs=["D1"]),
        _event(1, "dispatch", 2.0, activity="WB", inputs=["D1"]),
        _event(2, "activity-complete", 5.0, activity="WA", outputs=["R"]),
        _event(3, "activity-complete", 6.0, activity="WB", outputs=["R"]),
    ]


def disjoint_events():
    """WA finishes before WB starts: [1, 2] then [3, 4]."""
    return [
        _event(0, "dispatch", 1.0, activity="WA", inputs=["D1"]),
        _event(1, "activity-complete", 2.0, activity="WA", outputs=["R"]),
        _event(2, "dispatch", 3.0, activity="WB", inputs=["D1"]),
        _event(3, "activity-complete", 4.0, activity="WB", outputs=["R"]),
    ]


class TestVerdicts:
    def test_overlapping_windows_confirm_write_write(self):
        report = race_witness(overlapping_events(), [WW])
        assert [v.status for v in report.verdicts] == ["confirmed"]
        assert report.confirmed == 1 and report.checkable == 1
        assert report.precision == 1.0
        assert "interleave" in report.verdicts[0].detail

    def test_disjoint_windows_refute(self):
        report = race_witness(disjoint_events(), [WW])
        assert [v.status for v in report.verdicts] == ["refuted"]
        assert report.refuted == 1
        assert report.precision == 0.0

    def test_read_write_uses_reader_inputs_and_writer_outputs(self):
        events = [
            _event(0, "dispatch", 1.0, activity="RD", inputs=["Q"]),
            _event(1, "dispatch", 2.0, activity="WR", inputs=["D1"]),
            _event(2, "activity-complete", 5.0, activity="RD", outputs=["X"]),
            _event(3, "activity-complete", 6.0, activity="WR", outputs=["Q"]),
        ]
        report = race_witness(events, [RW])
        assert report.confirmed == 1

    def test_missing_activity_is_unobserved(self):
        events = overlapping_events()[:3]  # WB never completes
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["unobserved"]
        assert report.checkable == 0
        assert report.precision == 1.0  # nothing checkable: vacuous
        assert "'WB'" in report.verdicts[0].detail

    def test_no_runtime_footprint_is_unobserved(self):
        events = [
            _event(0, "dispatch", 1.0, activity="WA", inputs=["D1"]),
            _event(1, "dispatch", 2.0, activity="WB", inputs=["D1"]),
            # Neither completion actually wrote R at runtime.
            _event(2, "activity-complete", 5.0, activity="WA", outputs=["S"]),
            _event(3, "activity-complete", 6.0, activity="WB", outputs=["T"]),
        ]
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["unobserved"]

    def test_redispatch_uses_last_attempt_window(self):
        """A retried activity's window starts at its *last* dispatch."""
        events = [
            _event(0, "dispatch", 0.5, activity="WA", inputs=["D1"]),
            _event(1, "dispatch", 3.0, activity="WA", inputs=["D1"]),
            _event(2, "activity-complete", 4.0, activity="WA", outputs=["R"]),
            _event(3, "dispatch", 1.0, activity="WB", inputs=["D1"]),
            _event(4, "activity-complete", 2.0, activity="WB", outputs=["R"]),
        ]
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["refuted"]

    def test_empty_report_precision_is_vacuous(self):
        report = race_witness([], [])
        assert report.verdicts == ()
        assert report.precision == 1.0
