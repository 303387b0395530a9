"""Unit tests for the provenance graph (`repro.obs.provenance`)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.journal import JournalEvent
from repro.obs.provenance import (
    ProvenanceGraph,
    lineage_jsonl,
    provenance_dot,
)


def _event(seq, case, kind, **attrs):
    return JournalEvent(
        seq=seq, case=case, kind=kind, time=float(seq), agent="t",
        trace=f"trace-{case}", attrs=attrs,
    )


def happy_case(case="c1"):
    """intake -> plan -> compile -> dispatch/execute/complete x2 -> done."""
    return [
        _event(0, case, "case-intake", process="p", initial=["src"],
               payload_keys=["src"]),
        _event(1, case, "plan", source="hit", process="p", solved=True,
               fitness=1.0),
        _event(2, case, "compile", process="p", activities=["first", "second"],
               choices=0, loops=0),
        _event(3, case, "dispatch", activity="first", service="svc_a",
               container="ac1", inputs=["src"], attempt=0),
        _event(4, case, "execute", activity="first", service="svc_a",
               node="n1", container="ac1", inputs=["src"]),
        _event(5, case, "transfer", data="src", key=f"{case}/src",
               direction="fetch", node="n1"),
        _event(6, case, "transfer", data="mid", key=f"{case}/mid",
               direction="store", node="n1"),
        _event(7, case, "activity-complete", activity="first",
               service="svc_a", container="ac1", outputs=["mid"],
               payload_keys={"mid": f"{case}/mid"}, retries=0),
        _event(8, case, "dispatch", activity="second", service="svc_b",
               container="ac2", inputs=["mid"], attempt=0),
        _event(9, case, "execute", activity="second", service="svc_b",
               node="n2", container="ac2", inputs=["mid"]),
        _event(10, case, "activity-complete", activity="second",
               service="svc_b", container="ac2", outputs=["out"],
               payload_keys={"out": f"{case}/out"}, retries=0),
        _event(11, case, "case-complete", activities_run=2, replans=0),
    ]


class TestGraphBuilding:
    def test_happy_path_statuses_and_edges(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        runs = {run.name: run for run in graph.activities.values()}
        assert runs["first"].status == "completed"
        assert runs["first"].node == "n1"
        assert runs["first"].container == "ac1"
        assert runs["second"].status == "completed"
        assert set(graph.data) == {"c1:src", "c1:mid", "c1:out"}
        assert graph.data["c1:src"].initial is True
        assert graph.data["c1:mid"].initial is False
        # first consumed src, produced mid; second consumed mid
        assert graph.data["c1:mid"].producers == [runs["first"].id]
        assert graph.data["c1:mid"].consumers == [runs["second"].id]

    def test_compile_preseeds_pending_runs(self):
        events = happy_case()[:3]  # stop after compile
        graph = ProvenanceGraph.from_events("c1", events)
        statuses = {run.name: run.status for run in graph.activities.values()}
        assert statuses == {"first": "pending", "second": "pending"}

    def test_undispatched_branch_stays_pending(self):
        events = [e for e in happy_case() if e.attrs.get("activity") != "second"]
        graph = ProvenanceGraph.from_events("c1", events)
        statuses = {run.name: run.status for run in graph.activities.values()}
        assert statuses["first"] == "completed"
        assert statuses["second"] == "pending"

    def test_replan_keeps_failed_run_and_new_occurrence(self):
        case = "c1"
        events = happy_case()[:4] + [
            _event(20, case, "activity-fail", activity="first",
                   service="svc_a", reason="node-lost"),
            _event(21, case, "replan", round=1, excluded=["first"],
                   aborted="first"),
            _event(22, case, "compile", process="p",
                   activities=["first", "second"], choices=0, loops=0),
            _event(23, case, "dispatch", activity="first", service="svc_a2",
                   container="ac2", inputs=["src"], attempt=0),
            _event(24, case, "activity-complete", activity="first",
                   service="svc_a2", container="ac2", outputs=["mid"],
                   payload_keys={"mid": "c1/mid"}, retries=0),
        ]
        graph = ProvenanceGraph.from_events("c1", events)
        first_runs = [
            run for run in graph.activities.values() if run.name == "first"
        ]
        assert sorted(run.status for run in first_runs) == [
            "completed", "failed",
        ]
        failed = next(run for run in first_runs if run.status == "failed")
        assert failed.error == "node-lost"
        # the replan round itself stays visible in the raw timeline
        replans = [
            entry for entry in graph.case_timeline(case)
            if entry["kind"] == "replan"
        ]
        assert len(replans) == 1
        assert replans[0]["attrs"]["aborted"] == "first"

    def test_case_timeline_orders_by_seq_and_rejects_unknown(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        timeline = graph.case_timeline("c1")
        assert [entry["kind"] for entry in timeline][:3] == [
            "case-intake", "plan", "compile",
        ]
        with pytest.raises(ObservabilityError):
            graph.case_timeline("missing")


class TestQueries:
    def test_lineage_walks_backward(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        result = graph.lineage("out", case="c1")
        names = {a["name"] for a in result["activities"]}
        data = {d["name"] for d in result["data"]}
        assert names == {"first", "second"}
        assert data == {"src", "mid", "out"}
        assert result["edges"]

    def test_lineage_resolves_payload_key(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        result = graph.lineage("c1/out")
        assert result["target"] == "c1:out"

    def test_lineage_unknown_key_raises(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        with pytest.raises(ObservabilityError):
            graph.lineage("nonexistent")

    def test_descendants_walks_forward(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        result = graph.descendants("first", case="c1")
        names = {a["name"] for a in result["activities"]}
        data = {d["name"] for d in result["data"]}
        assert names == {"first", "second"}
        assert "out" in data
        assert "src" not in data  # src is upstream of first

    def test_to_json_is_serialisable_and_case_scoped(self):
        graph = ProvenanceGraph()
        graph.add_events("c1", happy_case("c1"))
        graph.add_events("c2", happy_case("c2"))
        payload = graph.to_json(case="c1")
        json.dumps(payload)  # must be plain data
        assert all(a["case"] == "c1" for a in payload["activities"])
        both = graph.to_json()
        assert {a["case"] for a in both["activities"]} == {"c1", "c2"}

    def test_to_dot_and_lineage_jsonl(self):
        graph = ProvenanceGraph.from_events("c1", happy_case())
        dot = graph.to_dot(case="c1")
        assert dot.startswith("digraph provenance")
        assert "lightgreen" in dot  # completed activities
        result = graph.lineage("out", case="c1")
        lines = lineage_jsonl(result).splitlines()
        assert all(json.loads(line) for line in lines)
        dot2 = provenance_dot(
            result["activities"], result["data"], result["edges"]
        )
        assert "doublecircle" in dot2  # initial data node
