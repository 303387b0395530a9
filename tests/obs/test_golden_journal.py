"""Golden digests of the case journal.

Each digest covers, per case, the encoded journal blob (every event's
seq, time, agent, trace and attributes, byte for byte) and the
provenance graph derived from it, plus the journal's exact accounting
counters.  The scenarios span every event kind the recorder files:
intake, plan (with its library source), compile, dispatch, execute,
fetch/store/migrate transfers, activity completion and failure,
replans, refusals, case completion and failure, on plain and secure
grids.  A change to where or when a case fact is recorded moves
a digest; preserved behaviour keeps it.  When a change alters the
record on purpose, update the digest and say why in the change
description.

Next to each journal digest sits a digest of every closed span (ids,
trace, kind, name, agent, times, status and attributes, in close order)
plus the recorder's lifecycle accounting.  The journal files only the
span kinds ``SPAN_EVENTS`` names; the span digests also pin the rest
(schedule, match, loop, fork, choice, storage, ...) and every span's
status, so a change to how a span opens or closes moves one.
"""

import json
from hashlib import blake2b

import pytest

from repro.analysis import interference_conflicts, race_witness
from repro.errors import ServiceError
from repro.grid.container import EndUserService
from repro.obs.provenance import ProvenanceGraph
from repro.planner import GPConfig
from repro.process import WorkflowBuilder, parse_condition
from repro.process.model import Activity
from repro.services import standard_environment
from repro.virolab import planning_problem, process_description
from repro.workloads import run_many_cases, run_plan_mix
from tests.services.conftest import drive, synthetic_services

FIGURE10_INITIAL = {
    "D1": {"Classification": "POD-Parameter"},
    "D2": {"Classification": "P3DR-Parameter"},
    "D3": {"Classification": "P3DR-Parameter"},
    "D4": {"Classification": "P3DR-Parameter"},
    "D5": {"Classification": "POR-Parameter"},
    "D6": {"Classification": "PSF-Parameter"},
    "D7": {"Classification": "2D Image"},
}


def journal_digest(env, cases, extra=None):
    parts = []
    for case in cases:
        parts.append(env.journal.encode_case(case))
        graph = ProvenanceGraph.from_journal(env.journal, case)
        parts.append(json.dumps(graph.to_json(), sort_keys=True, default=str).encode())
    parts.append(json.dumps(env.journal.stats(), sort_keys=True).encode())
    if extra is not None:
        parts.append(json.dumps(extra, sort_keys=True, default=str).encode())
    return blake2b(b"\n".join(parts), digest_size=16).hexdigest()


def span_digest(env):
    """blake2b-16 over every closed span in close order, then the
    recorder's (total_started, total_closed, open_count).  ``wall_s`` is
    left out: the ``gp`` span records wall-clock time in it."""
    rows = [
        (
            span.span_id, span.parent_id, span.trace_id, span.kind,
            span.name, span.agent, span.start, span.end, span.status,
            json.dumps(
                {k: v for k, v in span.attrs.items() if k != "wall_s"},
                sort_keys=True, default=str,
            ),
        )
        for span in env.spans.closed
    ]
    recorder = env.spans
    rows.append(
        (recorder.total_started, recorder.total_closed, recorder.open_count)
    )
    return blake2b(repr(rows).encode(), digest_size=16).hexdigest()


def event_count(env, cases):
    return sum(len(env.journal.events(case)) for case in cases)


def _execute(coordinator, request):
    return coordinator.call("coordination", "execute-task", request)


def test_many_cases_digest():
    result = run_many_cases(cases=8, containers=4, journal=True)
    cases = [f"case-{i}" for i in range(8)]
    env = result["env"]
    assert event_count(env, cases) == 216
    assert journal_digest(env, cases) == "83a2f3321955e942d18d96bbe10c43e4"
    assert span_digest(env) == "3828bfb7f992a1968899aa42177a9c78"


def test_plan_mix_digest():
    result = run_plan_mix(
        requests=8, distinct=4, enact=True, journal=True, spans=True
    )
    cases = [f"mix-{i}" for i in range(8)]
    env = result["env"]
    assert event_count(env, cases) == 16304
    digest = journal_digest(env, cases, extra={"sources": result["sources"]})
    # Each GP reply's plan is scored under the request's GPConfig (Smax
    # 12), so the plan events and gp spans carry that fitness.
    assert digest == "0f2a8de3ce2a430a62a3799c5d130504"
    assert span_digest(env) == "d1cd53a5aa2630c693d4ad243521f3d0"
    # Most of the mix's loops are cut off at max_loop_iterations (25).
    loops = env.spans.spans(kind="loop")
    bounded = [span for span in loops if span.attrs.get("bounded")]
    assert (len(loops), len(bounded)) == (116, 108)
    assert all(span.attrs["iterations"] == 25 for span in bounded)


@pytest.mark.parametrize(
    ("seed", "replans", "events", "digest", "spans"),
    [
        (
            0, 1, 54, "600d576a6c9f693e79848116901a9e1c",
            "17eec360696d546d4c7d282c33fcfc58",
        ),
        (
            1, 0, 72, "683df3b3277721d1bf861b9f00c87a2f",
            "cfbbe0943bd92085c0c664fbaada4892",
        ),
    ],
    ids=["seed0_replan", "seed1_retries"],
)
def test_replan_digest(seed, replans, events, digest, spans):
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
        "initial_data": dict(FIGURE10_INITIAL),
        "task": "case",
        "problem": planning_problem(),
    }
    result = drive(
        env,
        services.coordination,
        lambda: _execute(services.coordination, request),
        max_events=5_000_000,
    )
    assert result["replans"] == replans
    kinds = [event.kind for event in env.journal.events("case")]
    assert ("activity-fail" in kinds) == (replans > 0)
    assert event_count(env, ["case"]) == events
    assert journal_digest(env, ["case"]) == digest
    assert span_digest(env) == spans


def test_secure_digest():
    env, services, _ = standard_environment(
        synthetic_services(),
        containers=2,
        secure=True,
        planner_config=GPConfig(population_size=20, generations=3),
        journal=True,
    )
    coordinator = services.coordination

    def request(task):
        return {
            "process": process_description(),
            "initial_data": dict(FIGURE10_INITIAL),
            "task": task,
        }

    def first():
        yield from _execute(coordinator, request("secure-a"))
        yield from _execute(coordinator, request("secure-b"))

    def second():
        yield from _execute(coordinator, request("secure-c"))

    env.engine.spawn(first(), "user-1")
    env.engine.spawn(second(), "user-2")
    env.run(max_events=5_000_000)
    cases = ["secure-a", "secure-b", "secure-c"]
    assert event_count(env, cases) == 102
    assert journal_digest(env, cases) == "6affb3e1f4945acbf73210bc038ee46a"
    assert span_digest(env) == "45f7e5bcf14c99369e301400e2bd078f"


def test_refusal_digest():
    env, services, _ = standard_environment(
        synthetic_services(),
        containers=3,
        planner_config=GPConfig(population_size=30, generations=5),
        journal=True,
    )
    dead = parse_condition("D1.Value > 8 and D1.Value < 3")
    pd = (
        WorkflowBuilder("doomed")
        .choice(
            (dead, lambda b: b.activity("POR")),
            (None, lambda b: b.activity("POD")),
        )
        .build()
    )
    request = {
        "process": pd,
        "initial_data": {"D1": {"Classification": "POD-Parameter"}},
        "task": "bad",
    }
    with pytest.raises(ServiceError):
        drive(
            env,
            services.coordination,
            lambda: _execute(services.coordination, request),
        )
    assert event_count(env, ["bad"]) == 3
    assert journal_digest(env, ["bad"]) == "0a407244758b873a311b050926a04428"
    assert span_digest(env) == "efd19f5ef9c7a30a311104a2a5517fe5"


def test_racy_fork_digest():
    library = {
        "WA": Activity("WA", service="SVA", inputs=("d0",), outputs=("r",)),
        "WB": Activity("WB", service="SVB", inputs=("d0",), outputs=("r",)),
    }
    pd = (
        WorkflowBuilder("racy-fork")
        .fork(lambda b: b.activity("WA"), lambda b: b.activity("WB"))
        .build(library)
    )
    services = [
        EndUserService("SVA", work=3.0, effects={"r": {"Status": "ready"}}),
        EndUserService("SVB", work=5.0, effects={"r": {"Status": "ready"}}),
    ]
    env, core, _ = standard_environment(services, containers=2, journal=True)
    core.coordination.tolerated_findings = (
        core.coordination.tolerated_findings | {"E601", "W602"}
    )
    request = {
        "process": pd,
        "initial_data": {"d0": {"Status": "ready"}},
        "task": "racy-0",
    }
    reply = drive(env, core.coordination, lambda: _execute(core.coordination, request))
    assert reply["status"] == "completed"
    report = race_witness(env.journal.events("racy-0"), interference_conflicts(pd))
    extra = {
        "verdicts": [v.to_dict() for v in report.verdicts],
        "precision": report.precision,
    }
    assert event_count(env, ["racy-0"]) == 9
    digest = journal_digest(env, ["racy-0"], extra=extra)
    assert digest == "954841486171745d940f5bd0f31c46ea"
    assert span_digest(env) == "2b56a9b080bd5a536a0abe026adbcf61"


def test_migrate_digest():
    env, services, _ = standard_environment(
        [
            EndUserService(
                "S",
                work=1.0,
                effects={"OUT": {"ok": True}},
                inputs=("data",),
                outputs=("OUT",),
            )
        ],
        containers=1,
        journal=True,
    )
    services.storage.put(
        "blob-big", b"big", format={"size": 50e6, "byte_order": "big"}
    )
    services.storage.put(
        "blob-plain", b"plain", format={"size": 1e6, "byte_order": "little"}
    )
    pd = WorkflowBuilder("migrating").activity("A").build(
        {"A": Activity("A", service="S", inputs=("D",), outputs=("OUT",))}
    )
    coordinator = services.coordination

    def enact():
        for task, key in (("mig-big", "blob-big"), ("mig-plain", "blob-plain")):
            yield from _execute(
                coordinator,
                {
                    "process": pd,
                    "initial_data": {"D": {}},
                    "payload_keys": {"D": key},
                    "task": task,
                },
            )

    env.engine.spawn(enact(), "user")
    env.run(max_events=2_000_000)
    cases = ["mig-big", "mig-plain"]
    events = [e for case in cases for e in env.journal.events(case)]
    assert len(events) == 16
    transfers = [e for e in events if e.kind == "transfer"]
    assert len(transfers) == 4
    assert any(
        e.attrs["direction"] == "migrate" and e.attrs["steps"] == []
        for e in transfers
    )
    assert journal_digest(env, cases) == "f17749e7764a64aae9fd6a2c99135624"
    assert span_digest(env) == "a4c14c18f1525673cf8099c04371ffc6"
