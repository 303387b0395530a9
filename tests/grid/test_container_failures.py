"""A failure inside one activity stays inside it.

A storage RPC that fails while a container fetches or stores a payload
closes the ``payload`` span it opened, and an exception raised by an
end-user service's own code fails that activity with a ServiceError
instead of aborting the whole simulation.  Either way the run reaches
quiescence with every span closed and no event pending.
"""

from repro.errors import ServiceError
from repro.grid import Agent, EndUserService
from repro.process import WorkflowBuilder
from repro.services import standard_environment


def _raise_value_error(props, payloads):
    raise ValueError("bad reconstruction input")


def _grid(service):
    env, core, fleet = standard_environment([service], containers=1, spans=True)
    return env, core, fleet[0]


def _execute(env, container, payload_keys):
    user = Agent(env, "user", "siteA")
    out = {}

    def main():
        try:
            out["reply"] = yield from user.call(
                container.name,
                "execute-activity",
                {
                    "activity": "A",
                    "service": "S",
                    "inputs": {"D": {"Classification": "x"}},
                    "payload_keys": payload_keys,
                },
            )
        except ServiceError as exc:
            out["error"] = str(exc)

    env.engine.spawn(main(), "user")
    env.run()
    return out


def _assert_quiescent(env):
    assert env.spans.open_count == 0, env.spans.open_spans()
    assert env.engine.pending == 0


def test_failed_fetch_closes_its_payload_span():
    env, core, container = _grid(
        EndUserService(
            "S", work=1.0, effects={"OUT": {"ok": True}}, inputs=("D",), outputs=("OUT",)
        )
    )
    out = _execute(env, container, {"D": "missing-key"})
    assert "missing-key" in out["error"]
    _assert_quiescent(env)
    fetch = [s for s in env.spans.closed if s.kind == "payload"]
    assert [(s.name, s.status, s.attrs["direction"]) for s in fetch] == [
        ("D", "error", "fetch")
    ]


def test_failed_store_closes_its_payload_span(monkeypatch):
    env, core, container = _grid(
        EndUserService(
            "S",
            work=1.0,
            compute=lambda props, payloads: ({"OUT": {"ok": True}}, {"OUT": [1, 2]}),
            inputs=("D",),
            outputs=("OUT",),
        )
    )

    def refuse(key, payload, **meta):
        raise ServiceError(f"storage full: {key}")

    monkeypatch.setattr(core.storage, "put", refuse)
    out = _execute(env, container, {})
    assert "storage full" in out["error"]
    _assert_quiescent(env)
    store = [s for s in env.spans.closed if s.kind == "payload"]
    assert [(s.name, s.status, s.attrs["direction"]) for s in store] == [
        ("OUT", "error", "store")
    ]


def test_compute_exception_fails_the_activity_not_the_run():
    env, core, container = _grid(
        EndUserService(
            "S", work=1.0, compute=_raise_value_error, inputs=("D",), outputs=("OUT",)
        )
    )
    out = _execute(env, container, {})  # env.run() returns
    assert "reply" not in out
    assert out["error"].endswith(
        f"service 'S' on {container.name} raised ValueError: bad reconstruction input"
    )
    _assert_quiescent(env)
    assert env.metrics.value(
        "activities_failed", agent=container.name, action="S"
    ) == 1
    assert container.node.slots.in_use == 0
    compute = [s for s in env.spans.closed if s.kind == "compute"]
    assert [(s.name, s.status) for s in compute] == [("S", "error")]


def test_enactment_whose_only_provider_raises_ends_once():
    env, core, container = _grid(
        EndUserService("S", work=1.0, compute=_raise_value_error, outputs=("OUT",))
    )
    process = WorkflowBuilder("one").activity("S").build()
    out = {}

    def main():
        try:
            out["reply"] = yield from core.coordination.call(
                "coordination",
                "execute-task",
                {"process": process, "initial_data": {}, "task": "raises"},
            )
        except ServiceError as exc:
            out["error"] = str(exc)

    env.engine.spawn(main(), "user")
    env.run()
    # One terminal outcome, delivered to the caller.
    assert list(out) == ["error"]
    assert "failed at activity 'S'" in out["error"]
    _assert_quiescent(env)
    (record,) = core.coordination.records.values()
    assert (record.completed, record.failed) == (False, True)
    activities = env.spans.spans(kind="activity")
    assert [(s.name, s.status) for s in activities] == [("S", "error")]
