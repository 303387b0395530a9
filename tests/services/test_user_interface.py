"""User Interface agents and intermittent connectivity."""

from repro.errors import ServiceError
from repro.services.user_interface import UserInterface
from repro.virolab import CONS1, case_study_kb
from tests.services.conftest import drive

INITIAL = {
    "D1": {"Classification": "POD-Parameter"},
    "D2": {"Classification": "P3DR-Parameter"},
    "D3": {"Classification": "P3DR-Parameter"},
    "D4": {"Classification": "P3DR-Parameter"},
    "D5": {"Classification": "POR-Parameter"},
    "D6": {"Classification": "PSF-Parameter"},
    "D7": {"Classification": "2D Image"},
}


def request(**overrides):
    from repro.virolab import process_description

    out = {"process": process_description(), "initial_data": dict(INITIAL)}
    out.update(overrides)
    return out


def test_submit_and_poll(grid):
    env, services, fleet = grid
    ui = UserInterface(env, owner="alice")
    task = ui.submit(request(task="alice-case"))
    assert task == "alice-case"
    outcome = {}

    def watcher():
        status = yield from ui.await_result(task)
        outcome.update(status)

    env.engine.spawn(watcher(), "watch")
    env.run(max_events=2_000_000)
    assert outcome["completed"]
    assert outcome["data"]["D12"]["Classification"] == "Resolution File"


def test_auto_task_names(grid):
    env, services, fleet = grid
    ui = UserInterface(env, owner="bob")
    first = ui.submit(request())
    second = ui.submit(request())
    assert first == "bob-task-1" and second == "bob-task-2"


def test_result_survives_disconnect(grid):
    """The Section-2 scenario: the user drops offline while the case runs
    and still gets the result after reconnecting."""
    env, services, fleet = grid
    ui = UserInterface(env, owner="carol")
    task = ui.submit(request(task="carol-case"))
    outcome = {}

    def watcher():
        status = yield from ui.await_result(task)
        outcome.update(status)

    env.engine.spawn(watcher(), "watch")
    # Disconnect shortly after submission; reconnect long after completion.
    env.engine.schedule(1.0, ui.disconnect)
    env.engine.schedule(500.0, ui.reconnect)
    env.run(max_events=3_000_000)
    assert outcome["completed"]
    assert outcome["data"]["D12"]["Value"] == 7.5
    # The poll that succeeded happened after the reconnect.
    assert env.engine.now > 500.0


def test_unknown_task_status(grid):
    env, services, fleet = grid
    user = services.coordination
    status = drive(
        env, user, lambda: user.call("coordination", "task-status", {"task": "nope"})
    )
    assert status == {"known": False, "completed": False, "failed": False}


def test_failed_task_reported(grid):
    env, services, fleet = grid
    for ac in fleet:
        ac.crash()
    ui = UserInterface(env, owner="dave")
    task = ui.submit(request(task="doomed"))
    outcome = {}

    def watcher():
        try:
            yield from ui.await_result(task)
        except ServiceError as exc:
            outcome["error"] = str(exc)

    env.engine.spawn(watcher(), "watch")
    env.run(max_events=3_000_000)
    assert "failed" in outcome["error"]


def test_submit_from_kb(grid):
    env, services, fleet = grid
    ui = UserInterface(env, owner="erin")
    kb = case_study_kb()
    task = ui.submit_from_kb(kb, "T1", {"Cons1": CONS1})
    outcome = {}

    def watcher():
        status = yield from ui.await_result(task)
        outcome.update(status)

    env.engine.spawn(watcher(), "watch")
    env.run(max_events=2_000_000)
    assert outcome["completed"]
    assert task == "3DSD"
