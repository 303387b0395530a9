"""User Interface agents (the UI box of Figure 1).

"The User Interface (UI) provides access to the environment" and
"individual users may only be intermittently connected to the network"
(Section 2).  A :class:`UserInterface` therefore interacts with its
coordination-service proxy in a disconnection-tolerant way:

* :meth:`submit` fires the ``execute-task`` request without waiting for
  the (possibly hours-later) reply;
* :meth:`await_result` polls ``task-status`` on a fixed period, and keeps
  polling across disconnect/reconnect cycles — the coordinator holds the
  result until the user asks for it;
* :meth:`disconnect` / :meth:`reconnect` model the user dropping off the
  network (their inbound traffic is lost while away, which is exactly why
  the protocol polls instead of relying on a pushed reply).

Tasks can be submitted straight from frame instances via
:meth:`submit_from_kb` (the metainformation path of Figure 13).
"""

from __future__ import annotations

from collections.abc import Generator, Mapping
from typing import Any

from repro.errors import ServiceError
from repro.grid.agent import Agent
from repro.grid.environment import GridEnvironment
from repro.ontology import KnowledgeBase
from repro.ontology_bridge import task_request_from_kb
from repro.process.conditions import Condition
from repro.services.base import WELL_KNOWN

__all__ = ["UserInterface"]


class UserInterface(Agent):
    """An end-user's access point, tolerant of intermittent connectivity."""

    coordination_name = WELL_KNOWN["coordination"]

    #: Seconds between task-status polls.
    poll_period = 5.0
    #: Per-poll RPC timeout (covers polls sent while disconnected).
    poll_timeout = 30.0

    def __init__(
        self,
        env: GridEnvironment,
        name: str = "ui",
        site: str = "user",
        owner: str = "user",
    ) -> None:
        super().__init__(env, name, site)
        self.owner = owner
        self.submitted: list[str] = []

    # -- submission ------------------------------------------------------------- #
    def submit(self, request: dict[str, Any]) -> str:
        """Fire an ``execute-task`` request; returns the task name used.

        Fire-and-forget: the user does not park on the reply (they may be
        about to disconnect); results are retrieved via polling.
        """
        task = request.get("task") or f"{self.owner}-task-{len(self.submitted) + 1}"
        request = {**request, "task": task}
        self.request(self.coordination_name, "execute-task", request)
        self.submitted.append(task)
        return task

    def submit_from_kb(
        self,
        kb: KnowledgeBase,
        task_id: str,
        constraints: Mapping[str, Condition] | None = None,
        extra: dict[str, Any] | None = None,
    ) -> str:
        """Submit a Task frame (Figure-13 path); *extra* merges additional
        request fields (e.g. a ``problem`` when Need Planning is set)."""
        request = task_request_from_kb(kb, task_id, constraints)
        request.update(extra or {})
        return self.submit(request)

    # -- connectivity ------------------------------------------------------------ #
    def disconnect(self) -> None:
        """Drop off the network: inbound messages are lost while away."""
        self.crash()

    def reconnect(self) -> None:
        self.restart()

    # -- result retrieval ---------------------------------------------------------- #
    def await_result(
        self, task: str, max_polls: int = 10_000
    ) -> Generator[Any, Any, dict[str, Any]]:
        """Poll until *task* completes or fails; returns the status reply.

        Generator (run it as a simulation process).  Polls issued while
        disconnected go nowhere and simply time out; polling resumes after
        :meth:`reconnect`.  Raises :class:`ServiceError` if the coordinator
        reports the task failed, or after *max_polls* unanswered polls.
        """
        for _ in range(max_polls):
            yield self.poll_period
            if not self.alive:
                continue  # offline: skip the round trip entirely
            try:
                status = yield from self.call(
                    self.coordination_name,
                    "task-status",
                    {"task": task},
                    timeout=self.poll_timeout,
                )
            except ServiceError:
                continue  # lost poll (e.g. disconnected mid-flight)
            if status.get("failed"):
                raise ServiceError(f"task {task!r} failed")
            if status.get("completed"):
                return status
        raise ServiceError(
            f"task {task!r} did not complete within {max_polls} polls"
        )
