"""Compiled enactment programs.

The coordination service is "a proxy for the end-user" that usually enacts
*many* cases of the *same* process description concurrently (the paper's
case study is one workflow every virology user runs over their own data).
Re-doing structure recovery, condition interpretation and activity-table
lookups per case is pure waste, so — following the precompile-and-index
playbook of DAG workflow engines — a :class:`EnactmentProgram` captures
everything about a process description that is case-independent:

* the recovered AST (``process_to_ast`` runs exactly once, which also
  front-loads the well-structuredness check);
* one :class:`ActivityStep` per end-user activity with the service name
  and input/output orders pre-resolved (the per-dispatch payload-key and
  input tables are built from these pre-split tuples);
* every Choice guard and Iterative stopping condition pre-compiled via
  :func:`repro.process.conditions.compile_condition` into a flat closure,
  keyed by AST node identity (the program owns its AST, so ids are
  stable), with the original :class:`Condition` objects retained so
  ``choice`` spans record exactly the same ``str(condition)`` text.

Programs are immutable once built and safe to share across concurrent
cases; :func:`process_fingerprint` provides the structural cache key the
coordination service uses so N cases of one workflow share a single
compilation.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Any

from repro.process.ast_nodes import ChoiceNode, IterativeNode, Node
from repro.process.conditions import Condition, compile_condition
from repro.process.model import ProcessDescription
from repro.process.structure import process_to_ast

__all__ = [
    "ActivityStep",
    "EnactmentProgram",
    "process_fingerprint",
]


class ActivityStep:
    """Pre-resolved dispatch table entry for one end-user activity."""

    __slots__ = ("name", "service", "inputs", "input_order", "output_order")

    def __init__(
        self, name: str, service: str, inputs: tuple[str, ...], outputs: tuple[str, ...]
    ) -> None:
        self.name = name
        self.service = service
        self.inputs = inputs
        self.input_order = list(inputs)
        self.output_order = list(outputs)


class EnactmentProgram:
    """A process description compiled for repeated enactment.

    Raises :class:`repro.errors.ConversionError` when the process graph is
    not well-structured — the same failure mode (and the same exception)
    callers got from calling ``process_to_ast`` themselves.
    """

    __slots__ = ("process", "ast", "steps", "_checks", "_choices")

    def __init__(self, process: ProcessDescription) -> None:
        self.process = process
        self.ast = process_to_ast(process)
        self.steps: dict[str, ActivityStep] = {}
        for activity in process.end_user_activities():
            self.steps[activity.name] = ActivityStep(
                activity.name,
                activity.service_name,
                activity.inputs,
                activity.outputs,
            )
        #: id(IterativeNode) -> compiled stopping condition.
        self._checks: dict[int, Callable[..., bool]] = {}
        #: id(ChoiceNode) -> ((check, condition, branch), ...).
        self._choices: dict[
            int, tuple[tuple[Callable[..., bool], Condition, Node], ...]
        ] = {}
        for node in self.ast.walk():
            if isinstance(node, IterativeNode):
                self._checks[id(node)] = compile_condition(node.condition)
            elif isinstance(node, ChoiceNode):
                self._choices[id(node)] = tuple(
                    (compile_condition(condition), condition, branch)
                    for condition, branch in node.branches
                )

    def stats(self) -> dict[str, Any]:
        """Structure summary (the compile span's attributes): the sorted
        end-user activity names, and the Choice and Iterative counts."""
        return {
            "activities": sorted(self.steps),
            "choices": len(self._choices),
            "loops": len(self._checks),
        }

    def step(self, name: str) -> ActivityStep:
        """The dispatch entry for activity *name* (same KeyError contract as
        ``ProcessDescription.activity`` for unknown names)."""
        try:
            return self.steps[name]
        except KeyError:
            # Defer to the process for its richer error message.
            activity = self.process.activity(name)
            raise KeyError(activity.name) from None  # pragma: no cover

    def check(self, node: IterativeNode) -> Callable[..., bool]:
        """The compiled stopping condition of *node* (a node of this
        program's own AST)."""
        return self._checks[id(node)]

    def branches(
        self, node: ChoiceNode
    ) -> tuple[tuple[Callable[..., bool], Condition, Node], ...]:
        """The compiled guard table of *node*: (check, original condition,
        branch) triples in declaration order."""
        return self._choices[id(node)]


def process_fingerprint(process: ProcessDescription) -> Hashable:
    """A structural cache key for *process*.

    Two process descriptions with the same fingerprint enact identically:
    the key covers the name, every activity's kind/service/data signature,
    and every transition with its condition text.  ProcessDescription is
    mutable (so identity alone is unsafe as a key) and unhashable (so it
    cannot key a dict itself); this fingerprint is what the coordination
    service's program cache hashes instead.
    """
    activities = tuple(
        sorted(
            (
                activity.name,
                activity.kind.value,
                activity.service or "",
                activity.inputs,
                activity.outputs,
            )
            for activity in process
        )
    )
    transitions = tuple(
        sorted(
            (
                transition.source,
                transition.destination,
                "" if transition.condition is None else str(transition.condition),
            )
            for transition in process.transitions
        )
    )
    return (process.name, activities, transitions)
