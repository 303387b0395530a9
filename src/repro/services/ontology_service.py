"""Ontology service: distributes shells and populated ontologies.

"Ontology services maintain and distribute ontology shells (i.e.,
ontologies with classes and slots but without instances) as well as
ontologies populated with instances, global ontologies, and user-specific
ontologies."  KBs travel as their JSON-dict serialization so receivers get
independent copies (agents must never share mutable KB state across the
simulated network).
"""

from __future__ import annotations

from repro.errors import ServiceError
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message
from repro.ontology import KnowledgeBase, builtin_shell, kb_from_dict, kb_to_dict
from repro.services.base import CoreService

__all__ = ["OntologyService"]


class OntologyService(CoreService):
    service_type = "ontology"

    def __init__(
        self,
        env: GridEnvironment,
        name: str | None = None,
        site: str = "core",
    ) -> None:
        super().__init__(env, name, site)
        self._ontologies: dict[str, KnowledgeBase] = {}
        # The global grid ontology (Figure 12) ships by default.
        self.add_ontology("grid", builtin_shell("grid"))

    # -- direct API ------------------------------------------------------------- #
    def add_ontology(self, name: str, kb: KnowledgeBase) -> None:
        self._ontologies[name] = kb

    def get(self, name: str) -> KnowledgeBase:
        kb = self._ontologies.get(name)
        if kb is None:
            raise ServiceError(f"unknown ontology {name!r}")
        return kb

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._ontologies))

    # -- message API --------------------------------------------------------------- #
    def handle_get_shell(self, message: Message):
        """An ontology's classes and slots, without instances."""
        kb = self.get(message.content["name"])
        return {"kb": kb_to_dict(kb.shell())}

    def handle_get_ontology(self, message: Message):
        """A populated ontology (classes, slots and instances)."""
        kb = self.get(message.content["name"])
        return {"kb": kb_to_dict(kb)}

    def handle_register_ontology(self, message: Message):
        content = message.content
        kb = kb_from_dict(content["kb"])
        self.add_ontology(content["name"], kb)
        return {"registered": content["name"], "instances": len(kb)}

    def handle_list_ontologies(self, message: Message):
        return {
            "ontologies": [
                {"name": name, "classes": len(self._ontologies[name].class_names),
                 "instances": len(self._ontologies[name])}
                for name in self.names
            ]
        }
