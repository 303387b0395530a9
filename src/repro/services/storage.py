"""Persistent-storage service.

"Persistent storage services provide access to the data needed for the
execution of user tasks."  That is all it holds: case payloads (numpy
arrays in the case study, anything picklable in general) and container
checkpoints, in named locations.  Transfer time is modelled by the
network layer via the message size, which callers set to the payload's
nominal size.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StorageError
from repro.grid.environment import GridEnvironment
from repro.grid.messages import Message
from repro.services.base import CoreService

__all__ = ["PersistentStorageService"]


class PersistentStorageService(CoreService):
    service_type = "storage"

    def __init__(self, env: GridEnvironment, name: str | None = None, site: str = "core") -> None:
        super().__init__(env, name or env.storage_name, site)
        self._objects: dict[str, Any] = {}
        self._meta: dict[str, dict] = {}

    # -- direct API ------------------------------------------------------------ #
    def put(self, key: str, payload: Any, **meta: Any) -> None:
        self._objects[key] = payload
        self._meta[key] = {"stored_at": self.engine.now, **meta}

    def get(self, key: str) -> Any:
        if key not in self._objects:
            raise StorageError(f"no stored object under key {key!r}")
        return self._objects[key]

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(self._objects))

    def __len__(self) -> int:
        return len(self._objects)

    # -- message API ------------------------------------------------------------ #
    def handle_store(self, message: Message):
        content = message.content
        key = content["key"]
        meta = {"owner": message.sender}
        if "format" in content:
            meta["format"] = dict(content["format"])
        self.put(key, content.get("payload"), **meta)
        # The request's wire size is the payload's nominal size — feed it
        # to the bus metrics so storage traffic shows up next to RPC load.
        self.metrics.observe(
            "storage_payload_bytes", message.size, agent=self.name, action="store"
        )
        # Instant span: the handler itself takes zero simulated time (wire
        # time is the network layer's), but the storage-side record joins
        # payload traffic to the case via trace_id.
        self.env.spans.instant(
            key, "storage", agent=self.name,
            trace_id=message.trace_id, op="store", bytes=message.size,
        )
        return {"key": key}

    def handle_retrieve(self, message: Message):
        key = message.content["key"]
        if key not in self._objects:
            raise StorageError(f"no stored object under key {key!r}")
        self.env.spans.instant(
            key, "storage", agent=self.name,
            trace_id=message.trace_id, op="retrieve",
        )
        return {"key": key, "payload": self._objects[key], "meta": self._meta[key]}

    def handle_delete(self, message: Message):
        key = message.content["key"]
        existed = self._objects.pop(key, None) is not None
        self._meta.pop(key, None)
        return {"deleted": existed}

    def handle_list_keys(self, message: Message):
        prefix = message.content.get("prefix", "")
        return {"keys": [k for k in self.keys() if k.startswith(prefix)]}
