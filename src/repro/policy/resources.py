"""Shared resources (the objects access rules protect).

A resource is anything a user shares on the network — a photo album, a note,
a status update.  The access-control machinery only needs its identifier and
its owner; free-form metadata (title, kind, creation date) is carried along
for applications and the audit log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

__all__ = ["Resource"]


@dataclass(frozen=True)
class Resource:
    """A shared resource: an identifier, its owner, and free-form metadata."""

    resource_id: Hashable
    owner: Hashable
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        title = self.metadata.get("title") or self.metadata.get("kind") or "resource"
        return f"{title} {self.resource_id!r} owned by {self.owner!r}"

    def __str__(self) -> str:
        return self.describe()
