"""In-process async client over a :class:`~repro.serving.session.TenantRegistry`.

:class:`AsyncGraphClient` is the handle application code holds: it binds
one tenant id and exposes the serving verbs as awaitables, so many
concurrent coroutines naturally drive the coalescer (``asyncio.gather``
over same-expression calls becomes one bulk sweep).  It is "in-process" —
no sockets; the TCP counterpart is :mod:`repro.serving.server`, which
speaks :mod:`repro.serving.protocol` from each connection's read callback
and enters the very same sessions through their callback entries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.serving.session import (
    ServedAccess,
    ServedAudience,
    ServedReach,
    TenantRegistry,
    TenantSession,
)

__all__ = ["AsyncGraphClient"]


class AsyncGraphClient:
    """Tenant-bound async facade: ``reach`` / ``audience`` / ``check`` / stats.

    Construct with a registry plus tenant id, or adopt a standalone
    session via :meth:`for_session`.  Admission rejections and budget
    errors surface as their typed exceptions, exactly as the session
    raises them.
    """

    def __init__(self, registry: TenantRegistry, tenant_id: Hashable) -> None:
        self._registry = registry
        self.tenant_id = tenant_id

    @classmethod
    def for_session(cls, session: TenantSession) -> "AsyncGraphClient":
        """Bind a client directly to one session (single-tenant setups)."""
        registry = TenantRegistry()
        registry._sessions[session.tenant_id] = session
        return cls(registry, session.tenant_id)

    @property
    def session(self) -> TenantSession:
        """The live session (re-resolved per call: survives re-registration)."""
        return self._registry.get(self.tenant_id)

    async def reach(
        self,
        source: Hashable,
        target: Hashable,
        expression,
        *,
        witness: bool = False,
        timeout: Optional[float] = None,
    ) -> ServedReach:
        return await self.session.reach(
            source, target, expression, witness=witness, timeout=timeout
        )

    async def audience(
        self,
        owner: Hashable,
        expression,
        *,
        direction: str = "auto",
        timeout: Optional[float] = None,
    ) -> ServedAudience:
        return await self.session.audience(
            owner, expression, direction=direction, timeout=timeout
        )

    async def check(
        self,
        requester: Hashable,
        resource_id: Hashable,
        *,
        timeout: Optional[float] = None,
    ) -> ServedAccess:
        return await self.session.check(requester, resource_id, timeout=timeout)

    async def is_reachable(
        self, source: Hashable, target: Hashable, expression
    ) -> bool:
        return (await self.reach(source, target, expression)).reachable

    async def is_allowed(
        self, requester: Hashable, resource_id: Hashable
    ) -> bool:
        return (await self.check(requester, resource_id)).granted

    async def statistics(self) -> Dict[str, float]:
        return await self.session.statistics()

    def __repr__(self) -> str:
        return f"<AsyncGraphClient tenant={self.tenant_id!r}>"
