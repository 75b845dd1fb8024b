"""`TenancyController`: one object the server threads tenancy through.

Composes the three tenancy concerns behind the interfaces the serving
stack already has:

* :meth:`authenticate` resolves a hello token to a
  :class:`~repro.tenancy.tenants.TenantContext` (opening the tenant's
  ledger account with its declared prepaid balance);
* :meth:`quota_check` is the ``quota`` callable of the server's
  :class:`~repro.api.admission.PreDecodeGate` -- it classifies the peeked
  envelope (rows from tensor shapes, bytes from the frame length) and
  admits it against the tenant's token buckets, all before any tensor
  buffer is materialized;
* :meth:`charge_request` / the :attr:`ledger`'s ``charge_batch`` hook
  meter served work (rows, bytes, wall latency, modelled cycles/energy);
* :meth:`snapshot` is the ``tenancy`` telemetry section and the metrics
  endpoint's data source.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.tenancy.ledger import CostLedger
from repro.tenancy.quota import TenantQuota, estimate_rows
from repro.tenancy.tenants import (
    ANONYMOUS_CONTEXT,
    TenantContext,
    TenantDirectory,
)

__all__ = ["TenancyController"]


class TenancyController:
    """Auth, quotas and metering for one :class:`~repro.api.aserver.AsyncNormServer`."""

    def __init__(
        self,
        directory: Optional[TenantDirectory] = None,
        ledger: Optional[CostLedger] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.directory = directory if directory is not None else TenantDirectory()
        self.ledger = ledger if ledger is not None else CostLedger()
        self._clock = clock
        self._lock = threading.Lock()
        #: Tenant name -> its composed quota (created lazily on first use,
        #: from the tenant's tier policy; anonymous gets the default tier).
        self._quotas: Dict[str, TenantQuota] = {}
        self.authenticated_total = 0
        self.rejected_tokens = 0

    @classmethod
    def from_file(cls, path: str, require_auth: bool = False) -> "TenancyController":
        """Build from a tenant file (``haan-serve --tenants``)."""
        return cls(directory=TenantDirectory.from_file(path, require_auth=require_auth))

    @property
    def require_auth(self) -> bool:
        return self.directory.require_auth

    # -- auth ----------------------------------------------------------

    def authenticate(self, token: Optional[str]) -> TenantContext:
        """Resolve a hello token (see :meth:`TenantDirectory.authenticate`).

        A successful resolution opens the tenant's ledger account, seeding
        its prepaid balance from the tenant file exactly once.
        """
        try:
            context = self.directory.authenticate(token)
        except Exception:
            with self._lock:
                self.rejected_tokens += 1
            raise
        spec = self.directory.spec(context.name)
        self.ledger.open_account(
            context.name, balance=None if spec is None else spec.balance
        )
        with self._lock:
            if context.authenticated:
                self.authenticated_total += 1
        return context

    # -- the PreDecodeGate quota callable ------------------------------

    def quota_check(
        self, tenant: Optional[TenantContext], payload: Dict[str, Any], nbytes: int = 0
    ) -> None:
        """Admit one peeked work envelope against the tenant's buckets.

        Raises :class:`~repro.api.envelopes.QuotaExceededError` to shed.
        Row counts come from tensor ``shape`` fields of the peeked
        envelope (binary frames: the JSON preamble), so rejection never
        costs a buffer decode.
        """
        context = tenant if tenant is not None else ANONYMOUS_CONTEXT
        self.quota_for(context).admit(
            requests=1, rows=estimate_rows(payload), nbytes=nbytes
        )

    def quota_for(self, context: TenantContext) -> TenantQuota:
        """The tenant's quota, created from its tier policy on first use."""
        with self._lock:
            quota = self._quotas.get(context.name)
            if quota is None:
                quota = TenantQuota(
                    self.directory.policy_for(context.tier),
                    tenant=context.name,
                    clock=self._clock,
                )
                self._quotas[context.name] = quota
            return quota

    # -- metering ------------------------------------------------------

    def charge_request(
        self,
        tenant: Optional[TenantContext],
        rows: int = 0,
        nbytes: int = 0,
        wall_seconds: float = 0.0,
    ) -> None:
        """Meter one completed request (reader/worker side)."""
        context = tenant if tenant is not None else ANONYMOUS_CONTEXT
        self.ledger.charge_request(
            context.name, rows=rows, nbytes=nbytes, wall_seconds=wall_seconds
        )

    @property
    def cost_observer(self):
        """The :attr:`NormalizationService.cost_observer` hook (exact splits)."""
        return self.ledger.charge_batch

    # -- introspection -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The ``tenancy`` telemetry section / metrics-endpoint source."""
        with self._lock:
            quotas = {name: quota.snapshot() for name, quota in self._quotas.items()}
            authenticated = self.authenticated_total
            rejected = self.rejected_tokens
        return {
            "require_auth": self.require_auth,
            "tenants_declared": len(self.directory),
            "authenticated_total": authenticated,
            "rejected_tokens": rejected,
            "quotas": quotas,
            "ledger": self.ledger.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"TenancyController(tenants={len(self.directory)}, "
            f"require_auth={self.require_auth})"
        )
