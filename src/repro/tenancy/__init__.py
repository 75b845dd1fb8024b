"""Multi-tenancy for the serving stack: auth, quotas, metering, metrics.

The north star is "millions of users"; this package gives the wire tier
the three things that takes and the serving tiers below stay unaware of:

* **Identity** -- tenants declared in a JSON tenant file, authenticated
  by bearer token in the ``hello`` handshake (constant-time compare),
  every connection stamped with a :class:`TenantContext`
  (:mod:`repro.tenancy.tenants`);
* **Quotas** -- per-tenant token buckets over requests/rows/bytes,
  enforced in the server frame loop *before* frame decode and
  composed with overload shedding behind one
  :class:`~repro.api.admission.PreDecodeGate`
  (:mod:`repro.tenancy.quota`);
* **Metering** -- a :class:`CostLedger` attributing rows, bytes, wall
  latency and the simulated backends' modelled cycles/energy to each
  tenant with *exact* splits and prepaid-balance semantics
  (:mod:`repro.tenancy.ledger`);
* **Observability** -- a Prometheus-style ``/metrics`` text endpoint
  exporting the per-tenant state next to every serving-telemetry section
  (:mod:`repro.tenancy.metrics`).

:class:`TenancyController` (:mod:`repro.tenancy.control`) composes the
first three behind the hooks :class:`~repro.api.aserver.AsyncNormServer` and
:class:`~repro.serving.service.NormalizationService` expose.
"""

from repro.tenancy.control import TenancyController
from repro.tenancy.ledger import CostLedger, split_cost
from repro.tenancy.metrics import MetricsServer, render_prometheus
from repro.tenancy.quota import (
    DEFAULT_TIER,
    QuotaPolicy,
    TenantQuota,
    TokenBucket,
    estimate_rows,
)
from repro.tenancy.tenants import ANONYMOUS, TenantContext, TenantDirectory, TenantSpec

__all__ = [
    "ANONYMOUS",
    "CostLedger",
    "DEFAULT_TIER",
    "MetricsServer",
    "QuotaPolicy",
    "TenancyController",
    "TenantContext",
    "TenantDirectory",
    "TenantQuota",
    "TenantSpec",
    "TokenBucket",
    "estimate_rows",
    "render_prometheus",
    "split_cost",
]
