"""Fleet tier: N `AsyncNormServer` replicas behind one client transport.

The subsystem that takes the serving stack from one process to a replica
set, bit-identically to a single server:

* :mod:`repro.fleet.ring` -- consistent-hash ring with virtual nodes
  (stable :mod:`hashlib` placement, minimal rebalancing on join/leave).
* :mod:`repro.fleet.health` -- per-replica rolling success/latency
  windows and the closed/open/half-open circuit breaker.
* :mod:`repro.fleet.router` -- :class:`FleetRouter`: health-gated
  candidate selection plus the p99-derived hedge-delay policy.
* :mod:`repro.fleet.transport` -- :class:`FleetTransport`: the
  :class:`~repro.api.transport.Transport` implementation that hedges
  single requests and scatter-gathers bulk requests over the replicas
  (``NormClient(transport=FleetTransport([...]))`` -- zero client-code
  changes; registered as transport name ``"fleet"``).
* :mod:`repro.fleet.supervisor` -- launch/supervise N local
  ``haan-serve --listen`` subprocesses, restarting the dead.
* :mod:`repro.fleet.cli` -- the ``haan-fleet`` console script.

Lazy exports (PEP 562), like :mod:`repro.api`: the ring/health/router
modules are leaves, but the transport layer pulls in :mod:`repro.api`.
"""

from __future__ import annotations

from typing import List

_EXPORTS = {
    "HashRing": "ring",
    "stable_hash": "ring",
    "canonical_key": "ring",
    "BreakerConfig": "health",
    "ReplicaHealth": "health",
    "CLOSED": "health",
    "OPEN": "health",
    "HALF_OPEN": "health",
    "FleetRouter": "router",
    "FleetTransport": "transport",
    "ReplicaProcess": "supervisor",
    "FleetSupervisor": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
