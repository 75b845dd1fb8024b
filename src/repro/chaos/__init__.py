"""repro.chaos: deterministic fault injection for the serving stack.

Everything here is driven by a seeded, JSON-serializable
:class:`~repro.chaos.plan.FaultPlan`: the same plan replays the same
fault schedule whether applied client-side
(:class:`~repro.chaos.transport.ChaosTransport`, wrapping any pooled
transport) or server-side (:class:`~repro.chaos.gate.FaultGate`, hooked
into ``AsyncNormServer``'s frame loop).  The ``haan-chaos`` CLI
(:mod:`repro.chaos.cli`) drives golden-checked traffic under a plan and
asserts the robustness contract: every response is bit-identical to the
fault-free run or a *typed* failure from the API error taxonomy --
never silent corruption.
"""

from repro.chaos.gate import FaultGate
from repro.chaos.plan import (
    FAULT_KINDS,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    canned_plan,
)
from repro.chaos.transport import ChaosTransport

__all__ = [
    "FAULT_KINDS",
    "ChaosTransport",
    "FaultAction",
    "FaultGate",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "canned_plan",
]
