"""Server-side fault injection: the gate inside AsyncNormServer's frame loop.

:class:`FaultGate` adapts a :class:`~repro.chaos.plan.FaultPlan` to the
action set :class:`~repro.api.aserver.AsyncNormServer` consumes per received
frame -- ``delay`` (sleep, then handle normally), ``drop`` (swallow the
frame; the client's deadline fires), ``corrupt`` (answer with the rule's
deterministic garbage bytes; the client's frame decoder fails closed) and
``kill`` (drop the TCP connection mid-conversation).

Rule-kind translation: ``slow_drain`` becomes a ``delay`` (a server
cannot stall *after* replying from inside the frame loop, so it stalls
the reply instead), and ``refuse_connect`` is skipped -- by the time the
gate sees a frame the connection is already accepted; refuse-connect is a
client-side (dial-time) fault.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.chaos.plan import FaultAction, FaultPlan

__all__ = ["FaultGate"]

#: Rule kind -> the action kind AsyncNormServer's frame loop understands.
_SERVER_ACTIONS = {
    "delay": "delay",
    "slow_drain": "delay",
    "drop": "drop",
    "corrupt": "corrupt",
    "kill_after": "kill",
}


class FaultGate:
    """Consulted once per received frame by ``AsyncNormServer``'s reader."""

    def __init__(self, plan: FaultPlan, scope: str = "wire", replica: Optional[str] = None):
        self.plan = plan
        self._injector = plan.injector(scope=scope, replica=replica)
        self._lock = threading.Lock()
        self._by_kind: Dict[str, int] = {}

    def on_server_frame(self, payload: Dict[str, Any]) -> Optional[FaultAction]:
        """The action for this frame, or ``None`` to handle it normally."""
        action = self._injector.decide(payload.get("op"))
        if action is None:
            return None
        kind = _SERVER_ACTIONS.get(action.kind)
        if kind is None:
            return None
        with self._lock:
            self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        return FaultAction(
            kind=kind,
            delay_s=action.delay_s,
            data=action.data,
            rule_index=action.rule_index,
        )

    def snapshot(self) -> Dict[str, Any]:
        """Injection counters (``chaos`` telemetry section material)."""
        with self._lock:
            by_kind = dict(self._by_kind)
        out = self._injector.snapshot()
        out["by_kind"] = by_kind
        out["plan"] = self.plan.name or None
        return out
