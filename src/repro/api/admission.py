"""Server-side admission control: shed work that cannot finish in time.

An overloaded server that keeps accepting work converts *every* request
into a timeout; one that sheds early keeps its goodput.  The
:class:`AdmissionController` sits in
:class:`~repro.api.aserver.AsyncNormServer`'s frame loop, *before* any
tensor decode: it sees only the raw envelope
dict (cheap JSON already parsed by the frame decoder) and decides in
O(1) whether the request can plausibly meet its deadline.

Two signals gate admission:

* **Queue depth** -- a hard bound on envelopes admitted but not yet
  completed across all connections.  Past it, everything sheds.
* **Deadline feasibility** -- an exponential moving average of observed
  per-request service time, multiplied by the number of requests already
  waiting, estimates this request's expected completion time.  A request
  whose ``deadline_ms`` is below that estimate is shed immediately --
  failing in microseconds instead of failing slowly at its deadline.

Shed requests get a typed :class:`~repro.api.envelopes.OverloadedError`
carrying ``retry_after_ms`` (the controller's estimate of when the queue
drains below the bound), which the client-side
:class:`~repro.api.retry.RetryPolicy` honors as its backoff floor.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.api.envelopes import OverloadedError, validate_deadline_ms

__all__ = ["WORK_OPS", "AdmissionController", "PreDecodeGate"]

#: Ops that represent real work and are subject to shedding.  Control ops
#: (ping, hello, telemetry, spec) stay admissible even under overload --
#: they are how operators observe an overloaded server.
WORK_OPS = frozenset(
    {"normalize", "normalize_bulk", "stream", "execute", "execute_bulk"}
)


class AdmissionController:
    """Pre-decode load shedding for :class:`~repro.api.aserver.AsyncNormServer`.

    Thread-safe; one instance is shared by every connection's reader
    thread.  The clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        max_queue_depth: int = 256,
        ema_alpha: float = 0.2,
        initial_service_time: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha!r}")
        if initial_service_time <= 0:
            raise ValueError(
                f"initial_service_time must be > 0, got {initial_service_time!r}"
            )
        self.max_queue_depth = max_queue_depth
        self._alpha = ema_alpha
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight = 0
        self._peak_inflight = 0
        self._service_time = float(initial_service_time)
        self._admitted = 0
        self._shed_queue_full = 0
        self._shed_deadline = 0

    # -- the gate ------------------------------------------------------

    def check(self, payload: Dict[str, Any]) -> None:
        """Admit or shed one raw envelope; raises ``OverloadedError`` to shed.

        Called from the server's frame loop before any decode beyond the JSON
        parse the framing layer already did.  On success the request is
        counted in-flight; the server must pair every successful
        ``check`` with exactly one :meth:`complete`.
        """
        op = payload.get("op")
        if op not in WORK_OPS:
            return
        # deadline_ms is validated here even when the queue is empty so a
        # zero/negative deadline is rejected before it enters the batcher
        # and "times out" deep in a worker (satellite fix; the envelope
        # decoder repeats this check for the in-process path).
        deadline_ms = validate_deadline_ms(payload.get("deadline_ms"))
        with self._lock:
            if self._inflight >= self.max_queue_depth:
                self._shed_queue_full += 1
                raise OverloadedError(
                    f"queue depth {self._inflight} at bound "
                    f"{self.max_queue_depth}; request shed before decode",
                    retry_after_ms=self._retry_after_locked(),
                )
            if deadline_ms is not None:
                expected = (self._inflight + 1) * self._service_time * 1000.0
                if deadline_ms < expected:
                    self._shed_deadline += 1
                    raise OverloadedError(
                        f"deadline {deadline_ms:.1f} ms cannot be met: "
                        f"expected completion in ~{expected:.1f} ms at "
                        f"queue depth {self._inflight}",
                        retry_after_ms=self._retry_after_locked(),
                    )
            self._inflight += 1
            self._admitted += 1
            if self._inflight > self._peak_inflight:
                self._peak_inflight = self._inflight

    def complete(self, service_time: Optional[float] = None) -> None:
        """Mark one admitted request finished; feeds the service-time EMA."""
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
            if service_time is not None and service_time >= 0:
                self._service_time += self._alpha * (service_time - self._service_time)

    def _retry_after_locked(self) -> float:
        """Estimated ms until the queue drains to half the bound."""
        backlog = max(self._inflight - self.max_queue_depth // 2, 1)
        return max(1.0, backlog * self._service_time * 1000.0)

    # -- pressure signal for the degradation ladder --------------------

    def pressure(self) -> float:
        """Queue occupancy in [0, 1+]; the degradation ladder's input."""
        with self._lock:
            return self._inflight / self.max_queue_depth

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    # -- introspection -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Counters for the ``admission`` telemetry section."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "peak_inflight": self._peak_inflight,
                "max_queue_depth": self.max_queue_depth,
                "admitted": self._admitted,
                "shed_queue_full": self._shed_queue_full,
                "shed_deadline": self._shed_deadline,
                "service_time_ema_ms": round(self._service_time * 1000.0, 3),
            }

    def __repr__(self) -> str:
        return (
            f"AdmissionController(max_queue_depth={self.max_queue_depth}, "
            f"inflight={self.inflight})"
        )


class PreDecodeGate:
    """The server's single pre-decode shedding gate: quota, then overload.

    Composes per-tenant quota shedding (:mod:`repro.tenancy`) with the
    overload :class:`AdmissionController` behind one ``check`` call in the
    frame loop, so both policies see the same peeked envelope (binary
    frames: JSON preamble only) and both reject before any tensor buffer
    is materialized.

    Order matters: the quota check runs first so a flooding tenant is
    charged against *its own* bucket and never consumes an admission slot
    or skews the service-time EMA; only quota-admitted work reaches the
    overload controller (whose successful ``check`` must still be paired
    with ``complete``).  ``quota`` is a callable
    ``(tenant, payload, nbytes) -> None`` raising
    :class:`~repro.api.envelopes.QuotaExceededError` to shed; ``None``
    disables tenancy (the gate degrades to plain admission control).
    """

    def __init__(
        self,
        admission: AdmissionController,
        quota: Optional[Callable[[Any, Dict[str, Any], int], None]] = None,
    ):
        self.admission = admission
        self.quota = quota

    def check(self, payload: Dict[str, Any], tenant: Any = None, nbytes: int = 0) -> None:
        """Admit or shed one peeked envelope (raises a typed ApiError to shed)."""
        if self.quota is not None and payload.get("op") in WORK_OPS:
            self.quota(tenant, payload, nbytes)
        self.admission.check(payload)
