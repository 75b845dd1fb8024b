"""Per-tenant rate quotas: token buckets over requests, rows and bytes.

A tenant's tier grants it a steady-state rate (``*_per_s``) and a burst
allowance (``burst_seconds`` worth of rate, accumulated while idle).  Each
tenant owns three :class:`TokenBucket` instances -- requests, rows, bytes --
grouped in a :class:`TenantQuota` that admits a request *atomically*: either
all three buckets are debited or none is, so a rejection never leaks
partial charge and concurrent callers can never over-admit.

The gate runs in the server's frame loop **before** frame decode.  The
row estimate therefore comes from :func:`estimate_rows`, which reads the
``shape`` of each tensor in the op's tensor slots of the peeked envelope
(for binary frames: the JSON preamble only) without ever materializing a
buffer.

Rejections raise :class:`~repro.api.envelopes.QuotaExceededError` carrying
``retry_after_ms`` -- the bucket's own estimate of when enough tokens will
have refilled -- which the client-side retry policy honors as its backoff
floor, exactly like overload shedding.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.api.envelopes import QuotaExceededError, rewrite_slot_tensors

__all__ = [
    "DEFAULT_TIER",
    "QuotaPolicy",
    "TenantQuota",
    "TokenBucket",
    "estimate_rows",
]

#: ``retry_after_ms`` cap for unsatisfiable waits (zero-rate buckets or
#: requests larger than a bucket's burst capacity): the client should come
#: back *eventually*, not never.
_MAX_RETRY_AFTER_MS = 60_000.0


@dataclass(frozen=True)
class QuotaPolicy:
    """One tier's rate grants.  ``None`` disables that resource's limit."""

    requests_per_s: Optional[float] = 100.0
    rows_per_s: Optional[float] = 100_000.0
    bytes_per_s: Optional[float] = 64 * 1024 * 1024
    #: Burst allowance: each bucket's capacity is ``rate * burst_seconds``
    #: (at least one request / one row / one frame), accumulated while idle.
    burst_seconds: float = 1.0

    def __post_init__(self) -> None:
        for name in ("requests_per_s", "rows_per_s", "bytes_per_s"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 or None, got {value!r}")
        if self.burst_seconds <= 0:
            raise ValueError(f"burst_seconds must be > 0, got {self.burst_seconds!r}")

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], where: str = "tier") -> "QuotaPolicy":
        """Build from a tenant-file tier entry; unknown keys are rejected."""
        if not isinstance(payload, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(payload).__name__}")
        known = {"requests_per_s", "rows_per_s", "bytes_per_s", "burst_seconds"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"{where} has unknown keys {sorted(unknown)}; knows {sorted(known)}")
        kwargs: Dict[str, Any] = {}
        for key in known:
            if key not in payload:
                continue
            value = payload[key]
            if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"{where}.{key} must be a number or null, got {value!r}")
            kwargs[key] = None if value is None else float(value)
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests_per_s": self.requests_per_s,
            "rows_per_s": self.rows_per_s,
            "bytes_per_s": self.bytes_per_s,
            "burst_seconds": self.burst_seconds,
        }


#: The tier anonymous (and otherwise un-tiered) tenants run under.
DEFAULT_TIER = "default"


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s up to ``capacity``.

    The clock is injectable so tests control refill deterministically.
    ``try_acquire`` returns ``None`` on admission (tokens debited) or the
    seconds until ``amount`` tokens will be available (nothing debited --
    a rejected caller never consumes budget).
    """

    __slots__ = ("rate", "capacity", "_clock", "_lock", "_tokens", "_updated")

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate!r}")
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity!r}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.capacity  # a fresh bucket grants its full burst
        self._updated = clock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, amount: float = 1.0) -> Optional[float]:
        """Debit ``amount`` tokens, or return the wait (s) until possible."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount!r}")
        with self._lock:
            self._refill_locked()
            if amount <= self._tokens:
                self._tokens -= amount
                return None
            deficit = amount - self._tokens
            if self.rate <= 0:
                return math.inf
            return deficit / self.rate

    def deficit(self, amount: float) -> float:
        """Seconds until ``amount`` tokens are available (0 if now)."""
        with self._lock:
            self._refill_locked()
            if amount <= self._tokens:
                return 0.0
            if self.rate <= 0:
                return math.inf
            return (amount - self._tokens) / self.rate

    def consume(self, amount: float) -> None:
        """Unconditionally debit ``amount`` (caller verified availability)."""
        with self._lock:
            self._refill_locked()
            self._tokens -= amount

    @property
    def tokens(self) -> float:
        """Current token balance (after refill)."""
        with self._lock:
            self._refill_locked()
            return self._tokens

    def snapshot(self) -> Dict[str, float]:
        return {"rate": self.rate, "capacity": self.capacity, "tokens": round(self.tokens, 3)}

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate}, capacity={self.capacity})"


#: Resource names, in the order they are checked and reported.
_RESOURCES = ("requests", "rows", "bytes")


class TenantQuota:
    """One tenant's composed quota: request, row and byte buckets.

    ``admit`` is all-or-nothing under one lock: all three buckets are
    checked first, then debited together, so a request rejected on one
    resource leaves the other buckets untouched and concurrent reader
    threads account exactly (never over-admitting past any bucket's
    capacity).  The buckets stay individually thread-safe, so reading a
    gauge never needs the tenant lock.
    """

    def __init__(
        self,
        policy: QuotaPolicy,
        tenant: str = "anonymous",
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy
        self.tenant = tenant
        self._lock = threading.Lock()
        self._buckets: Dict[str, Optional[TokenBucket]] = {}
        for name, rate, floor in (
            ("requests", policy.requests_per_s, 1.0),
            ("rows", policy.rows_per_s, 1.0),
            ("bytes", policy.bytes_per_s, 1.0),
        ):
            if rate is None:
                self._buckets[name] = None  # unlimited
            else:
                capacity = max(floor, rate * policy.burst_seconds)
                self._buckets[name] = TokenBucket(rate, capacity, clock)
        self.admitted = 0
        self.shed: Dict[str, int] = {name: 0 for name in _RESOURCES}

    def admit(self, requests: float = 1.0, rows: float = 0.0, nbytes: float = 0.0) -> None:
        """Admit one request charging all three resources, or raise.

        Raises :class:`QuotaExceededError` naming the binding resource and
        carrying ``retry_after_ms`` (the longest bucket wait, capped).
        """
        amounts = {"requests": requests, "rows": rows, "bytes": nbytes}
        with self._lock:
            worst: Optional[tuple] = None  # (wait_s, resource)
            for name in _RESOURCES:
                bucket = self._buckets[name]
                if bucket is None or amounts[name] <= 0:
                    continue
                wait = bucket.deficit(amounts[name])
                if wait > 0 and (worst is None or wait > worst[0]):
                    worst = (wait, name)
            if worst is not None:
                wait, resource = worst
                self.shed[resource] += 1
                retry_after = min(_MAX_RETRY_AFTER_MS, max(1.0, wait * 1000.0))
                raise QuotaExceededError(
                    f"tenant {self.tenant!r} exceeded its {resource} quota "
                    f"({self._describe(resource)}); request shed before decode",
                    retry_after_ms=retry_after,
                )
            for name in _RESOURCES:
                bucket = self._buckets[name]
                if bucket is not None and amounts[name] > 0:
                    bucket.consume(amounts[name])
            self.admitted += 1

    def _describe(self, resource: str) -> str:
        rate = getattr(self.policy, f"{resource}_per_s")
        return f"{rate:g}/s, burst {self.policy.burst_seconds:g}s"

    def snapshot(self) -> Dict[str, Any]:
        """Gauges for telemetry / the metrics endpoint."""
        return {
            "admitted": self.admitted,
            "shed": dict(self.shed),
            "buckets": {
                name: (bucket.snapshot() if bucket is not None else None)
                for name, bucket in self._buckets.items()
            },
        }


def _looks_like_tensor(value: Dict[str, Any]) -> bool:
    return (
        isinstance(value.get("shape"), list)
        and "encoding" in value
        and "data" in value
    )


def estimate_rows(payload: Any) -> int:
    """Row (token) count of an envelope, from tensor shapes alone.

    Every tensor in the op's tensor slots contributes ``shape[0]`` rows
    when 2-D-or-higher, else 1 (an op outside the op table: every
    tensor-shaped dict, found by a deep walk).  Works on JSON envelopes and
    binary-frame preambles alike: a tensor's ``data`` is never touched, so
    no tensor bytes are materialized for a request that ends up rejected.
    """
    total = 0

    def count(tensor: Dict[str, Any]) -> Dict[str, Any]:
        nonlocal total
        shape = tensor["shape"]
        if len(shape) >= 2 and isinstance(shape[0], int) and shape[0] >= 0:
            total += shape[0]
        else:
            total += 1
        return tensor

    if isinstance(payload, dict):
        rewrite_slot_tensors(payload, count, _looks_like_tensor)
    return total
