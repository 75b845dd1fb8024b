"""`FleetTransport`: N replicas behind the one-transport client contract.

Conforms to the :class:`repro.api.transport.Transport` interface --
blocking ``request``, pipelined ``submit``, ``close`` -- so
``NormClient(transport=FleetTransport([...]))`` runs unchanged client code
against a whole fleet, bit-identically to a single server (every API
request is a pure function of its envelope, so re-dispatch, hedging and
scatter can never change a result, only who computes it).

Dispatch policy per envelope:

* **Keyed single requests** (``normalize``, ``stream``, ``spec``,
  ``execute``) route by consistent hash -- ``(model, dataset,
  accelerator)`` for serving ops, a spec digest for ``execute`` ops -- so
  each replica's registries stay hot.  The blocking path is **hedged**:
  after a p99-derived delay the straggling request is re-issued to the
  next ring replica and the first response wins; the loser is abandoned
  (its late response is dropped by the connection demultiplexer).
* **Bulk requests** (``normalize_bulk``, ``execute_bulk``) **scatter**
  over the currently-healthy shards in ring order: contiguous item slices,
  one sub-request per shard under a fresh ``request_id``, responses
  reassembled in request order.  A shard failing mid-flight is retried on
  the survivors; an *error envelope* from any shard fails the whole bulk
  (single-server semantics).
* **Un-keyed ops** (``ping``, ``telemetry``) go to the first healthy
  replica in join order.

Each replica is fronted by one pooled
:class:`~repro.api.transport.SocketTransport` (created lazily; a factory
is injectable for tests).  Transport-level failures feed the
:class:`~repro.fleet.router.FleetRouter` health gate; when every replica
is ejected the fleet **fails closed** with
:class:`~repro.api.envelopes.NoHealthyReplicaError` instead of hammering
dead servers.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.envelopes import (
    ApiError,
    NoHealthyReplicaError,
    TransportError,
    next_request_id,
)
from repro.api.framing import MAX_FRAME_BYTES
from repro.api.retry import AMBIGUOUS, NON_IDEMPOTENT_OPS, OVERLOADED, RetryPolicy
from repro.api.transport import (
    PendingReply,
    SocketTransport,
    Transport,
    _overload_error,
    register_transport,
)
from repro.fleet.health import BreakerConfig
from repro.fleet.router import FleetRouter

#: Ops whose routing key is the serving tuple (model, dataset, accelerator).
_KEYED_OPS = ("normalize", "normalize_bulk", "stream", "spec")

#: Bulk ops and the envelope field their item list lives in.
_BULK_FIELDS = {"normalize_bulk": "tensors", "execute_bulk": "groups"}

#: Poll granularity while more than one hedged reply is in flight.
_POLL_INTERVAL = 0.001


def _default_factory(
    address: str,
    timeout: float,
    connect_timeout: float,
    pool_size: int,
    max_frame_bytes: int,
    retry_policy: Optional[RetryPolicy] = None,
    token: Optional[str] = None,
) -> SocketTransport:
    from repro.api.server import parse_address

    host, port = parse_address(address)
    return SocketTransport(
        host,
        port,
        timeout=timeout,
        connect_timeout=connect_timeout,
        pool_size=pool_size,
        max_frame_bytes=max_frame_bytes,
        retry_policy=retry_policy,
        token=token,
    )


class _FleetReply:
    """Pipelined reply that feeds its outcome back into replica health."""

    __slots__ = ("_transport", "address", "_reply", "_started", "_recorded")

    def __init__(self, transport: "FleetTransport", address: str, reply: PendingReply):
        self._transport = transport
        self.address = address
        self._reply = reply
        self._started = transport._clock()
        self._recorded = False

    def done(self) -> bool:
        return self._reply.done()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._reply.wait(timeout)

    def abandon(self) -> None:
        self._reply.abandon()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        try:
            value = self._reply.result(timeout)
        except TransportError:
            self._record(False)
            raise
        self._record(True)
        return value

    def _record(self, ok: bool) -> None:
        if self._recorded:
            return
        self._recorded = True
        router = self._transport._router
        if ok:
            router.record_success(self.address, self._transport._clock() - self._started)
        else:
            router.record_failure(self.address)


class FleetTransport(Transport):
    """Consistent-hash, health-gated, hedging transport over N replicas.

    Parameters
    ----------
    addresses:
        ``host:port`` strings of the replica servers (at least one).
    timeout / connect_timeout / pool_size / max_frame_bytes:
        Forwarded to each replica's :class:`SocketTransport`; ``timeout``
        is also the fleet-level per-request deadline.
    vnodes / breaker:
        Hash-ring density and breaker tunables
        (:class:`~repro.fleet.health.BreakerConfig`).
    hedge:
        Enable hedged retries on the blocking single-request path.
    hedge_delay:
        Fixed hedge delay in seconds, overriding the p99-derived policy
        (mainly for tests and benchmarks).
    hedge_default / hedge_floor / hedge_ceiling:
        The p99-derived policy: wait ``clamp(p99, floor, ceiling)`` on the
        primary (``default`` while its latency window is still cold)
        before re-issuing to the next ring replica.
    scatter:
        Split multi-item bulk requests across healthy shards.  Off, bulks
        route whole by their key (still hedged/failed over).
    transport_factory:
        ``address -> Transport`` override (tests inject scripted fakes).
    clock:
        Injectable monotonic clock shared with the health trackers.
    token:
        Tenant bearer token presented in every replica's hello handshake
        (the fleet acts as one tenant across all replicas).
    """

    def __init__(
        self,
        addresses: Sequence[str],
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        pool_size: int = 1,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        vnodes: int = 64,
        breaker: Optional[BreakerConfig] = None,
        hedge: bool = True,
        hedge_delay: Optional[float] = None,
        hedge_default: float = 0.05,
        hedge_floor: float = 0.005,
        hedge_ceiling: float = 1.0,
        scatter: bool = True,
        transport_factory: Optional[Callable[[str], Transport]] = None,
        clock: Callable[[], float] = time.monotonic,
        retry_policy: Optional[RetryPolicy] = None,
        token: Optional[str] = None,
    ):
        self.timeout = timeout
        # One bearer token spans the fleet: every replica authenticates the
        # same tenant, so hedges and failovers keep a single identity.
        self.token = token
        self.connect_timeout = connect_timeout
        self.pool_size = pool_size
        self.max_frame_bytes = max_frame_bytes
        self.hedge = hedge
        self.hedge_delay = hedge_delay
        self.hedge_default = hedge_default
        self.hedge_floor = hedge_floor
        self.hedge_ceiling = hedge_ceiling
        self.scatter = scatter
        # One policy instance spans the whole fleet: every replica's
        # SocketTransport shares this token bucket, so failovers and
        # per-replica retries draw from a single budget instead of each
        # replica amplifying overload independently.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._clock = clock
        self._router = FleetRouter(
            addresses, vnodes=vnodes, breaker=breaker, clock=clock
        )
        self._factory = transport_factory
        self._lock = threading.Lock()
        self._transports: Dict[str, Transport] = {}
        self._closed = False
        # Dispatch counters (guarded by _lock).
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.failovers = 0
        self.scatter_requests = 0
        self.scatter_retries = 0

    # -- membership / introspection ------------------------------------------

    @property
    def router(self) -> FleetRouter:
        """The routing/health core (exposed for telemetry and supervision)."""
        return self._router

    @property
    def addresses(self) -> Tuple[str, ...]:
        return self._router.addresses

    @property
    def address(self) -> str:
        """Fleet pseudo-address (what ``haan-client`` prints)."""
        return f"fleet({','.join(self._router.addresses)})"

    @property
    def negotiated_version(self) -> Optional[int]:
        """Schema version of the first connected replica (fleet-uniform)."""
        with self._lock:
            transports = list(self._transports.values())
        for transport in transports:
            version = getattr(transport, "negotiated_version", None)
            if version is not None:
                return version
        return None

    def add_replica(self, address: str) -> None:
        """Join a replica; its transport dials lazily on first dispatch."""
        self._router.add_replica(address)

    def remove_replica(self, address: str) -> None:
        """Leave a replica and drop its pooled connections."""
        self._router.remove_replica(address)
        with self._lock:
            transport = self._transports.pop(address, None)
        if transport is not None:
            transport.close()

    def stats(self) -> Dict[str, Any]:
        """Fleet gauges: dispatch counters plus per-replica health/pool."""
        with self._lock:
            transports = dict(self._transports)
            counters = {
                "hedges_issued": self.hedges_issued,
                "hedge_wins": self.hedge_wins,
                "failovers": self.failovers,
                "scatter_requests": self.scatter_requests,
                "scatter_retries": self.scatter_retries,
                "retry": self.retry_policy.snapshot(),
            }
        health = self._router.snapshot()
        replicas = {}
        for address in self._router.addresses:
            transport = transports.get(address)
            stats = getattr(transport, "stats", None)
            replicas[address] = {
                "health": health.get(address),
                "pool": stats() if callable(stats) else None,
            }
        counters["replicas"] = replicas
        return counters

    # -- transport plumbing --------------------------------------------------

    def _transport_for(self, address: str) -> Transport:
        with self._lock:
            if self._closed:
                raise TransportError("fleet transport is closed")
            transport = self._transports.get(address)
            if transport is None:
                if self._factory is not None:
                    transport = self._factory(address)
                else:
                    transport = _default_factory(
                        address,
                        self.timeout,
                        self.connect_timeout,
                        self.pool_size,
                        self.max_frame_bytes,
                        retry_policy=self.retry_policy,
                        token=self.token,
                    )
                self._transports[address] = transport
        return transport

    @staticmethod
    def routing_key(payload: Dict[str, Any]) -> Optional[Tuple]:
        """The consistent-hash key of one request envelope (None: un-keyed)."""
        op = payload.get("op")
        if op in _KEYED_OPS:
            return (
                payload.get("model"),
                payload.get("dataset"),
                payload.get("accelerator"),
            )
        if op in ("execute", "execute_bulk"):
            spec = payload.get("spec")
            digest = hashlib.sha1(
                json.dumps(spec, sort_keys=True, default=str).encode("utf-8")
            ).hexdigest()
            return ("execute", digest, payload.get("backend"))
        return None

    def _hedge_delay_for(self, address: str) -> float:
        if self.hedge_delay is not None:
            return self.hedge_delay
        return self._router.hedge_delay(
            address, self.hedge_default, self.hedge_floor, self.hedge_ceiling
        )

    # -- pipelined path ------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> PendingReply:
        """Pipeline one envelope to its primary healthy replica.

        Failing over at submit time walks the ring; a connection dying
        *after* the send fails the reply (and the replica's health) -- the
        pipelined path never resends on its own, matching
        :class:`SocketTransport` semantics.  Hedging applies only to the
        blocking :meth:`request` path, where there is a waiter to race.
        """
        reply, _address = self._submit_once(payload, self.routing_key(payload), ())
        return reply  # type: ignore[return-value]

    def _submit_once(
        self,
        payload: Dict[str, Any],
        key: Optional[Tuple],
        exclude: Sequence[str],
    ) -> Tuple["_FleetReply", str]:
        """Send to the first admitted candidate; fail closed when none take it."""
        last_error: Optional[TransportError] = None
        attempts = 0
        for address in self._router.candidates(key):
            if address in exclude:
                continue
            if not self._router.admit(address):
                continue
            attempts += 1
            try:
                transport = self._transport_for(address)
                reply = transport.submit(payload)
            except TransportError as error:
                self._router.record_failure(address)
                last_error = error
                continue
            except ApiError:
                raise  # protocol-level (frame too large): no replica involved
            if attempts > 1:
                with self._lock:
                    self.failovers += 1
            return _FleetReply(self, address, reply), address
        detail = f": last failure: {last_error}" if last_error is not None else ""
        raise NoHealthyReplicaError(
            f"no healthy replica among {list(self._router.addresses)} "
            f"for key {key!r}{detail}"
        ) from last_error

    # -- blocking path -------------------------------------------------------

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op")
        self.retry_policy.record_attempt()
        attempt = 0
        while True:
            envelope = self._route(payload, op)
            retry_after_ms = _overload_error(envelope)
            if retry_after_ms is None:
                return envelope
            # The winning replica shed this request before doing any work.
            # Re-dispatching is safe for every op, but only as the shared
            # budget allows and never before the server's own estimate of
            # when capacity frees up.
            delay = self.retry_policy.next_delay(
                attempt, op, OVERLOADED, retry_after_ms=retry_after_ms
            )
            if delay is None:
                return envelope
            time.sleep(delay)
            attempt += 1

    def _route(self, payload: Dict[str, Any], op: Optional[str]) -> Dict[str, Any]:
        field = _BULK_FIELDS.get(op)
        if field is not None and self.scatter:
            items = payload.get(field)
            if isinstance(items, list) and len(items) > 1:
                return self._scatter_request(payload, field)
        envelope, _address = self._hedged_request(payload)
        return envelope

    def _hedged_request(
        self,
        payload: Dict[str, Any],
        exclude: Sequence[str] = (),
        deadline: Optional[float] = None,
    ) -> Tuple[Dict[str, Any], str]:
        """Dispatch one envelope with hedging; returns (response, winner).

        One reply starts on the primary; once its hedge delay elapses a
        second copy goes to the next ring candidate and both race.  A reply
        failing (its connection died) feeds the breaker and frees its slot
        for the next candidate.  Runs until a response envelope arrives,
        the candidate set is exhausted (``NoHealthyReplicaError``), or the
        deadline passes.
        """
        key = self.routing_key(payload)
        if deadline is None:
            deadline = self._clock() + self.timeout
        tried: List[str] = list(exclude)
        inflight: List[_FleetReply] = []
        hedged = not self.hedge
        last_error: Optional[TransportError] = None

        def _launch() -> bool:
            nonlocal last_error
            try:
                reply, address = self._submit_once(payload, key, tried)
            except NoHealthyReplicaError as error:
                last_error = error
                return False
            tried.append(address)
            inflight.append(reply)
            return True

        _launch_ok = _launch()
        if not _launch_ok:
            raise last_error  # type: ignore[misc]  -- set by _launch
        primary = inflight[0]
        while True:
            # Collect any finished reply; first response envelope wins.
            for reply in list(inflight):
                if not reply.done():
                    continue
                try:
                    value = reply.result(0)
                except TransportError as error:
                    last_error = error
                    inflight.remove(reply)
                    continue
                if reply is not primary:
                    with self._lock:
                        self.hedge_wins += 1
                for loser in inflight:
                    if loser is not reply:
                        loser.abandon()
                return value, reply.address
            now = self._clock()
            if now >= deadline:
                for reply in inflight:
                    reply.abandon()
                raise TransportError(
                    f"fleet request timed out after {self.timeout}s "
                    f"(tried {tried})"
                )
            if not inflight:
                # Everything in flight failed *after* its frame was sent --
                # an ambiguous failure: the op may already have run on the
                # dead replica.  Failing over re-sends, which the retry
                # discipline forbids for non-idempotent execute ops.
                op = payload.get("op")
                if op in NON_IDEMPOTENT_OPS:
                    self.retry_policy.next_delay(0, op, AMBIGUOUS)  # counted
                    raise TransportError(
                        f"ambiguous failure for non-idempotent op {op!r} "
                        f"(tried {tried}); not re-sent: {last_error}"
                    ) from last_error
                # Idempotent ops move to the next candidate.
                if not _launch():
                    raise NoHealthyReplicaError(
                        f"no healthy replica left for key {key!r} "
                        f"(tried {tried}): {last_error}"
                    ) from last_error
                continue
            if not hedged and now - primary._started >= self._hedge_delay_for(
                primary.address
            ):
                hedged = True
                if _launch():
                    with self._lock:
                        self.hedges_issued += 1
                continue
            if len(inflight) == 1 and not hedged:
                # Sleep until the hedge would fire (or the deadline).
                hedge_at = primary._started + self._hedge_delay_for(primary.address)
                inflight[0].wait(max(0.0, min(hedge_at, deadline) - now))
            else:
                # Racing replies: watch the first, poll the rest.
                inflight[0].wait(_POLL_INTERVAL)

    # -- scatter-gather ------------------------------------------------------

    def _scatter_request(self, payload: Dict[str, Any], field: str) -> Dict[str, Any]:
        """Split a bulk envelope across healthy shards; gather in order."""
        items = payload[field]
        key = self.routing_key(payload)
        deadline = self._clock() + self.timeout
        shards = self._router.healthy_shards(key)
        if len(shards) < 2:
            envelope, _address = self._hedged_request(payload, deadline=deadline)
            return envelope
        shards = shards[: len(items)]
        with self._lock:
            self.scatter_requests += 1

        # Contiguous, balanced slices: shard i takes base(+1) items.
        base, extra = divmod(len(items), len(shards))
        bounds: List[Tuple[int, int]] = []
        offset = 0
        for index in range(len(shards)):
            size = base + (1 if index < extra else 0)
            bounds.append((offset, offset + size))
            offset += size

        def _sub_payload(lo: int, hi: int) -> Dict[str, Any]:
            sub = dict(payload)
            sub[field] = items[lo:hi]
            # Fresh ids keep a retried slice from colliding with a sibling
            # slice already in flight on the same replica connection.
            sub["request_id"] = next_request_id()
            return sub

        pending: List[Optional[_FleetReply]] = []
        for (lo, hi), address in zip(bounds, shards):
            try:
                reply, _addr = self._submit_to(address, _sub_payload(lo, hi))
            except TransportError:
                reply = None  # collected below via the retry path
            pending.append(reply)

        op = payload.get("op")
        responses: List[Optional[Dict[str, Any]]] = [None] * len(bounds)
        for index, reply in enumerate(pending):
            lo, hi = bounds[index]
            envelope: Optional[Dict[str, Any]] = None
            slice_error: Optional[TransportError] = None
            if reply is not None:
                try:
                    envelope = reply.result(max(0.0, deadline - self._clock()))
                except TransportError as error:
                    envelope = None
                    slice_error = error
            if envelope is None and slice_error is not None and op in NON_IDEMPOTENT_OPS:
                # The slice was sent and its shard died before replying --
                # ambiguous: the groups may already have executed there.
                self.retry_policy.next_delay(0, op, AMBIGUOUS)  # counted
                raise TransportError(
                    f"ambiguous failure for non-idempotent op {op!r} on "
                    f"scatter slice [{lo}:{hi}]; not re-sent: {slice_error}"
                ) from slice_error
            if envelope is None:
                # The shard died under this slice (or never took it):
                # re-dispatch on the survivors, hedged, same deadline.
                with self._lock:
                    self.scatter_retries += 1
                envelope, _addr = self._hedged_request(
                    _sub_payload(lo, hi), deadline=deadline
                )
            responses[index] = envelope

        return self._combine(payload, responses)

    def _submit_to(
        self, address: str, payload: Dict[str, Any]
    ) -> Tuple["_FleetReply", str]:
        """Pipeline one sub-envelope to a specific shard (health-gated)."""
        if not self._router.admit(address):
            raise TransportError(
                f"shard {address} stopped admitting", address=address
            )
        try:
            reply = self._transport_for(address).submit(payload)
        except TransportError as error:
            self._router.record_failure(address)
            raise error
        return _FleetReply(self, address, reply), address

    @staticmethod
    def _combine(
        payload: Dict[str, Any], responses: Sequence[Optional[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """Reassemble shard responses in request order.

        Any shard answering with an error envelope fails the whole bulk
        (exactly what a single server does when one item is bad); its
        envelope is surfaced under the original ``request_id``.
        """
        for envelope in responses:
            if envelope is None:
                raise TransportError("scatter shard produced no response")
            if envelope.get("ok") is False or envelope.get("op") == "error":
                combined = dict(envelope)
                combined["request_id"] = payload.get("request_id")
                return combined
        first = responses[0]
        combined = dict(first)
        combined["request_id"] = payload.get("request_id")
        results: List[Any] = []
        for envelope in responses:
            results.extend(envelope.get("results") or [])
        combined["results"] = results
        return combined

    # -- lifecycle -----------------------------------------------------------

    def wait_until_ready(self, timeout: float = 10.0, poll_interval: float = 0.1) -> None:
        """Block until at least one replica accepts connections."""
        deadline = time.monotonic() + timeout
        last_error: Optional[BaseException] = None
        while True:
            for address in self._router.addresses:
                transport = self._transport_for(address)
                waiter = getattr(transport, "wait_until_ready", None)
                try:
                    if waiter is not None:
                        waiter(timeout=poll_interval, poll_interval=poll_interval)
                    return
                except TransportError as error:
                    last_error = error
            if time.monotonic() >= deadline:
                raise NoHealthyReplicaError(
                    f"no replica of {list(self._router.addresses)} became "
                    f"ready within {timeout}s: {last_error}"
                ) from last_error

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            transports, self._transports = list(self._transports.values()), {}
        for transport in transports:
            transport.close()


register_transport("fleet", FleetTransport)
