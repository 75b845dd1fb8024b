"""Client transports: the same envelopes, in-process or over TCP.

A transport is two methods -- blocking ``request(envelope) -> envelope``
and pipelined ``submit(envelope) -> PendingReply`` -- so
:class:`~repro.api.client.NormClient` code is identical whether it talks to
a :class:`NormalizationService` in this process or to a
:class:`~repro.api.aserver.AsyncNormServer` on another host:

* :class:`InProcessTransport` hands the envelope straight to a shared
  :class:`~repro.api.handler.ApiHandler` (no socket, no JSON bytes on the
  floor, but the *same* schema validation and dispatch path).
* :class:`SocketTransport` speaks the length-prefixed JSON frame protocol
  of :mod:`repro.api.framing` over a **pool** of TCP connections.  It is
  safe for concurrent callers and for pipelining: every connection may
  carry many requests in flight, and requests spread over the pool by
  load.  The transport starts no thread.  Whichever caller waits for a
  reply reads the connection and routes responses by ``request_id`` (the
  server answers in completion order, not arrival order) to the other
  waiters, then hands the read role on (leader/followers, Schmidt et al.,
  PLoP 2000); a lock-step caller reads its own reply.  On connect it
  performs the ``hello`` schema-version handshake -- the server advertises
  its ``min..max`` range and the client downgrades within its own -- and
  stamps every outgoing envelope with the negotiated version.

Reconnect semantics: a connection that dies fails its in-flight requests
with :class:`TransportError` (pending requests never hang), and the pool
transparently opens a fresh connection for subsequent traffic.  The
blocking ``request`` path additionally retries exactly once against a
fresh connection -- safe because every API request is a pure function of
its envelope (retrying cannot double-apply).
"""

from __future__ import annotations

import math
import select
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api import framing
from repro.api.envelopes import (
    BINARY_WIRE_VERSION,
    MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
    ApiError,
    BadSchemaError,
    HelloRequest,
    SchemaVersionError,
    TransportError,
    binary_to_base64,
    negotiate_version,
    parse_hello_response,
    rewrite_slot_tensors,
)
from repro.api.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    recv_frame,
    send_frame,
)
from repro.api.retry import AMBIGUOUS, CLEAN, OVERLOADED, RetryPolicy


class PendingReply:
    """Client-side future of one in-flight request envelope.

    A reply registered on a pooled connection completes when some caller
    reads its frame off that connection; waiting on it (:meth:`wait`,
    :meth:`result`) makes the waiter that reader if nobody else is, and
    :meth:`done` reads whatever has already arrived.  A bare
    ``PendingReply()`` is completed by whoever built it
    (:meth:`set_result` / :meth:`set_exception`).
    """

    __slots__ = ("_value", "_error", "_done", "_conn", "_request_id", "_event")

    def __init__(self, conn: Optional["_PoolConnection"] = None, request_id: Any = None):
        self._value: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._done = False
        self._conn = conn
        self._request_id = request_id
        self._event = threading.Event() if conn is None else None

    def set_result(self, value: Dict[str, Any]) -> None:
        self._value = value
        self._done = True
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._done = True
        self._event.set()

    def done(self) -> bool:
        """Whether a response (or failure) has arrived."""
        if not self._done and self._conn is not None:
            self._conn.poll()
        return self._done

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block up to ``timeout`` for completion; returns :meth:`done`.

        Unlike :meth:`result`, a timeout here has **no** side effect: the
        request stays registered and may still complete.  Hedged dispatch
        uses this to watch a straggler without abandoning it.
        """
        if self._done:
            return True
        if self._conn is None:
            return self._event.wait(timeout)
        return self._conn.wait_for(self, timeout)

    def abandon(self) -> None:
        """Withdraw the request registration (drop a hedged loser).

        The server may still answer; the connection's demultiplexer drops
        the orphaned response.  Idempotent, and a no-op for a bare reply.
        """
        if self._conn is not None:
            self._conn.discard(self._request_id)

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the response envelope arrives; failures re-raise."""
        if not self.wait(timeout):
            # Withdraw the registration so abandoned requests do not pile
            # up in the in-flight map of a wedged-but-connected server.
            self.abandon()
            raise TransportError(
                f"no response within {timeout}s (request still in flight)"
            )
        if self._error is not None:
            raise self._error
        return self._value


#: Error codes meaning "the server shed this request before any work ran".
#: Overload shedding and per-tenant quota shedding share the same retry
#: semantics: nothing executed, so resending is safe for every op once the
#: server-supplied ``retry_after_ms`` has elapsed.
_SHED_ERROR_CODES = frozenset({"overloaded", "quota_exceeded"})


def _overload_error(response: Dict[str, Any]) -> Optional[float]:
    """``retry_after_ms`` of a shed-before-work error envelope, else ``None``.

    Cheap structural peek (no full decode): retry loops use it to decide
    whether a response envelope is really the server shedding load --
    either overload (``overloaded``) or a tenant quota (``quota_exceeded``).
    Returns 0.0 when the envelope carries no usable ``retry_after_ms``.
    """
    if not isinstance(response, dict):
        return None
    error = response.get("error")
    if not isinstance(error, dict) or error.get("code") not in _SHED_ERROR_CODES:
        return None
    retry_after = error.get("retry_after_ms")
    if isinstance(retry_after, bool) or not isinstance(retry_after, (int, float)):
        return 0.0
    return float(retry_after)


class Transport:
    """Contract every client transport implements."""

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request envelope and return the response envelope."""
        raise NotImplementedError

    def submit(self, payload: Dict[str, Any]) -> PendingReply:
        """Send one request envelope without waiting; returns its reply.

        The base implementation completes synchronously (in-process
        transports have no wire to overlap); :class:`SocketTransport`
        overrides it with true pipelining.
        """
        reply = PendingReply()
        try:
            reply.set_result(self.request(payload))
        except ApiError as error:
            reply.set_exception(error)
        return reply

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessTransport(Transport):
    """Client transport over a service living in this process.

    Wraps an existing :class:`NormalizationService` -- or builds one when
    none is given -- behind the same
    :class:`~repro.api.handler.ApiHandler` a network server uses.

    Parameters
    ----------
    service:
        An existing service to front.  When omitted a fresh service
        is created (and owned: closing the transport closes it).
    registry / loader:
        Forwarded to the owned service's
        :class:`~repro.serving.registry.CalibrationRegistry` when no
        ``service`` is given.
    max_payload_elements:
        Handler-side tensor size bound (same default as a real server).
    """

    def __init__(
        self,
        service=None,
        registry=None,
        loader=None,
        max_payload_elements: Optional[int] = None,
    ):
        from repro.api.handler import ApiHandler

        self._owns_service = service is None
        if service is None:
            from repro.serving.registry import CalibrationRegistry
            from repro.serving.service import NormalizationService

            if registry is None:
                registry = CalibrationRegistry(loader=loader)
            service = NormalizationService(registry=registry)
        self.service = service
        kwargs = {} if max_payload_elements is None else {
            "max_payload_elements": max_payload_elements
        }
        self.handler = ApiHandler(service, **kwargs)
        self._closed = False

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise TransportError("in-process transport is closed")
        return self.handler.handle(payload)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_service:
            self.service.close()


class _PoolConnection:
    """One pooled TCP connection: socket, in-flight map and the read role.

    No thread of its own reads the socket (leader/followers): a caller
    waiting for a reply takes the *read role* if it is free, reads frames
    and routes every reply by ``request_id`` until its own has arrived,
    then hands the role on.  Callers that find the role taken wait on the
    condition until their reply is routed to them or the role frees up.
    A lock-step caller therefore reads its own reply on its own thread.
    A sender that finds the socket buffer full reads while it waits too,
    so deep pipelines cannot wedge with both sides blocked on writes.
    Frames a reply hook wants to send (:meth:`queue_frame`) wait in an
    outbox and go out between reads, once the send lock is free: the
    reader running the hook may be that very sender.

    The socket stays blocking and its timeout is never changed after the
    handshake (every thread shares it): deadlines are kept by ``poll``
    before a read and around a non-blocking send.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float,
        max_frame_bytes: int,
        send_timeout: Optional[float] = None,
    ):
        #: ``host:port`` this connection dials; every failure this
        #: connection raises carries it (message and structured attribute)
        #: so fleet-level dispatch can attribute the failure to one replica.
        self.address = f"{host}:{port}"
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as error:
            raise TransportError(
                f"cannot connect to {self.address}: {error}", address=self.address
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        #: Bound on one blocked send: a peer that stops reading surfaces as
        #: an OSError -> connection failure instead of wedging every sender.
        self.send_timeout = send_timeout if send_timeout and send_timeout > 0 else None
        self._send_lock = threading.Lock()
        #: Guards ``_pending``, ``_reader`` and ``_outbox``; followers wait on it.
        self._cond = threading.Condition(threading.Lock())
        self._pending: Dict[int, PendingReply] = {}
        #: Thread ident of the read-role holder, if any.
        self._reader: Optional[int] = None
        #: Encoded frames queued by :meth:`queue_frame` (under ``_cond``).
        self._outbox: List[bytes] = []
        #: Used only by the read-role holder.
        self._decoder = FrameDecoder(max_frame_bytes)
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._dead = False
        #: Optional response hook (``envelope -> envelope``) run by the
        #: reader before a reply resolves -- and also for orphaned
        #: responses, so a translating transport (shared memory) can
        #: reclaim per-request resources even when the waiter abandoned.
        #: An :class:`ApiError` it raises fails the reply.
        self.translate = None
        #: Called once when the connection dies, for owner-side cleanup.
        self.on_close = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def close(self, error: Optional[BaseException] = None) -> None:
        """Drop the socket and fail everything still in flight."""
        self._dead = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self._fail_pending(
            error
            or TransportError(
                f"connection to {self.address} closed", address=self.address
            )
        )
        on_close, self.on_close = self.on_close, None
        if on_close is not None:
            try:
                on_close()
            except Exception:  # noqa: BLE001 -- cleanup must not mask the close
                pass

    def _lost(self, message: str) -> None:
        in_flight = self.in_flight
        suffix = f" with {in_flight} request(s) in flight" if in_flight else ""
        self.close(TransportError(message + suffix, address=self.address))

    def _fail_pending(self, error: BaseException) -> None:
        with self._cond:
            pending, self._pending = self._pending, {}
            for reply in pending.values():
                reply._error = error
                reply._done = True
            self._cond.notify_all()

    # -- sending -------------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> PendingReply:
        """Register the request and write its frame; returns the reply."""
        request_id = payload.get("request_id")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise TransportError(
                "pipelined requests need an integer request_id to demultiplex by"
            )
        reply = PendingReply(self, request_id)
        with self._cond:
            if self._dead:
                raise TransportError(
                    f"connection to {self.address} is closed", address=self.address
                )
            if request_id in self._pending:
                raise TransportError(
                    f"request_id {request_id} is already in flight on this connection"
                )
            self._pending[request_id] = reply
        try:
            # Looked up on the module, so a wrapper installed there (the
            # perfbench tracer) sees every encode.
            self.send(framing.encode_frame(payload, self.max_frame_bytes))
        except ApiError:
            # Protocol-level failure (frame too large): the connection is
            # still healthy; withdraw the registration and surface it.
            self.discard(request_id)
            raise
        except OSError as error:
            self.discard(request_id)
            message = f"send to {self.address} failed: {error}"
            self.close(TransportError(message, address=self.address))
            raise TransportError(message, address=self.address) from error
        return reply

    def send(self, frame: bytes) -> None:
        """Write one encoded frame; raises ``OSError`` on failure or when
        the socket stayed full for ``send_timeout`` without progress."""
        with self._send_lock:
            self._write(frame)
            self._write_outbox()
        self._flush_outbox()

    def queue_frame(self, frame: bytes) -> None:
        """Send a one-way frame between reads, once the send lock is free.

        For reply hooks: they run on the reader, which may be a sender
        waiting for room in the socket buffer, so they must not send
        themselves.  A failed write closes the connection.
        """
        with self._cond:
            self._outbox.append(frame)

    def _write(self, frame: bytes) -> None:
        """Write all of ``frame`` (send lock held)."""
        view = memoryview(frame)
        deadline = None
        while True:
            try:
                sent = self.sock.send(view, socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            if sent == len(view):
                return
            view = view[sent:]
            if self.send_timeout is not None and (sent or deadline is None):
                deadline = time.monotonic() + self.send_timeout
            self._await_writable(deadline)

    def _write_outbox(self) -> None:
        """Write every queued frame (send lock held)."""
        while self._outbox and not self._dead:
            with self._cond:
                frames, self._outbox = self._outbox, []
            try:
                for frame in frames:
                    self._write(frame)
            except OSError as error:
                # Whatever frame was cut short, the stream is unusable.
                self._lost(f"send to {self.address} failed: {error}")

    def _flush_outbox(self) -> None:
        """Write queued frames unless another thread holds the send lock;
        that thread flushes again after releasing it, so none is left."""
        while self._outbox and not self._dead and self._send_lock.acquire(blocking=False):
            try:
                self._write_outbox()
            finally:
                self._send_lock.release()

    def _await_writable(self, deadline: Optional[float]) -> None:
        """Wait for room in the socket buffer, reading replies meanwhile if
        nobody else is: the peer may be blocked writing to us."""
        # Already the reader when flushing the outbox between reads.
        held = self._reader == threading.get_ident()
        lead = held or self._take_read_role()
        try:
            poller = select.poll()
            try:
                poller.register(self.sock, select.POLLOUT | (select.POLLIN if lead else 0))
            except ValueError as error:  # the socket was closed under us
                raise OSError(f"connection to {self.address} is closed") from error
            # Without the read role, wake now and then to take it over.
            timeout = _poll_ms(deadline, cap=None if lead else 0.01)
            events = poller.poll(timeout)
            if not events and deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"send to {self.address} timed out")
            if lead and any(mask & ~select.POLLOUT for _fd, mask in events):
                self._read(None)
        finally:
            if lead and not held:
                self._release_read_role()

    def discard(self, request_id: int) -> None:
        """Withdraw a registration (its late response is dropped)."""
        with self._cond:
            self._pending.pop(request_id, None)

    # -- receiving -----------------------------------------------------------

    def _take_read_role(self) -> bool:
        with self._cond:
            if self._reader is not None:
                return False
            self._reader = threading.get_ident()
            return True

    def _release_read_role(self) -> None:
        with self._cond:
            self._reader = None
            self._cond.notify_all()  # a follower may take the role over
        self._flush_outbox()  # what the reply hooks queued while reading

    def wait_for(self, reply: PendingReply, timeout: Optional[float]) -> bool:
        """Block until ``reply`` completes (True) or ``timeout`` passes."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not reply._done and self._reader is not None:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            if reply._done:
                return True
            self._reader = threading.get_ident()
        try:
            while not reply._done and self._read(deadline):
                self._flush_outbox()
        finally:
            self._release_read_role()
        return reply._done

    def poll(self) -> bool:
        """Route whatever has already arrived, unless another caller holds
        the read role; returns whether the connection is still alive.

        Run before sending on an idle connection, it finds one the server
        closed since its last reply while the frame can still go elsewhere.
        """
        if not self._take_read_role():
            return not self._dead
        try:
            while not self._dead and self._readable.poll(0):
                self._read(None)
        finally:
            self._release_read_role()
        return not self._dead

    def _read(self, deadline: Optional[float]) -> bool:
        """One read (read-role holder only), routing every frame it
        completes.  False once nothing more can arrive before ``deadline``:
        it passed, or the connection died."""
        if self._dead:
            return False
        if deadline is not None and not self._readable.poll(_poll_ms(deadline)):
            return time.monotonic() < deadline
        try:
            count = self.sock.recv_into(self._decoder.get_buffer())
        except OSError as error:
            self._lost(f"connection to {self.address} lost: {error}")
            return False
        if not count:
            self._lost(f"server {self.address} closed the connection")
            return False
        try:
            frames = self._decoder.buffer_updated(count)
        except ApiError as error:
            # The stream is unsynchronizable; everything in flight on
            # this connection is unanswerable.
            self.close(error)
            return False
        for envelope in frames:
            self._route(envelope)
        return not self._dead

    def _route(self, envelope: Dict[str, Any]) -> None:
        request_id = envelope.get("request_id")
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            # A connection-fatal server error (unsynchronizable stream)
            # carries no request_id; it poisons everything in flight.
            from repro.api.envelopes import ErrorResponse, error_for_code

            try:
                decoded = ErrorResponse.from_wire(envelope)
                error: BaseException = error_for_code(decoded.code, decoded.message)
            except ApiError:
                error = TransportError(f"unroutable response envelope: {envelope!r}")
            self.close(error)
            return
        with self._cond:
            reply = self._pending.pop(request_id, None)
        value: Optional[Dict[str, Any]] = envelope
        failure: Optional[BaseException] = None
        if self.translate is not None:
            # Run the hook even for orphaned responses: it reclaims
            # per-request transport resources (shared-memory slabs).
            try:
                value = self.translate(envelope)
            except ApiError as error:
                value, failure = None, error
        if reply is None:
            return  # a response for an abandoned (timed-out) request
        with self._cond:
            reply._value = value
            reply._error = failure
            reply._done = True
            self._cond.notify_all()


def _poll_ms(deadline: Optional[float], cap: Optional[float] = None) -> int:
    """Milliseconds until ``deadline`` (at most ``cap`` seconds) for
    ``poll``; -1 waits without bound."""
    remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
    if cap is not None:
        remaining = cap if remaining is None else min(remaining, cap)
    return -1 if remaining is None else math.ceil(remaining * 1000)


class SocketTransport(Transport):
    """Pooled, pipelined, thread-safe client side of the wire protocol.

    Parameters
    ----------
    host / port:
        The server address.
    timeout:
        Per-request deadline in seconds (waiting on the demultiplexed
        response, not holding the socket).
    connect_timeout:
        Bound on establishing one TCP connection.
    max_frame_bytes:
        Refuse to send or accept frames larger than this.
    pool_size:
        Number of TCP connections concurrent callers spread over.  Even at
        1 the transport pipelines (many requests in flight per connection);
        more connections mainly help once a single socket's byte stream
        saturates.
    schema_versions:
        The ``(min, max)`` schema-version range this client speaks
        (defaults to the package range; tests inject shifted ranges).
    negotiate:
        Perform the hello handshake on the first connection.  Disabling it
        skips version negotiation and stamps envelopes with this build's
        newest version (used by raw-protocol tests).
    retry_policy:
        The :class:`~repro.api.retry.RetryPolicy` governing the blocking
        ``request`` path: backoff with full jitter, a retry budget, honor
        ``retry_after_ms`` on overload, and never resend a non-idempotent
        execute op after an ambiguous (post-send) failure.  Defaults to a
        two-attempt policy matching the transport's historical behaviour.
    token:
        Tenant bearer token presented in the hello handshake of every
        fresh connection.  The server stamps the connection with the
        matching :class:`~repro.tenancy.TenantContext`; an invalid token
        fails the handshake with a typed
        :class:`~repro.api.envelopes.AuthenticationError`.  ``None``
        (the default) connects anonymously.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        pool_size: int = 1,
        schema_versions: Tuple[int, int] = (MIN_SCHEMA_VERSION, SCHEMA_VERSION),
        negotiate: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        token: Optional[str] = None,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.token = token
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_frame_bytes = max_frame_bytes
        self.pool_size = pool_size
        self.min_schema_version, self.max_schema_version = schema_versions
        self._negotiate = negotiate
        #: Version agreed in the hello handshake (None until connected, or
        #: when negotiation is disabled).
        self.negotiated_version: Optional[int] = None
        self.server_schema_range: Optional[Tuple[int, int]] = None
        self._pool_lock = threading.Lock()
        self._pool_cond = threading.Condition(self._pool_lock)
        self._connections: List[_PoolConnection] = []
        #: Dials in progress; ``connections + dialing`` never exceeds
        #: ``pool_size`` (concurrent first-callers reserve a slot before
        #: releasing the lock to dial).
        self._dialing = 0
        self._reconnects = 0
        self._closed = False

    # -- connection management ----------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` of the server this transport targets."""
        return f"{self.host}:{self.port}"

    def connected(self) -> bool:
        """Whether at least one (believed-live) connection is held."""
        with self._pool_lock:
            return any(not conn.dead for conn in self._connections)

    def stats(self) -> Dict[str, Any]:
        """Pool gauges: live connections, in-flight requests, reconnects."""
        with self._pool_lock:
            live = [conn for conn in self._connections if not conn.dead]
            return {
                "pool_size": self.pool_size,
                "connections": len(live),
                "in_flight": sum(conn.in_flight for conn in live),
                "reconnects": self._reconnects,
                "negotiated_version": self.negotiated_version,
                "retry": self.retry_policy.snapshot(),
            }

    def kill_connections(self) -> int:
        """Force-close every pooled connection without closing the transport.

        A chaos hook (:class:`repro.chaos.transport.ChaosTransport`'s
        ``kill_after`` fault): in-flight requests fail with a
        ``TransportError`` and the next request redials transparently --
        exactly what a mid-flight server death looks like from here.
        Returns the number of connections killed.
        """
        with self._pool_lock:
            victims = [conn for conn in self._connections if not conn.dead]
        for conn in victims:
            conn.close(
                TransportError(
                    f"connection to {self.address} killed by chaos plan",
                    address=self.address,
                )
            )
        return len(victims)

    def _open_connection(self) -> _PoolConnection:
        """Dial one connection; the first performs the hello handshake."""
        conn = _PoolConnection(
            self.host,
            self.port,
            self.connect_timeout,
            self.max_frame_bytes,
            send_timeout=self.timeout,
        )
        try:
            # With a tenant token, *every* fresh connection performs the
            # hello: the server stamps its TenantContext per connection, so
            # pool growth and reconnects must re-present the credential
            # (re-deriving the already-negotiated version is harmless).
            if self._negotiate and (self.negotiated_version is None or self.token is not None):
                self._handshake(conn)
            # Subclass hook (e.g. the shared-memory transport's segment
            # attach): runs after version negotiation, before any request
            # is read off the connection, so it may exchange frames
            # synchronously on the bare socket.
            self._after_handshake(conn)
        except BaseException:
            conn.close()
            raise
        return conn

    def _after_handshake(self, conn: _PoolConnection) -> None:
        """Post-handshake hook on each fresh connection (default: no-op)."""

    def _handshake(self, conn: _PoolConnection) -> None:
        """Synchronous hello exchange on a fresh socket (before any request).

        The hello envelope itself is stamped with the *minimum* version
        this client speaks: a legacy strict-equality peer at that version
        can then at least parse the envelope, and its "unknown op" rejection
        becomes the downgrade signal (it speaks exactly that version).  A
        ``schema_version`` rejection, by contrast, is a genuine range
        mismatch and propagates.
        """
        hello = HelloRequest(
            min_schema_version=self.min_schema_version,
            max_schema_version=self.max_schema_version,
            token=self.token,
        )
        wire = hello.to_wire()
        wire["schema_version"] = self.min_schema_version
        conn.sock.settimeout(self.connect_timeout)
        try:
            send_frame(conn.sock, wire, self.max_frame_bytes)
            response = parse_hello_response(recv_frame(conn.sock, self.max_frame_bytes))
        except SchemaVersionError:
            raise  # disjoint ranges: the server named both in the message
        except BadSchemaError:
            # Pre-hello peer: it parsed our min-version envelope but does
            # not know the op, so it speaks exactly that version.
            self.negotiated_version = self.min_schema_version
            self.server_schema_range = (
                self.min_schema_version,
                self.min_schema_version,
            )
            return
        except OSError as error:
            raise TransportError(f"hello handshake failed: {error}") from error
        finally:
            conn.sock.settimeout(None)
        self.server_schema_range = (
            response.min_schema_version,
            response.max_schema_version,
        )
        # Re-derive locally: the client downgrades within its own range and
        # rejects a server whose advertisement does not overlap it.
        self.negotiated_version = negotiate_version(
            self.min_schema_version,
            self.max_schema_version,
            response.min_schema_version,
            response.max_schema_version,
        )

    def _get_connection(self) -> _PoolConnection:
        """The least-loaded live connection, dialing up to ``pool_size``.

        Nothing reads an idle connection, so one the server closed since
        its last reply is found here, by a non-blocking read before the
        send: it is dropped and another picked, and no frame is lost to it.
        """
        while True:
            conn = self._pick_connection()
            if conn.in_flight or conn.poll():
                return conn

    def _pick_connection(self) -> _PoolConnection:
        """One live-looking connection, dialing up to ``pool_size``.

        The dial decision reserves a slot under the pool lock before the
        (slow, unlocked) connect + handshake runs, so concurrent callers
        can never grow the pool past ``pool_size``; callers finding every
        slot mid-dial wait for one to land or fail instead of over-dialing.
        """
        with self._pool_cond:
            while True:
                if self._closed:
                    raise TransportError("socket transport is closed")
                before = len(self._connections)
                self._connections = [c for c in self._connections if not c.dead]
                self._reconnects += before - len(self._connections)
                if before > 0 and not self._connections and self._dialing == 0:
                    # The whole pool died (server restart): re-run the hello
                    # on the next dial -- the restarted server may speak a
                    # different version range than the one we negotiated.
                    self.negotiated_version = None
                    self.server_schema_range = None
                if len(self._connections) + self._dialing < self.pool_size:
                    self._dialing += 1
                    break
                if self._connections:
                    return min(self._connections, key=lambda c: c.in_flight)
                # every slot is mid-dial: wait for one of those dials to
                # land (or fail) rather than exceeding the pool bound
                self._pool_cond.wait(timeout=self.connect_timeout + 1.0)
        try:
            conn = self._open_connection()
        except BaseException as dial_error:
            with self._pool_cond:
                self._dialing -= 1
                self._pool_cond.notify_all()
                if isinstance(dial_error, TransportError) and not self._closed:
                    # A refused dial while *topping up* the pool must not
                    # fail the request: the pool may still hold live
                    # connections that can carry it (the dial was an
                    # optimization, not a requirement).  Only a request
                    # with nowhere else to go surfaces the dial failure.
                    live = [c for c in self._connections if not c.dead]
                    if live:
                        return min(live, key=lambda c: c.in_flight)
            raise
        with self._pool_cond:
            self._dialing -= 1
            if self._closed:
                conn.close()
                self._pool_cond.notify_all()
                raise TransportError("socket transport is closed")
            self._connections.append(conn)
            self._pool_cond.notify_all()
        return conn

    # -- request/response ---------------------------------------------------

    def _stamp_version(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if (
            self.negotiated_version is not None
            and payload.get("schema_version") != self.negotiated_version
            and payload.get("op") != "hello"
        ):
            payload = dict(payload)
            payload["schema_version"] = self.negotiated_version
        if (
            self.negotiated_version is not None
            and self.negotiated_version < BINARY_WIRE_VERSION
        ):
            # v2-or-older peer: silently fall back to base64 JSON frames.
            # Copy-on-write, so a fleet sending the same envelope to
            # replicas at different versions never cross-contaminates.
            payload = rewrite_slot_tensors(payload, binary_to_base64)
        return payload

    def _prepare(self, payload: Dict[str, Any], conn: _PoolConnection) -> Dict[str, Any]:
        """Per-send envelope rewrite: version stamp + binary downgrade.

        Subclasses may rewrite further against the target connection (the
        shared-memory transport stages tensor buffers into its slabs here).
        """
        return self._stamp_version(payload)

    def submit(self, payload: Dict[str, Any]) -> PendingReply:
        """Pipeline one request; the reply resolves when its frame arrives.

        A dead connection discovered at send time is replaced transparently
        (one redial attempt); a connection dying *after* the send fails the
        reply with :class:`TransportError` -- the pipelined path never
        resends on its own, the caller decides (the blocking ``request``
        wrapper retries exactly once).
        """
        last_error: Optional[BaseException] = None
        for _attempt in (1, 2):
            try:
                conn = self._get_connection()
                # Stamp after dialing: the first dial performs the hello
                # handshake that decides the version to stamp.
                return conn.submit(self._prepare(payload, conn))
            except TransportError as error:
                last_error = error
            except ApiError:
                raise  # protocol-level (frame too large): not retryable
        raise TransportError(
            f"request to {self.address} failed after reconnect: {last_error}",
            address=self.address,
        ) from last_error

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one envelope, retrying under the transport's retry policy.

        Failure classification drives the policy: a send-time failure is
        *clean* (the frame never hit the wire -- any op may resend), a
        post-send failure is *ambiguous* (the server may have executed the
        request -- non-idempotent execute ops surface it instead of
        resending), and an ``overloaded`` error envelope is clean with the
        server-supplied ``retry_after_ms`` as the backoff floor.
        """
        policy = self.retry_policy
        policy.record_attempt()
        op = payload.get("op") if isinstance(payload, dict) else None
        op = op if isinstance(op, str) else ""
        attempt = 0
        last_error: Optional[BaseException] = None
        while True:
            failure = CLEAN
            retry_after_ms: Optional[float] = None
            response: Optional[Dict[str, Any]] = None
            try:
                conn = self._get_connection()
                reply = conn.submit(self._prepare(payload, conn))
            except TransportError as error:
                # Dead connection at send time: the frame never left this
                # process, so resending cannot double-apply for any op.
                last_error = error
            except ApiError:
                raise  # protocol-level (frame too large): not retryable
            else:
                try:
                    response = reply.result(self.timeout)
                except TransportError as error:
                    # The frame was sent; the server may have executed it.
                    # A timed-out reply withdrew its own request_id (the
                    # abandon hook), so a resend can reuse the envelope.
                    last_error = error
                    failure = AMBIGUOUS
            if response is not None:
                shed = _overload_error(response)
                if shed is None:
                    return response
                # The server shed the request before doing any work:
                # retryable for every op, honoring its retry_after_ms.
                failure = OVERLOADED
                retry_after_ms = shed
                last_error = None
            delay = policy.next_delay(attempt, op, failure, retry_after_ms)
            if delay is None:
                if response is not None:
                    # Out of retries for an overloaded response: surface
                    # the typed error envelope to the caller as-is.
                    return response
                raise TransportError(
                    f"request to {self.address} failed after reconnect "
                    f"({attempt + 1} attempt(s)): {last_error}",
                    address=self.address,
                ) from last_error
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def wait_until_ready(self, timeout: float = 10.0, poll_interval: float = 0.1) -> None:
        """Block until a connection can be established (server startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._get_connection()
                return
            except TransportError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll_interval)

    def close(self) -> None:
        with self._pool_cond:
            self._closed = True
            connections, self._connections = self._connections, []
            self._pool_cond.notify_all()  # wake callers waiting on a dial
        for conn in connections:
            conn.close()


# ---------------------------------------------------------------------------
# transport registry
# ---------------------------------------------------------------------------

#: Transport name -> factory.  A factory takes the keyword arguments of its
#: transport class and returns a ready :class:`Transport`.
_TRANSPORT_FACTORIES: Dict[str, Any] = {}


def register_transport(name: str, factory) -> None:
    """Register a named transport factory (idempotent re-registration).

    The registry lets configuration-driven callers (CLIs, supervisors)
    select a transport by name -- ``in-process``, ``socket``, or ``fleet``
    (registered by :mod:`repro.fleet.transport` on import) -- without
    hard-coding constructor imports.
    """
    if not name:
        raise ValueError("transport name must be non-empty")
    _TRANSPORT_FACTORIES[name] = factory


def available_transports() -> Tuple[str, ...]:
    """Registered transport names, sorted."""
    # The fleet and shared-memory transports register themselves on import;
    # make the listing complete even when nothing imported them yet.
    try:
        import repro.fleet.transport  # noqa: F401
    except ImportError:
        pass
    try:
        import repro.api.shm  # noqa: F401
    except ImportError:
        pass
    return tuple(sorted(_TRANSPORT_FACTORIES))


def create_transport(name: str, **kwargs) -> Transport:
    """Instantiate a registered transport by name."""
    if name not in _TRANSPORT_FACTORIES and name == "fleet":
        import repro.fleet.transport  # noqa: F401  (self-registers)
    if name not in _TRANSPORT_FACTORIES and name == "shm":
        import repro.api.shm  # noqa: F401  (self-registers)
    try:
        factory = _TRANSPORT_FACTORIES[name]
    except KeyError:
        known = ", ".join(available_transports()) or "(none)"
        raise ValueError(f"unknown transport {name!r}; registered: {known}") from None
    return factory(**kwargs)


register_transport("in-process", InProcessTransport)
register_transport("socket", SocketTransport)
