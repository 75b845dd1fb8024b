"""`NormServer`: the normalization service behind a TCP socket.

A thin, dependency-free network front with **pipelined** request handling:
one listener thread accepts connections; one reader thread per connection
decodes length-prefixed JSON frames incrementally
(:class:`~repro.api.framing.FrameDecoder`, so a burst of pipelined frames
costs one ``recv``) and hands each envelope to a shared worker pool.
Workers run the :class:`~repro.api.handler.ApiHandler` and write their
response frame back under the connection's send lock -- so a connection may
have many requests in flight and responses go out **in completion order**,
not arrival order (clients demultiplex by ``request_id``).  Concurrent
in-flight ``normalize`` requests coalesce in the service's micro-batcher,
which is where pipelining's throughput win comes from: a single connection
can fill a whole batch by itself.

Per-connection in-flight is bounded (``max_inflight``): the reader blocks
once the bound is reached, which turns into TCP backpressure on the client
instead of unbounded server-side buffering.

Shutdown is cooperative and clean: :meth:`close` stops the listener, shuts
down every live connection (unblocking their reads), drains the worker
pool, joins the threads and leaves the wrapped service untouched (the
owner closes it).
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.api.admission import WORK_OPS, AdmissionController, PreDecodeGate
from repro.api.envelopes import (
    SCHEMA_VERSION,
    ApiError,
    AuthenticationError,
    ErrorResponse,
    OverloadedError,
    TransportError,
)
from repro.api.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    attach_buffers,
    encode_frame,
    peek_payload,
)
from repro.api.handler import ApiHandler
from repro.tenancy.quota import estimate_rows

#: Transport-level control ops of the shared-memory tier: handled inline by
#: the reader thread, never parsed as API requests, never admitted as work.
SHM_CONTROL_OPS = ("shm_attach", "shm_release")


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (host may be empty for all interfaces)."""
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host or "0.0.0.0", int(port)


def shed_error_envelope(
    payload: dict, error: BaseException, min_version: int, max_version: int
) -> dict:
    """An error envelope for a frame rejected before reaching the handler.

    Mirrors the handler's request_id / schema_version echo so shed
    responses demultiplex and parse exactly like handled ones.  Shared by
    both server cores so their rejection envelopes are bit-identical.
    """
    request_id = payload.get("request_id") if isinstance(payload, dict) else None
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        request_id = None
    envelope = ErrorResponse.from_exception(error, request_id).to_wire()
    if isinstance(payload, dict):
        version = payload.get("schema_version")
        if (
            not isinstance(version, bool)
            and isinstance(version, int)
            and min_version <= version <= max_version
        ):
            envelope["schema_version"] = version
    return envelope


def _applied_degradation(response: dict) -> Optional[int]:
    """The ``degradation`` stamp of a response envelope, wherever it lives.

    Single responses carry it at the top level, stream responses inside
    ``result``, bulk responses per item in ``results`` (all items of one
    bulk ran at one level -- the first is representative).
    """
    candidates = [response]
    result = response.get("result")
    if isinstance(result, dict):
        candidates.append(result)
    results = response.get("results")
    if isinstance(results, (list, tuple)) and results and isinstance(results[0], dict):
        candidates.append(results[0])
    for candidate in candidates:
        value = candidate.get("degradation")
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def complete_work(server, tenant, payload: dict, nbytes: int, started: float) -> None:
    """Retire one admitted work frame on either core: free its admission
    slot and meter it against ``tenant``.

    Both cores call this *before* writing the response frame, so a client
    that has read its answer always finds its own charge in the ledger.
    Modelled cycles/energy arrive separately, through the service's cost
    observer, split exactly per batch.
    """
    elapsed = time.perf_counter() - started
    server.admission.complete(elapsed)
    if server.tenancy is not None:
        server.tenancy.charge_request(
            tenant, rows=estimate_rows(payload), nbytes=nbytes, wall_seconds=elapsed
        )


class _Connection:
    """Per-connection pipelining state: send lock + in-flight bound."""

    __slots__ = (
        "sock",
        "conn_id",
        "send_lock",
        "inflight",
        "inflight_count",
        "peak_inflight",
        "frames",
        "backpressure_waits",
        "closed",
        "bytes_in",
        "bytes_out",
        "encoding",
        "shm",
        "tenant",
    )

    def __init__(self, sock: socket.socket, max_inflight: int, conn_id: int):
        self.sock = sock
        #: Stable per-server ordinal (1-based connection counter), so the
        #: telemetry's per-connection rows stay identifiable across snapshots.
        self.conn_id = conn_id
        self.send_lock = threading.Lock()
        #: Reader blocks acquiring once ``max_inflight`` requests are being
        #: handled -- backpressure instead of unbounded buffering.
        self.inflight = threading.BoundedSemaphore(max_inflight)
        self.inflight_count = 0
        self.peak_inflight = 0
        self.frames = 0
        #: Times the reader found the in-flight bound exhausted and had to
        #: block -- each one is a stall that became TCP backpressure.
        self.backpressure_waits = 0
        #: Set (and the fd closed) under ``send_lock``: a worker checking it
        #: under the same lock can never write into a reused fd number.
        self.closed = False
        #: Codec gauges: raw bytes read off / written to this socket (the
        #: reader owns ``bytes_in``; ``bytes_out`` mutates under the send
        #: lock), and the encoding tag of the traffic this connection
        #: carries ("json" until a binary frame or shm attach is seen).
        self.bytes_in = 0
        self.bytes_out = 0
        self.encoding = "json"
        #: Per-connection shared-memory session (None until the client
        #: sends ``shm_attach``); owned by the reader thread's lifecycle.
        self.shm = None
        #: :class:`~repro.tenancy.TenantContext` stamped by the hello
        #: handshake's bearer token (None until a hello arrives; anonymous
        #: connections stay None and are metered as "anonymous").  Written
        #: only by the reader thread, read by pooled workers.
        self.tenant = None


class NormServer:
    """Serve one :class:`NormalizationService` over the wire protocol.

    Parameters
    ----------
    service:
        The serving runtime to front (usually threaded, so concurrent
        in-flight requests coalesce into shared micro-batches).
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        construction).
    handler:
        Override the request handler (tests inject size limits or schema
        ranges).
    max_frame_bytes:
        Frame-size bound applied to every connection.
    workers:
        Size of the shared request-handling pool (the server-side
        pipelining depth across all connections).
    max_inflight:
        Per-connection bound on requests being handled concurrently.
    admission:
        The :class:`~repro.api.admission.AdmissionController` shedding
        work *before* decode when the queue is full or a request's
        ``deadline_ms`` cannot plausibly be met.  Defaults to a
        controller with ``max_queue_depth``; pass an instance to tune it.
    max_queue_depth:
        Queue bound of the default admission controller (ignored when
        ``admission`` is passed).
    ladder:
        Opt-in :class:`~repro.serving.degrade.DegradationLadder`: under
        sustained queue pressure, serving ops step down the paper's
        fidelity knobs instead of shedding, and every response is stamped
        with the level applied.  ``None`` (the default) disables
        degradation entirely.
    fault_gate:
        Opt-in server-side chaos hook (:class:`~repro.chaos.gate.FaultGate`):
        consulted once per received frame, it may delay, drop, corrupt or
        kill deterministically from a seeded
        :class:`~repro.chaos.plan.FaultPlan`.  ``None`` in production.
    tenancy:
        Opt-in :class:`~repro.tenancy.TenancyController`
        (``haan-serve --tenants``): hello tokens authenticate connections,
        per-tenant token buckets shed over-quota work in the reader thread
        *before* frame decode (sharing one
        :class:`~repro.api.admission.PreDecodeGate` with overload
        shedding), and every served request is metered into the tenant's
        cost ledger.  ``None`` (the default) serves anonymously and
        unmetered, exactly as before.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        handler: Optional[ApiHandler] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        workers: int = 8,
        max_inflight: int = 32,
        admission: Optional[AdmissionController] = None,
        max_queue_depth: int = 256,
        ladder=None,
        fault_gate=None,
        enable_shm: bool = True,
        tenancy=None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.service = service
        self.handler = handler if handler is not None else ApiHandler(service)
        self.max_frame_bytes = max_frame_bytes
        self.workers = workers
        self.max_inflight = max_inflight
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_queue_depth=max_queue_depth)
        )
        self.ladder = ladder
        self.fault_gate = fault_gate
        self.tenancy = tenancy
        #: The single pre-decode shedding gate every reader thread runs
        #: each peeked envelope through: tenant quota first, then overload.
        self.gate = PreDecodeGate(
            self.admission, None if tenancy is None else tenancy.quota_check
        )
        if tenancy is not None and getattr(service, "cost_observer", False) is None:
            # Wire the exact per-tenant cost split into the service's
            # batch executor (only when nothing else claimed the hook).
            service.cost_observer = tenancy.cost_observer
        #: Accept ``shm_attach`` requests (the same-host shared-memory
        #: transport).  When off, attach attempts are answered with a typed
        #: transport error and the client falls back to binary TCP.
        self.enable_shm = enable_shm
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: Dict[socket.socket, _Connection] = {}
        self._threads: list = []
        self._accept_thread: Optional[threading.Thread] = None
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="haan-norm-worker"
        )
        self._closing = False
        self._draining = False
        self.requests_served = 0
        #: Wire/pipelining gauges (guarded by ``_lock``).
        self.connections_total = 0
        self.frames_received = 0
        self.peak_inflight = 0
        self.backpressure_waits = 0
        #: Codec totals folded in from connections that already closed;
        #: live connections contribute their own gauges at snapshot time.
        self._retired_bytes_in = 0
        self._retired_bytes_out = 0
        self._retired_frames_json = 0
        self._retired_frames_binary = 0
        #: Per-kind frame counters of live connections are read from their
        #: decoders at snapshot time via this registry (conn -> decoder).
        self._decoders: Dict[_Connection, FrameDecoder] = {}
        # Surface the wire gauges in the service's telemetry snapshot (and
        # therefore in the `telemetry` op and the haan-serve summary).
        attach = getattr(service.telemetry, "attach_section", None)
        if attach is not None:
            attach("wire", self.wire_snapshot)
            attach("admission", self.admission.snapshot)
            if self.ladder is not None:
                attach("degradation", self.ladder.snapshot)
            if self.tenancy is not None:
                attach("tenancy", self.tenancy.snapshot)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` the server is listening on."""
        return f"{self.host}:{self.port}"

    def start(self) -> "NormServer":
        """Start accepting connections in the background (idempotent)."""
        with self._lock:
            if self._closing:
                raise RuntimeError("server is closed and cannot be restarted")
            if self._accept_thread is not None:
                return self
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="haan-norm-server", daemon=True
            )
        self._accept_thread.start()
        return self

    def close(self, drain_timeout: float = 0.0) -> None:
        """Stop the listener, drop every connection, join all threads.

        ``drain_timeout`` > 0 performs a graceful drain first: the
        listener stops and new frames are refused, but frames already
        admitted keep executing and their response frames are flushed --
        for up to ``drain_timeout`` seconds, after which the shutdown
        proceeds unconditionally (the hard timeout).  The default (0)
        preserves the historical immediate shutdown; the ``haan-serve``
        SIGTERM path passes its ``--drain-timeout``.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._draining = drain_timeout > 0
        # shutdown() before close(): closing the fd alone does not wake a
        # thread blocked in accept() (the kernel socket would linger in
        # LISTEN and block a rebind of the port); shutdown does.  Some
        # platforms refuse to shut down a listening socket (ENOTCONN) --
        # wake the accept loop with a throwaway connection instead.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            try:
                with socket.create_connection((self.host, self.port), timeout=1.0):
                    pass
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        if drain_timeout > 0:
            # Graceful drain: wait for admitted in-flight frames to finish
            # (their responses flush through _try_send) before cutting the
            # sockets.  Readers refuse *new* frames once _closing is set,
            # so the in-flight count can only fall.
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    inflight = sum(
                        c.inflight_count for c in self._connections.values()
                    )
                if inflight == 0:
                    break
                time.sleep(0.01)
        with self._lock:
            connections = list(self._connections)
        # shutdown() only -- never close() from here: each reader thread
        # owns its fd's close (under the connection send lock), so a pooled
        # worker mid-send cannot race against fd reuse.  shutdown unblocks
        # the reader's recv, which then performs the locked close.
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)
        # After the readers exited no new work lands in the pool; drain what
        # is still executing so worker sends never race interpreter teardown.
        self._pool.shutdown(wait=True)
        # Swap the live wire-gauge provider for a frozen final snapshot:
        # the shutdown summary still reports the session's totals, but the
        # (possibly long-lived) service no longer pins this closed server.
        # A restarted server re-attaches its own live section.
        attach = getattr(self.service.telemetry, "attach_section", None)
        if attach is not None:
            final_snapshot = self.wire_snapshot()
            attach("wire", lambda: dict(final_snapshot))

    def __enter__(self) -> "NormServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- telemetry -----------------------------------------------------------

    def wire_snapshot(self) -> Dict[str, object]:
        """Pipelining/wire gauges for the telemetry snapshot.

        A **stable** section: the scalar keys of PR 5 keep their names, and
        the per-connection in-flight/backpressure gauges ride along under
        ``per_connection`` (one row per live connection, in accept order)
        plus the ``inflight_current`` / ``backpressure_waits`` aggregates --
        consumed by the ``haan-serve`` summary and the per-replica fleet
        table alike.
        """
        with self._lock:
            live = sorted(self._connections.values(), key=lambda c: c.conn_id)
            frames_json = self._retired_frames_json
            frames_binary = self._retired_frames_binary
            for c in live:
                decoder = self._decoders.get(c)
                if decoder is not None:
                    frames_json += decoder.frames_json
                    frames_binary += decoder.frames_binary
            return {
                "connections_total": self.connections_total,
                "connections_active": len(live),
                "frames_received": self.frames_received,
                "requests_served": self.requests_served,
                "peak_inflight": self.peak_inflight,
                "inflight_current": sum(c.inflight_count for c in live),
                "backpressure_waits": self.backpressure_waits,
                "workers": self.workers,
                "max_inflight": self.max_inflight,
                "bytes_received": self._retired_bytes_in + sum(c.bytes_in for c in live),
                "bytes_sent": self._retired_bytes_out + sum(c.bytes_out for c in live),
                "frames_json": frames_json,
                "frames_binary": frames_binary,
                "per_connection": [
                    {
                        "id": c.conn_id,
                        "inflight": c.inflight_count,
                        "peak_inflight": c.peak_inflight,
                        "frames": c.frames,
                        "backpressure_waits": c.backpressure_waits,
                        "bytes_in": c.bytes_in,
                        "bytes_out": c.bytes_out,
                        "encoding": c.encoding,
                    }
                    for c in live
                ],
            }

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _address = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Accepted sockets hold the port after close (FIN_WAIT) while a
            # client keeps its end open; mark them reusable so a restarted
            # server can rebind immediately (the reconnect contract).
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self.connections_total += 1
                connection = _Connection(conn, self.max_inflight, self.connections_total)
                self._connections[conn] = connection
                # Prune finished connection threads so a long-lived server
                # handling many short-lived clients does not accumulate one
                # dead Thread object per past connection.
                self._threads = [t for t in self._threads if t.is_alive()]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name="haan-norm-server-conn",
                    daemon=True,
                )
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, connection: _Connection) -> None:
        sock = connection.sock
        # Raw framing: the decoder splits the byte stream into frame bodies
        # but defers payload decoding, so the shedding gate below can peek
        # a binary frame's JSON preamble without ever materializing its
        # tensor buffers -- a rejected request costs O(preamble), not
        # O(tensor bytes).
        decoder = FrameDecoder(self.max_frame_bytes, raw=True)
        with self._lock:
            self._decoders[connection] = decoder
        try:
            while True:
                try:
                    data = sock.recv(65536)
                except OSError:
                    return  # client went away (or server is closing)
                if not data:
                    return  # clean EOF
                connection.bytes_in += len(data)
                try:
                    frames = decoder.feed(data)
                except ApiError as error:
                    # Oversized or malformed frame: the stream cannot be
                    # resynchronized, so report once and drop the link.
                    self._try_send(connection, ErrorResponse.from_exception(error).to_wire())
                    return
                if frames and connection.shm is None and decoder.last_kind is not None:
                    # Tag the connection with the traffic it carries; an
                    # shm attach overrides this for good ("shm" sockets
                    # still exchange JSON control frames).
                    connection.encoding = decoder.last_kind
                for body in frames:
                    try:
                        # JSON frames decode fully here (the peek *is* the
                        # payload); binary frames yield only their preamble
                        # -- op, request_id, tensor shapes -- which is all
                        # the control plane below needs.
                        payload, is_binary = peek_payload(body)
                    except ApiError as error:
                        self._try_send(
                            connection, ErrorResponse.from_exception(error).to_wire()
                        )
                        return
                    if payload.get("op") in SHM_CONTROL_OPS:
                        # Transport-tier control: handled by the reader
                        # inline (attach/release touch only per-connection
                        # shm state), never admitted, never dispatched.
                        self._handle_shm_control(connection, payload)
                        continue
                    if self.fault_gate is not None:
                        # Server-side chaos: the gate decides per frame
                        # from its seeded plan.  Delay falls through to
                        # normal handling; drop/corrupt/kill short-circuit.
                        action = self.fault_gate.on_server_frame(payload)
                        if action is not None:
                            if action.delay_s > 0:
                                time.sleep(action.delay_s)
                            if action.kind == "drop":
                                continue
                            if action.kind == "corrupt":
                                self._send_raw(connection, action.data)
                                continue
                            if action.kind == "kill":
                                return
                    if self.tenancy is not None and payload.get("op") == "hello":
                        # Authenticate the connection from the hello's
                        # bearer token (reader-side: the handler never sees
                        # the connection).  An invalid token -- or a
                        # missing one under --require-auth -- answers the
                        # hello itself with a typed error, which fails the
                        # client's handshake.
                        token = payload.get("token")
                        try:
                            connection.tenant = self.tenancy.authenticate(
                                token if isinstance(token, str) else None
                            )
                        except ApiError as error:
                            self._try_send(
                                connection, self._error_envelope(payload, error)
                            )
                            continue
                    is_work = payload.get("op") in WORK_OPS
                    if (
                        is_work
                        and self.tenancy is not None
                        and self.tenancy.require_auth
                        and (connection.tenant is None or not connection.tenant.authenticated)
                    ):
                        # --require-auth: work never runs on a connection
                        # that has not presented a valid token (whether it
                        # skipped the hello or its hello was rejected).
                        self._try_send(
                            connection,
                            self._error_envelope(
                                payload,
                                AuthenticationError(
                                    "this server requires a tenant bearer token; "
                                    "reconnect with token=... / --token"
                                ),
                            ),
                        )
                        continue
                    # The shedding gate *before* any tensor decode: tenant
                    # quota first (rows classified from the peeked tensor
                    # shapes, bytes from the frame length), then overload
                    # admission -- both O(1) on the already-parsed peek.
                    # Shed requests answer in microseconds with a typed
                    # quota_exceeded / overloaded envelope.
                    try:
                        self.gate.check(
                            payload, tenant=connection.tenant, nbytes=len(body)
                        )
                    except (OverloadedError, ApiError) as error:
                        self._try_send(
                            connection, self._error_envelope(payload, error)
                        )
                        continue
                    # Blocks at max_inflight: backpressure, not buffering.
                    # The failed fast-path acquire is counted -- each miss
                    # is a reader stall the client felt as TCP backpressure.
                    if not connection.inflight.acquire(blocking=False):
                        with self._lock:
                            connection.backpressure_waits += 1
                            self.backpressure_waits += 1
                        connection.inflight.acquire()
                    with self._lock:
                        self.frames_received += 1
                        connection.frames += 1
                        connection.inflight_count += 1
                        if connection.inflight_count > connection.peak_inflight:
                            connection.peak_inflight = connection.inflight_count
                        if connection.inflight_count > self.peak_inflight:
                            self.peak_inflight = connection.inflight_count
                        closing = self._closing
                        draining = self._draining
                    if closing:
                        connection.inflight.release()
                        with self._lock:
                            connection.inflight_count -= 1
                        if is_work:
                            self.admission.complete()
                        if not draining:
                            # Immediate shutdown: stop reading; the dropped
                            # connection surfaces client-side as a
                            # TransportError, never a typed response racing
                            # the teardown.
                            return
                        # Draining: finish admitted frames, refuse new ones
                        # with a typed error instead of silently closing.
                        self._try_send(
                            connection,
                            self._error_envelope(
                                payload,
                                OverloadedError(
                                    "server is draining and accepts no new work"
                                ),
                            ),
                        )
                        continue
                    if is_binary:
                        # Admitted: only now pay for the tensor buffers
                        # (the peeked preamble is reused, not re-parsed).
                        try:
                            payload = attach_buffers(body, payload)
                        except ApiError as error:
                            connection.inflight.release()
                            with self._lock:
                                connection.inflight_count -= 1
                            if is_work:
                                self.admission.complete()
                            self._try_send(
                                connection, ErrorResponse.from_exception(error).to_wire()
                            )
                            return
                    try:
                        self._pool.submit(
                            self._handle_one, connection, payload, is_work, len(body)
                        )
                    except RuntimeError:  # pool shut down under us
                        connection.inflight.release()
                        with self._lock:
                            connection.inflight_count -= 1
                        if is_work:
                            self.admission.complete()
                        return
        finally:
            with self._lock:
                self._connections.pop(sock, None)
                self._decoders.pop(connection, None)
                # Fold the codec gauges into the retired totals so the
                # session-wide counters survive the connection.
                self._retired_bytes_in += connection.bytes_in
                self._retired_bytes_out += connection.bytes_out
                self._retired_frames_json += decoder.frames_json
                self._retired_frames_binary += decoder.frames_binary
            # Close under the send lock with the flag flipped first: pooled
            # workers still holding this connection re-check ``closed``
            # under the same lock before writing, so a worker can never
            # send into this fd number after the OS has reused it for a
            # new connection (silent cross-connection corruption).
            with connection.send_lock:
                connection.closed = True
                try:
                    sock.close()
                except OSError:
                    pass
            if connection.shm is not None:
                connection.shm.close()
                connection.shm = None

    def _handle_one(
        self,
        connection: _Connection,
        payload: dict,
        is_work: bool = False,
        nbytes: int = 0,
    ) -> None:
        """Worker body: handle one envelope, send its response frame."""
        started = time.perf_counter()
        try:
            try:
                response = self._respond(connection, payload, is_work)
            finally:
                if is_work:
                    complete_work(self, connection.tenant, payload, nbytes, started)
            sent = self._try_send(connection, response)
            if sent:
                with self._lock:
                    self.requests_served += 1
        finally:
            with self._lock:
                connection.inflight_count -= 1
            connection.inflight.release()

    def _respond(self, connection: _Connection, payload: dict, is_work: bool) -> dict:
        """The response envelope for one admitted frame."""
        if connection.shm is not None:
            try:
                # Swap shm slab descriptors for zero-copy views over the
                # shared segment before the handler sees the envelope.
                payload = connection.shm.resolve_inbound(payload)
            except ApiError as error:
                return self._error_envelope(payload, error)
        degrade_level = 0
        if self.ladder is not None and is_work:
            # Feed the ladder the queue pressure at execution time; it
            # answers the fidelity level this request runs at.
            degrade_level = self.ladder.observe(self.admission.pressure())
        tenant_name = connection.tenant.name if connection.tenant is not None else None
        response = self.handler.handle(payload, degrade_level, tenant_name)
        if self.ladder is not None and is_work:
            applied = _applied_degradation(response)
            if applied is not None:
                self.ladder.record_applied(applied)
        return response

    def _error_envelope(self, payload: dict, error: BaseException) -> dict:
        """An error envelope for a frame rejected before reaching the handler."""
        return shed_error_envelope(
            payload,
            error,
            self.handler.min_schema_version,
            self.handler.max_schema_version,
        )

    def _send_raw(self, connection: _Connection, data: bytes) -> None:
        """Write raw bytes (a chaos-corrupted frame) under the send lock."""
        try:
            with connection.send_lock:
                if connection.closed:
                    return
                connection.sock.sendall(data)
                connection.bytes_out += len(data)
        except OSError:
            pass

    def _try_send(self, connection: _Connection, payload: dict) -> bool:
        try:
            if connection.shm is not None:
                # Move response tensors into the shared ring; on a full
                # ring this degrades to inline binary in the frame itself.
                payload = connection.shm.stage_outbound(payload)
            data = encode_frame(payload, self.max_frame_bytes)
            with connection.send_lock:
                if connection.closed:
                    return False
                connection.sock.sendall(data)
                connection.bytes_out += len(data)
            return True
        except ApiError as error:
            # The *response* outgrew the frame limit (huge tensor): replace
            # it with an error envelope so the client is never left hanging.
            fallback = ErrorResponse.from_exception(error).to_wire()
            fallback["request_id"] = payload.get("request_id")
            try:
                data = encode_frame(fallback, self.max_frame_bytes)
                with connection.send_lock:
                    if connection.closed:
                        return False
                    connection.sock.sendall(data)
                    connection.bytes_out += len(data)
            except (ApiError, OSError):
                return False
            return True
        except OSError:
            return False

    def _handle_shm_control(self, connection: _Connection, payload: dict) -> None:
        """Handle an shm_attach / shm_release control frame inline.

        These never enter admission control: they are transport plumbing,
        not work, and a release must succeed even when the server sheds.
        """
        op = payload.get("op")
        if op == "shm_attach":
            request_id = payload.get("request_id")
            version = payload.get("schema_version")
            if isinstance(version, bool) or not isinstance(version, int):
                version = SCHEMA_VERSION
            ack = {
                "schema_version": version,
                "op": "shm_attach",
                "request_id": request_id,
                "ok": True,
                "accepted": False,
            }
            if self.enable_shm and connection.shm is None:
                try:
                    from repro.api.shm import ServerShmSession

                    connection.shm = ServerShmSession.attach(payload)
                    connection.encoding = "shm"
                    ack["accepted"] = True
                except (ApiError, OSError, ValueError) as error:
                    # Refuse but keep the socket: the client falls back to
                    # inline binary frames over TCP.
                    ack["accepted"] = False
                    ack["reason"] = str(error)
            self._try_send(connection, ack)
        elif op == "shm_release":
            if connection.shm is not None:
                connection.shm.release(payload.get("slabs"))
            # One-way: no response, releases are fire-and-forget.
