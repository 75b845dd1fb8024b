"""`AsyncNormServer`: the normalization service behind a TCP socket.

The one wire server core (``haan-serve --listen``).  Each connection is
an ``asyncio.BufferedProtocol`` plus one reader coroutine on one event
loop, so holding 10k mostly-idle connections costs kilobytes apiece
rather than a thread stack.  A connection may have many requests in
flight (bounded by ``max_inflight``; at the bound reading pauses and the
excess becomes TCP backpressure) and responses go out in completion
order, demultiplexed by ``request_id`` on the client.

Everything runs on the event loop's one thread, ``haan-async-server``:

* **per read** -- ``recv_into`` a :class:`FrameDecoder` buffer: between
  frames a scratch region all connections share (reads run one at a
  time), and for a frame larger than one read, a buffer sized by its
  announced length, so the frame's bytes are copied once.
* **per frame** -- the pre-decode gate (tenant quota + overload
  admission on the peeked JSON preamble, before any tensor bytes are
  touched), chaos gate, hello authentication,
  per-connection in-flight accounting, the zero-copy tensor decode
  (:func:`attach_buffers`: memoryview slices, O(tensor count) not
  O(bytes)), :meth:`ApiHandler.begin` (validate + submit), the engine tick, ``finish`` (response envelope), response
  encoding and the write.  Every op that runs a kernel (``normalize``,
  ``normalize_bulk``, ``stream``, ``execute``, ``execute_bulk``) submits
  into the scheduler; the others (``spec``, ``hello``, ``ping``,
  ``telemetry``) submit nothing and do their work in ``finish``.
* **the engine tick** -- a loop callback that drains the service's
  continuous batching scheduler one batch at a time
  (:meth:`~repro.serving.batcher.ContinuousBatcher.drain_once`: EDF/aging
  pop, expired heads shed, kernel, futures resolved).  Submitting a
  serving op schedules it with ``call_soon``; at most one tick is pending,
  and it re-schedules itself while requests remain queued.  Because
  ``call_soon`` runs on the next loop iteration, frames that arrived
  meanwhile on **any connection** are read and submitted first, so they
  coalesce into one batch.  A kernel holds the loop for its duration.

A thread that calls the service directly (``service.normalize``) drains
on its own thread and may resolve wire requests in its batch; their
waiters are then woken through ``call_soon_threadsafe``.

Shutdown: :meth:`close` (callable from any thread, e.g. a SIGTERM
handler) optionally drains admitted work for
``drain_timeout`` seconds -- new frames are answered with a typed
``overloaded`` "draining" error -- then tears the loop down and joins its
thread.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from asyncio.streams import FlowControlMixin
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Dict, List, Optional, Set

from repro.api.admission import WORK_OPS, AdmissionController, PreDecodeGate
from repro.api.envelopes import (
    ApiError,
    AuthenticationError,
    BadSchemaError,
    ErrorResponse,
    OverloadedError,
)
from repro.api.framing import (
    MAX_FRAME_BYTES,
    SCRATCH_BYTES,
    FrameDecoder,
    attach_buffers,
    encode_frame,
    peek_payload,
)

# Not called here (admitted binary frames go through attach_buffers), but
# perfbench/tracing.py times the server codec by wrapping this module's
# decode_payload, so the name must exist on it.
from repro.api.framing import decode_payload  # noqa: F401
from repro.api.handler import ApiHandler
from repro.tenancy.quota import estimate_rows


async def _await_pendings(loop: asyncio.AbstractEventLoop, pendings) -> None:
    """Await scheduler futures resolved by the engine tick (or any thread).

    The tick resolves futures on the loop's own thread, so their
    done-callbacks count down directly.  A future resolved by a thread
    that drained the service itself hands its count-down to the loop with
    ``call_soon_threadsafe``; every count-down runs on the loop, so the
    counter needs no lock.  Results/errors are *not* extracted here --
    ``finish()`` does that through the shared taxonomy mapping.
    """
    waiter = loop.create_future()
    remaining = len(pendings)
    loop_thread = threading.get_ident()

    def count_down() -> None:
        nonlocal remaining
        remaining -= 1
        if not remaining and not waiter.done():
            waiter.set_result(None)

    def on_future_done(_future) -> None:
        if threading.get_ident() == loop_thread:
            count_down()
            return
        try:
            loop.call_soon_threadsafe(count_down)
        except RuntimeError:
            pass  # loop already closed mid-shutdown; nothing to wake

    for pending in pendings:
        pending.add_done_callback(on_future_done)
    await waiter


class _AsyncConnection(FlowControlMixin, asyncio.BufferedProtocol):
    """One client connection: the protocol that reads its frames, plus its
    pipelining state (send lock, in-flight bound, gauges).

    Write flow control (``pause_writing`` / ``resume_writing`` and the
    ``_drain_helper`` that :meth:`drain` awaits) is asyncio's own
    ``FlowControlMixin``, the one behind ``StreamWriter.drain``.

    The transport calls :meth:`get_buffer`, ``recv_into`` and
    :meth:`buffer_updated` back to back on the loop thread, so the
    decoder reads small frames into the server's one shared scratch and a
    larger frame straight into a buffer of its own size.  Complete frames
    queue for the connection's reader coroutine (:meth:`received`).
    """

    __slots__ = (
        "server",
        "transport",
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
        "tenant",
        "decoder",
        "error",
        "_received",
        "_eof",
        "_waiter",
    )

    def __init__(self, server: "AsyncNormServer"):
        super().__init__(server._loop)
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.conn_id = 0
        self.send_lock = asyncio.Lock()
        #: The reader coroutine awaits this once ``max_inflight`` requests
        #: are being handled, with reading paused: the kernel buffer fills
        #: and the client feels TCP backpressure instead of the server
        #: buffering without bound.
        self.inflight = asyncio.Semaphore(server.max_inflight)
        self.inflight_count = 0
        self.peak_inflight = 0
        self.frames = 0
        self.backpressure_waits = 0
        self.closed = False
        self.bytes_in = 0
        self.bytes_out = 0
        self.encoding = "json"
        self.tenant = None
        self.decoder = FrameDecoder(
            server.max_frame_bytes, raw=True, scratch=server._scratch
        )
        #: The decode error that poisoned the stream, if any.
        self.error: Optional[ApiError] = None
        self._received: List[object] = []
        self._eof = False
        self._waiter: Optional[asyncio.Future] = None

    # -- protocol callbacks (loop thread) ------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._accept(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.decoder.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        self.bytes_in += nbytes
        try:
            frames = self.decoder.buffer_updated(nbytes)
        except ApiError as error:
            # The stream cannot be resynchronized: read nothing more.
            self.error = error
            self.transport.pause_reading()
            self._wake()
            return
        if frames:
            if self._received:
                # The reader has not taken the last read's frames (it waits
                # on an in-flight slot or a slow send): stop reading until
                # it catches up.
                self.transport.pause_reading()
            self._received.extend(frames)
            self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # half-open: the reader closes once it saw the EOF

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)  # wakes the drain waiters
        self._eof = True
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- coroutine side ------------------------------------------------------

    async def received(self) -> List[object]:
        """The next frames read, in order; ``[]`` once the stream ended
        (EOF, or :attr:`error` set)."""
        while not self._received:
            if self._eof or self.error is not None:
                return []
            # Caught up: lift any pause (backlog or in-flight bound).
            self.transport.resume_reading()
            self._waiter = self.server._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        frames, self._received = self._received, []
        return frames

    async def drain(self) -> None:
        """Wait while the transport's write buffer is above its high mark;
        raises ``ConnectionResetError`` if the connection is already lost."""
        await self._drain_helper()


class AsyncNormServer:
    """Serve one :class:`NormalizationService` on an asyncio event loop.

    Every op runs on the loop's thread (see the module docstring); the
    service's scheduler is drained by the engine tick there.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        handler: Optional[ApiHandler] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_inflight: int = 32,
        admission: Optional[AdmissionController] = None,
        max_queue_depth: int = 256,
        ladder=None,
        fault_gate=None,
        tenancy=None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.service = service
        self.handler = handler if handler is not None else ApiHandler(service)
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max_inflight
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_queue_depth=max_queue_depth)
        )
        self.ladder = ladder
        self.fault_gate = fault_gate
        self.tenancy = tenancy
        self.gate = PreDecodeGate(
            self.admission, None if tenancy is None else tenancy.quota_check
        )
        if tenancy is not None and getattr(service, "cost_observer", False) is None:
            service.cost_observer = tenancy.cost_observer
        # Bind synchronously so the port is known at construction (the
        # fleet supervisor and tests read .port before start()).
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(256)
        self.host, self.port = self._sock.getsockname()[:2]
        self._lock = threading.Lock()
        #: The read buffer every connection's decoder shares between frames
        #: (reads run one at a time on the loop thread).
        self._scratch = memoryview(bytearray(SCRATCH_BYTES))
        self._connections: Dict[int, _AsyncConnection] = {}
        #: Strong refs to in-flight dispatch tasks (the loop only keeps
        #: weak ones; an untracked task can be garbage-collected mid-run).
        self._tasks: Set["asyncio.Task"] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aserver: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self._closing = False
        self._draining = False
        #: Whether an engine tick is scheduled on the loop (loop thread only).
        self._tick_pending = False
        self.requests_served = 0
        self.connections_total = 0
        self.frames_received = 0
        self.peak_inflight = 0
        self.backpressure_waits = 0
        self._retired_bytes_in = 0
        self._retired_bytes_out = 0
        self._retired_frames_json = 0
        self._retired_frames_binary = 0
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

    def start(self) -> "AsyncNormServer":
        """Start the event-loop thread and begin accepting (idempotent)."""
        with self._lock:
            if self._closing:
                raise RuntimeError("server is closed and cannot be restarted")
            if self._thread is not None:
                return self
            started = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(started,),
                name="haan-async-server",
                daemon=True,
            )
        self._thread.start()
        started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            raise RuntimeError(f"async server failed to start: {error}") from error
        return self

    def _run_loop(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._aserver = loop.run_until_complete(
                loop.create_server(lambda: _AsyncConnection(self), sock=self._sock)
            )
        except BaseException as error:  # noqa: BLE001 -- surface via start()
            self._startup_error = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            # close() stopped the loop; finish cancelling whatever remains
            # *on this thread* (the loop's owner), then free it.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def close(self, drain_timeout: float = 0.0) -> None:
        """Stop accepting, optionally drain, tear the loop down, join its thread.

        Callable from any thread (the ``haan-serve`` SIGTERM handler calls
        it from the main thread).  ``drain_timeout`` > 0 lets admitted
        frames finish (new work is answered with a typed ``overloaded``
        "draining" error) before the connections are cut.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._draining = drain_timeout > 0
            thread = self._thread
        if thread is None or self._loop is None:
            # Never started: only the listening socket exists.
            try:
                self._sock.close()
            except OSError:
                pass
            return
        loop = self._loop
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(drain_timeout), loop
            )
            future.result(timeout=drain_timeout + 10.0)
        except (RuntimeError, TimeoutError, FuturesTimeoutError):
            pass  # loop already gone (or drain overran): proceed to stop
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass
        thread.join(timeout=10.0)
        # Freeze the final wire gauges so the shutdown summary still reports
        # session totals without pinning this closed server.
        attach = getattr(self.service.telemetry, "attach_section", None)
        if attach is not None:
            final_snapshot = self.wire_snapshot()
            attach("wire", lambda: dict(final_snapshot))

    async def _shutdown(self, drain_timeout: float) -> None:
        if self._aserver is not None:
            # Stop accepting, then yield once so every connection already
            # accepted builds its transport first: asyncio fails to build one
            # after Server.close() and leaves the accepted socket open until
            # the garbage collector finds it.  Built ones reach _accept,
            # which closes them.
            self._loop.remove_reader(self._sock.fileno())
            await asyncio.sleep(0)
            self._aserver.close()
            await self._aserver.wait_closed()
        if drain_timeout > 0:
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    inflight = sum(
                        c.inflight_count for c in self._connections.values()
                    )
                if inflight == 0:
                    break
                await asyncio.sleep(0.01)
        with self._lock:
            connections = list(self._connections.values())
        for connection in connections:
            # Closing the transport ends the reader coroutine, whose finally
            # block retires the connection's gauges.
            try:
                connection.transport.close()
            except Exception:  # noqa: BLE001 -- transport may be half-dead
                pass

    def __enter__(self) -> "AsyncNormServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- telemetry -----------------------------------------------------------

    def wire_snapshot(self) -> Dict[str, object]:
        """Pipelining/wire gauges (the telemetry ``wire`` section)."""
        with self._lock:
            live = sorted(self._connections.values(), key=lambda c: c.conn_id)
            frames_json = self._retired_frames_json
            frames_binary = self._retired_frames_binary
            for c in live:
                frames_json += c.decoder.frames_json
                frames_binary += c.decoder.frames_binary
            return {
                "connections_total": self.connections_total,
                "connections_active": len(live),
                "frames_received": self.frames_received,
                "requests_served": self.requests_served,
                "peak_inflight": self.peak_inflight,
                "inflight_current": sum(c.inflight_count for c in live),
                "backpressure_waits": self.backpressure_waits,
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

    # -- engine tick ---------------------------------------------------------

    def _schedule_tick(self) -> None:
        """Schedule one engine tick on the loop, unless one is pending."""
        if not self._tick_pending:
            self._tick_pending = True
            self._loop.call_soon(self._tick)

    def _tick(self) -> None:
        """Drain one batch; come back next iteration while work is queued."""
        self._tick_pending = False
        batcher = self.service.batcher
        if batcher.drain_once() and batcher.pending_count:
            self._schedule_tick()

    # -- connection handling -------------------------------------------------

    def _accept(self, connection: _AsyncConnection) -> None:
        """Register a new connection and start its reader coroutine."""
        with self._lock:
            if self._closing and not self._draining:
                connection.transport.close()
                return
            self.connections_total += 1
            connection.conn_id = self.connections_total
            self._connections[connection.conn_id] = connection
        task = self._loop.create_task(self._serve_connection(connection))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(self, connection: _AsyncConnection) -> None:
        decoder = connection.decoder
        try:
            await self._read_loop(connection)
        finally:
            with self._lock:
                self._connections.pop(connection.conn_id, None)
                self._retired_bytes_in += connection.bytes_in
                self._retired_bytes_out += connection.bytes_out
                self._retired_frames_json += decoder.frames_json
                self._retired_frames_binary += decoder.frames_binary
            # Mark closed under the send lock first: a dispatch task
            # holding this connection re-checks ``closed`` under the same
            # lock before writing, so no response lands on a closed
            # transport.
            async with connection.send_lock:
                connection.closed = True
                try:
                    connection.transport.close()
                except Exception:  # noqa: BLE001
                    pass

    async def _read_loop(self, connection: _AsyncConnection) -> None:
        """The per-connection reader state machine."""
        decoder = connection.decoder
        loop = asyncio.get_running_loop()
        while True:
            frames = await connection.received()
            if not frames:
                if connection.error is not None:
                    await self._try_send(
                        connection,
                        ErrorResponse.from_exception(connection.error).to_wire(),
                    )
                return  # EOF, the client went away, or the server is closing
            if decoder.last_kind is not None:
                connection.encoding = decoder.last_kind
            for body in frames:
                try:
                    # JSON frames decode fully here; binary frames yield
                    # only their preamble -- all the control plane needs.
                    payload, is_binary = peek_payload(body)
                except ApiError as error:
                    await self._try_send(
                        connection, ErrorResponse.from_exception(error).to_wire()
                    )
                    return
                op = payload.get("op")
                if not isinstance(op, str):
                    # Checked before any set lookup: a list or dict ``op``
                    # is unhashable and would otherwise kill this coroutine.
                    await self._try_send(
                        connection,
                        self.handler.error_envelope(
                            payload, BadSchemaError("envelope 'op' must be a string")
                        ),
                    )
                    continue
                if self.fault_gate is not None:
                    action = self.fault_gate.on_server_frame(payload)
                    if action is not None:
                        if action.delay_s > 0:
                            await asyncio.sleep(action.delay_s)
                        if action.kind == "drop":
                            continue
                        if action.kind == "corrupt":
                            await self._send_raw(connection, action.data)
                            continue
                        if action.kind == "kill":
                            return
                if self.tenancy is not None and op == "hello":
                    token = payload.get("token")
                    try:
                        connection.tenant = self.tenancy.authenticate(
                            token if isinstance(token, str) else None
                        )
                    except ApiError as error:
                        await self._try_send(
                            connection, self.handler.error_envelope(payload, error)
                        )
                        continue
                is_work = op in WORK_OPS
                if (
                    is_work
                    and self.tenancy is not None
                    and self.tenancy.require_auth
                    and (connection.tenant is None or not connection.tenant.authenticated)
                ):
                    await self._try_send(
                        connection,
                        self.handler.error_envelope(
                            payload,
                            AuthenticationError(
                                "this server requires a tenant bearer token; "
                                "reconnect with token=... / --token"
                            ),
                        ),
                    )
                    continue
                # The shedding gate *before* any tensor decode -- O(1) on
                # the peeked preamble, so a shed request never reaches the
                # handler.
                try:
                    self.gate.check(
                        payload, tenant=connection.tenant, nbytes=len(body)
                    )
                except (OverloadedError, ApiError) as error:
                    await self._try_send(
                        connection, self.handler.error_envelope(payload, error)
                    )
                    continue
                # At max_inflight the socket stops being read until a slot
                # frees: backpressure, not buffering.
                if connection.inflight.locked():
                    with self._lock:
                        connection.backpressure_waits += 1
                        self.backpressure_waits += 1
                    connection.transport.pause_reading()
                await connection.inflight.acquire()
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
                        return
                    await self._try_send(
                        connection,
                        self.handler.error_envelope(
                            payload,
                            OverloadedError(
                                "server is draining and accepts no new work"
                            ),
                        ),
                    )
                    continue
                if is_binary:
                    # Admitted: only now attach the tensor buffers -- zero-copy
                    # views, so this stays on the loop.
                    try:
                        payload = attach_buffers(body, payload)
                    except ApiError as error:
                        connection.inflight.release()
                        with self._lock:
                            connection.inflight_count -= 1
                        if is_work:
                            self.admission.complete()
                        await self._try_send(
                            connection, ErrorResponse.from_exception(error).to_wire()
                        )
                        return
                task = loop.create_task(
                    self._handle_one(connection, payload, is_work, len(body))
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    async def _handle_one(
        self,
        connection: _AsyncConnection,
        payload: dict,
        is_work: bool = False,
        nbytes: int = 0,
    ) -> None:
        """Dispatch-task body: handle one envelope, send its response frame."""
        started = time.perf_counter()
        try:
            try:
                response = await self._respond(connection, payload, is_work)
            finally:
                if is_work:
                    # Retire the work frame -- free its admission slot, meter
                    # it -- before writing the response, so a client that read
                    # its answer finds its own charge in the ledger (modelled
                    # cycles/energy arrive through the service's cost observer).
                    elapsed = time.perf_counter() - started
                    self.admission.complete(elapsed)
                    if self.tenancy is not None:
                        rows = estimate_rows(payload)
                        self.tenancy.charge_request(
                            connection.tenant, rows=rows, nbytes=nbytes, wall_seconds=elapsed
                        )
            sent = await self._try_send(connection, response)
            if sent:
                with self._lock:
                    self.requests_served += 1
        finally:
            with self._lock:
                connection.inflight_count -= 1
            connection.inflight.release()

    async def _respond(
        self, connection: _AsyncConnection, payload: dict, is_work: bool
    ) -> dict:
        """The response envelope for one admitted frame."""
        degrade_level = 0
        if self.ladder is not None and is_work:
            degrade_level = self.ladder.observe(self.admission.pressure())
        tenant_name = connection.tenant.name if connection.tenant is not None else None
        # Validate and submit, let the engine tick run the batch, then build
        # the envelope: binary tensors are zero-copy views both ways.
        pendings, finish = self.handler.begin(payload, degrade_level, tenant_name)
        if pendings:
            self._schedule_tick()
            await _await_pendings(self._loop, pendings)
        response = finish()
        if self.ladder is not None and is_work:
            # Record the level actually applied.  Single responses stamp it
            # at the top level, stream responses inside ``result``, bulk
            # responses per item in ``results`` (all items of one bulk ran
            # at one level -- the first is representative).
            candidates = [response]
            result = response.get("result")
            if isinstance(result, dict):
                candidates.append(result)
            results = response.get("results")
            if isinstance(results, (list, tuple)) and results and isinstance(results[0], dict):
                candidates.append(results[0])
            for candidate in candidates:
                applied = candidate.get("degradation")
                if isinstance(applied, int) and not isinstance(applied, bool):
                    self.ladder.record_applied(applied)
                    break
        return response

    # -- sending -------------------------------------------------------------

    async def _send_raw(self, connection: _AsyncConnection, data: bytes) -> None:
        """Write raw bytes (a chaos-corrupted frame) under the send lock."""
        try:
            async with connection.send_lock:
                if connection.closed:
                    return
                connection.transport.write(data)
                connection.bytes_out += len(data)
                await connection.drain()
        except (OSError, ConnectionError):
            pass

    async def _try_send(self, connection: _AsyncConnection, payload: dict) -> bool:
        try:
            data = encode_frame(payload, self.max_frame_bytes)
        except ApiError as error:
            # The *response* outgrew the frame limit: replace it with an
            # error envelope so the client is never left hanging.
            fallback = ErrorResponse.from_exception(error).to_wire()
            fallback["request_id"] = payload.get("request_id")
            try:
                data = encode_frame(fallback, self.max_frame_bytes)
            except ApiError:
                return False
        try:
            async with connection.send_lock:
                if connection.closed:
                    return False
                connection.transport.write(data)
                connection.bytes_out += len(data)
                await connection.drain()
            return True
        except (OSError, ConnectionError):
            return False
