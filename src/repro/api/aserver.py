"""`AsyncNormServer`: the normalization service behind a TCP socket.

The one wire server core (``haan-serve --listen``).  Each connection is
one ``asyncio.BufferedProtocol`` on one event loop -- no coroutine, no
task -- so holding 10k mostly-idle connections costs kilobytes apiece
rather than a thread stack.  A connection may have many requests in
flight (bounded by ``max_inflight``) and responses go out in completion
order, demultiplexed by ``request_id`` on the client.

Everything runs in loop callbacks on one thread, ``haan-async-server``.
One request takes this path:

1. **read callback** -- the transport ``recv_into`` a
   :class:`FrameDecoder` buffer (between frames a scratch region all
   connections share, since reads run one at a time; for a frame larger
   than one read, a buffer sized by its announced length, so the frame's
   bytes are copied once) and calls
   :meth:`_AsyncConnection.buffer_updated`, which runs every complete
   frame through the control path at once:
2. **gate** -- peek the JSON preamble, check the op, consult the chaos
   fault gate, authenticate a hello, enforce ``require_auth``, run the
   pre-decode gate (tenant quota + overload admission on the preamble,
   before any tensor bytes are touched), count the request in flight,
   refuse it while closing or draining, and attach the tensor buffers
   (:func:`attach_buffers`: zero-copy memoryview slices, O(tensor count)
   not O(bytes));
3. **begin** -- :meth:`ApiHandler.begin` validates the envelope and
   submits its kernel work into the service's scheduler.  The ops that
   submit nothing (``spec``, ``hello``, ``ping``, ``telemetry``, and any
   request that failed validation) finish and write their response here;
4. **tick** -- submitting schedules the engine tick with ``call_soon``: one
   loop callback that drains the continuous batching scheduler one batch
   at a time (:meth:`~repro.serving.batcher.ContinuousBatcher.drain_once`:
   EDF/aging pop, expired heads shed, kernel, futures resolved).  At most
   one tick is pending, and it re-schedules itself while requests remain
   queued.  Because ``call_soon`` runs on the next loop iteration, frames
   that arrived meanwhile on **any connection** are read and submitted
   first, so they coalesce into one batch.  A kernel holds the loop for
   its duration;
5. **count-down** -- a request registers one count-down on its scheduler
   futures.  When the tick resolves the last of them, the count-down runs
   ``finish`` (the response envelope), the degradation-ladder record,
   ``admission.complete``, the tenancy charge and :func:`encode_frame`;
6. **write** -- ``transport.write`` of the response frame.

A thread that calls the service directly (``service.normalize``) drains
on its own thread and may resolve wire requests in its batch; their
count-downs are handed to the loop through ``call_soon_threadsafe``.

Backpressure: at ``max_inflight`` requests in flight on a connection, or
while its transport's write buffer is above the high-water mark
(``pause_writing``), the connection stops reading and keeps the frames it
has already read in a backlog.  A freed slot or ``resume_writing``
resumes the backlog in a fresh loop callback, never from inside a tick
that is still draining.  A chaos ``delay`` holds the connection the same
way and resumes it with ``call_later``, so a connection's frames are
always handled in order.

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
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeoutError
from functools import partial
from typing import Dict, Optional

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


class _CountDown:
    """Run ``on_done()`` on the loop thread once every future resolved.

    The engine tick resolves futures on the loop's own thread, so their
    done-callbacks count down directly.  A future resolved by a thread
    that drained the service itself hands its count-down to the loop with
    ``call_soon_threadsafe``; every count-down runs on the loop, so the
    counter needs no lock.  Results and errors are *not* extracted here --
    ``finish()`` does that through the shared taxonomy mapping.
    """

    __slots__ = ("loop", "loop_thread", "remaining", "on_done")

    def __init__(self, loop, loop_thread: int, pendings, on_done) -> None:
        self.loop = loop
        self.loop_thread = loop_thread
        self.remaining = len(pendings)
        self.on_done = on_done
        for pending in pendings:
            pending.add_done_callback(self.resolved)

    def resolved(self, _future) -> None:
        if threading.get_ident() == self.loop_thread:
            self.count_down()
            return
        try:
            self.loop.call_soon_threadsafe(self.count_down)
        except RuntimeError:
            pass  # loop already closed mid-shutdown; nothing to wake

    def count_down(self) -> None:
        self.remaining -= 1
        if not self.remaining:
            self.on_done()


class _AsyncConnection(asyncio.BufferedProtocol):
    """One client connection: the protocol that reads its frames, plus its
    pipelining state (backlog, in-flight count, gauges).

    The transport calls :meth:`get_buffer`, ``recv_into`` and
    :meth:`buffer_updated` back to back on the loop thread, so the
    decoder reads small frames into the server's one shared scratch and a
    larger frame straight into a buffer of its own size.  Complete frames
    join the backlog, which the server's control path works off at once
    unless the connection must wait (see the module docstring).
    """

    __slots__ = (
        "server",
        "transport",
        "conn_id",
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
        "backlog",
        "delayed",
        "write_paused",
        "stalled",
        "resume_pending",
        "eof",
    )

    def __init__(self, server: "AsyncNormServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.conn_id = 0
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
        #: Frames read but not yet through the control path, in order.
        self.backlog = deque()
        #: The frame a chaos ``delay`` holds: ``(body, payload, is_binary,
        #: action)``, resumed past the fault gate when the delay ends.
        self.delayed = None
        self.write_paused = False
        #: Whether the backlog waits for an in-flight slot.
        self.stalled = False
        self.resume_pending = False
        self.eof = False

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
            # The stream cannot be resynchronized: read nothing more, and
            # answer the error once the backlog is through.
            self.error = error
        else:
            if not frames:
                return
            self.encoding = self.decoder.last_kind
            self.backlog.extend(frames)
        self.server._pump(self)

    def eof_received(self) -> bool:
        self.eof = True
        self.server._pump(self)
        return True  # half-open: closed once the backlog is through

    def connection_lost(self, exc) -> None:
        self.server._retire(self)

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.server._resume(self)


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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: ``threading.get_ident()`` of the loop thread.
        self._loop_thread = 0
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
        self._loop_thread = threading.get_ident()
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
            try:
                self._close(connection)
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

    # -- connection lifetime -------------------------------------------------

    def _accept(self, connection: _AsyncConnection) -> None:
        """Register a new connection."""
        with self._lock:
            if self._closing and not self._draining:
                connection.closed = True
                connection.transport.close()
                return
            self.connections_total += 1
            connection.conn_id = self.connections_total
            self._connections[connection.conn_id] = connection

    def _retire(self, connection: _AsyncConnection) -> None:
        """Stop serving a connection and fold its gauges into the totals.
        Responses of its requests still in flight are dropped."""
        if connection.closed:
            return
        connection.closed = True
        connection.backlog.clear()
        decoder = connection.decoder
        with self._lock:
            self._connections.pop(connection.conn_id, None)
            self._retired_bytes_in += connection.bytes_in
            self._retired_bytes_out += connection.bytes_out
            self._retired_frames_json += decoder.frames_json
            self._retired_frames_binary += decoder.frames_binary

    def _close(self, connection: _AsyncConnection) -> None:
        """Retire a connection and close its transport (what was written
        is still flushed)."""
        self._retire(connection)
        connection.transport.close()

    # -- the control path ----------------------------------------------------

    def _resume(self, connection: _AsyncConnection) -> None:
        """Work the connection's backlog off in a fresh loop callback."""
        if not connection.resume_pending and not connection.closed:
            connection.resume_pending = True
            self._loop.call_soon(self._pump, connection)

    def _pump(self, connection: _AsyncConnection) -> None:
        """Run the backlog's frames through the control path in order until
        it empties or the connection must wait; read on only once it is
        empty."""
        connection.resume_pending = False
        backlog = connection.backlog
        while backlog and not connection.closed:
            if connection.write_paused or connection.delayed is not None:
                break
            if connection.inflight_count >= self.max_inflight:
                # Backpressure, not buffering: the socket is not read until
                # a slot frees.
                if not connection.stalled:
                    connection.stalled = True
                    with self._lock:
                        connection.backpressure_waits += 1
                        self.backpressure_waits += 1
                break
            connection.stalled = False
            self._frame(connection, backlog.popleft())
        if connection.closed:
            return
        if backlog or connection.write_paused or connection.delayed is not None:
            connection.transport.pause_reading()
        elif connection.error is not None:
            self._write(connection, ErrorResponse.from_exception(connection.error).to_wire())
            self._close(connection)
        elif connection.eof:
            self._close(connection)
        else:
            connection.transport.resume_reading()

    def _frame(self, connection: _AsyncConnection, body) -> None:
        """One frame, up to and including the fault gate."""
        try:
            # JSON frames decode fully here; binary frames yield only their
            # preamble -- all the control plane needs.
            payload, is_binary = peek_payload(body)
        except ApiError as error:
            self._write(connection, ErrorResponse.from_exception(error).to_wire())
            self._close(connection)
            return
        if not isinstance(payload.get("op"), str):
            # Checked before any set lookup: a list or dict ``op`` is
            # unhashable.
            self._write(
                connection,
                self.handler.error_envelope(
                    payload, BadSchemaError("envelope 'op' must be a string")
                ),
            )
            return
        action = None
        if self.fault_gate is not None:
            action = self.fault_gate.on_server_frame(payload)
            if action is not None and action.delay_s > 0:
                # Hold this frame, and with it the whole connection, for
                # the delay: a connection's frames keep their order.
                connection.delayed = (body, payload, is_binary, action)
                self._loop.call_later(action.delay_s, self._end_delay, connection)
                return
        self._gated(connection, body, payload, is_binary, action)

    def _end_delay(self, connection: _AsyncConnection) -> None:
        if connection.closed:
            return
        delayed, connection.delayed = connection.delayed, None
        self._gated(connection, *delayed)
        self._pump(connection)

    def _gated(self, connection: _AsyncConnection, body, payload, is_binary, action) -> None:
        """One frame past the fault gate: the checks, then ``begin``."""
        if action is not None:
            if action.kind == "drop":
                return
            if action.kind == "corrupt":
                self._write_bytes(connection, action.data)
                return
            if action.kind == "kill":
                self._close(connection)
                return
        op = payload["op"]
        if self.tenancy is not None and op == "hello":
            token = payload.get("token")
            try:
                connection.tenant = self.tenancy.authenticate(
                    token if isinstance(token, str) else None
                )
            except ApiError as error:
                self._write(connection, self.handler.error_envelope(payload, error))
                return
        is_work = op in WORK_OPS
        if (
            is_work
            and self.tenancy is not None
            and self.tenancy.require_auth
            and (connection.tenant is None or not connection.tenant.authenticated)
        ):
            self._write(
                connection,
                self.handler.error_envelope(
                    payload,
                    AuthenticationError(
                        "this server requires a tenant bearer token; "
                        "reconnect with token=... / --token"
                    ),
                ),
            )
            return
        # The shedding gate *before* any tensor decode -- O(1) on the peeked
        # preamble, so a shed request never reaches the handler.
        try:
            self.gate.check(payload, tenant=connection.tenant, nbytes=len(body))
        except ApiError as error:
            self._write(connection, self.handler.error_envelope(payload, error))
            return
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
            self._release(connection, is_work)
            if not draining:
                self._close(connection)
                return
            self._write(
                connection,
                self.handler.error_envelope(
                    payload, OverloadedError("server is draining and accepts no new work")
                ),
            )
            return
        if is_binary:
            # Admitted: only now attach the tensor buffers -- zero-copy views.
            try:
                payload = attach_buffers(body, payload)
            except ApiError as error:
                self._release(connection, is_work)
                self._write(connection, ErrorResponse.from_exception(error).to_wire())
                self._close(connection)
                return
        started = time.perf_counter()
        degrade_level = 0
        if self.ladder is not None and is_work:
            degrade_level = self.ladder.observe(self.admission.pressure())
        tenant = connection.tenant
        # Validate and submit; the engine tick runs the batch and the
        # count-down writes the response.  Binary tensors are zero-copy
        # views both ways.
        pendings, finish = self.handler.begin(
            payload, degrade_level, None if tenant is None else tenant.name
        )
        reply = partial(self._reply, connection, payload, finish, is_work, len(body), started)
        if pendings:
            _CountDown(self._loop, self._loop_thread, pendings, reply)
            self._schedule_tick()
        else:
            reply()

    def _release(self, connection: _AsyncConnection, is_work: bool) -> None:
        """Give back the in-flight slot (and admission slot) of a frame that
        was refused after it was counted."""
        with self._lock:
            connection.inflight_count -= 1
        if is_work:
            self.admission.complete()

    def _reply(self, connection, payload, finish, is_work, nbytes, started) -> None:
        """Finish one admitted request and write its response.

        Runs as the request's count-down, often inside the engine tick's
        batch, so a failure here is reported, never raised into the batch
        (its sibling requests must still be answered).
        """
        sent = False
        try:
            try:
                response = finish()
                if self.ladder is not None and is_work:
                    self._record_applied(response)
            finally:
                if is_work:
                    # Retire the work frame -- free its admission slot, meter
                    # it -- before writing the response, so a client that read
                    # its answer finds its own charge in the ledger (modelled
                    # cycles/energy arrive through the service's cost observer).
                    elapsed = time.perf_counter() - started
                    self.admission.complete(elapsed)
                    if self.tenancy is not None:
                        self.tenancy.charge_request(
                            connection.tenant,
                            rows=estimate_rows(payload),
                            nbytes=nbytes,
                            wall_seconds=elapsed,
                        )
            sent = self._write(connection, response)
        except Exception as error:  # noqa: BLE001 -- keep serving the batch
            self._loop.call_exception_handler(
                {"message": "response of a wire request failed", "exception": error}
            )
        finally:
            with self._lock:
                connection.inflight_count -= 1
                if sent:
                    self.requests_served += 1
            if connection.stalled:
                self._resume(connection)

    def _record_applied(self, response: dict) -> None:
        """Record the degradation level a response was actually served at.

        Single responses stamp it at the top level, stream responses inside
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
            applied = candidate.get("degradation")
            if isinstance(applied, int) and not isinstance(applied, bool):
                self.ladder.record_applied(applied)
                return

    # -- sending -------------------------------------------------------------

    def _write(self, connection: _AsyncConnection, payload: dict) -> bool:
        """Encode one envelope and write it; whether it went out."""
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
        return self._write_bytes(connection, data)

    def _write_bytes(self, connection: _AsyncConnection, data: bytes) -> bool:
        """Queue bytes on the transport unless the connection is retired;
        the transport buffers what the socket does not take at once."""
        if connection.closed:
            return False
        connection.transport.write(data)
        connection.bytes_out += len(data)
        return True
