"""Same-host shared-memory transport: tensor slabs out-of-band, frames on TCP.

Motivation: even with the v3 binary wire format every tensor byte still
crosses the kernel socket buffer twice (client ``sendall`` + server
``recv``).  On the same host that copy tax is avoidable: this module moves
tensor *buffers* through a pair of ``multiprocessing.shared_memory``
segments and keeps the existing socket for everything else -- envelopes,
demultiplexing, backpressure, errors all ride the normal frame protocol,
so every server-side policy (admission control, chaos fault gates,
degradation ladder) applies unchanged.

Topology (one pair per pooled connection, client is the creator/owner):

* **tx segment** -- client-allocated ring; the client stages request
  tensors here and frees each request's slabs when its reply arrives.
* **rx segment** -- client-created but server-allocated; the server stages
  response tensors here and the client frees them by sending a one-way
  ``shm_release`` control frame after copying the data out.

On the wire a staged tensor is a *slab descriptor*::

    {"encoding": "shm", "dtype": ..., "shape": ...,
     "data": {"offset": <byte offset>, "length": <byte length>}}

Descriptors exist only on the socket between the two translators: the
server rewrites inbound descriptors to zero-copy ``binary`` memoryviews
before the handler sees the envelope, and the client rewrites outbound
reply descriptors to owned ``bytes`` before the caller sees them --
``TensorPayload.from_wire`` never encounters ``encoding == "shm"``.

Fallback is graceful at every step: if the attach handshake is refused
(server flag, cross-host, no ``/dev/shm``), or a ring is momentarily full,
tensors simply stay inline in the v3 binary frame over TCP.

Caveat (documented, by design): a request abandoned by its waiter keeps
its tx slabs until the *reply* is read or the connection closes -- slab
lifetime follows the wire exchange, not the caller's patience.  No thread
reads an idle connection, so a late reply there is read (and its slabs
freed) at the connection's next wait, ``done()`` or send.
"""

from __future__ import annotations

import bisect
import os
import threading
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

from repro.api.envelopes import (
    BINARY_WIRE_VERSION,
    SCHEMA_VERSION,
    ApiError,
    BadSchemaError,
    TransportError,
    _binary_data_view,
    rewrite_slot_tensors,
)
from repro.api.framing import encode_frame, recv_frame, send_frame
from repro.api.transport import (
    SocketTransport,
    _PoolConnection,
    register_transport,
)

#: Slab granularity: every allocation is rounded up to this, which also
#: guarantees every tensor buffer is alignment-friendly for numpy views.
SLAB_ALIGNMENT = 64

#: Default per-direction ring size (32 MiB each way).
DEFAULT_RING_BYTES = 32 * 1024 * 1024

#: Server-side sanity cap on an attach request's declared segment sizes.
MAX_SEGMENT_BYTES = 1 << 30


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    The creating side (the client) owns unlink; attaching still registers
    the name with this process's ``resource_tracker`` on CPython < 3.13,
    which then warns at exit about segments the client already unlinked.
    Unregister right away -- the server never unlinks what it did not make.
    """
    segment = shared_memory.SharedMemory(name=name, create=False)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    return segment


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    """Close one segment handle, tolerating still-live zero-copy views.

    A request decoded zero-copy can outlive its connection (a queued
    batch may still hold the view when the reader tears down).
    ``SharedMemory.close`` would raise ``BufferError`` -- and then raise it
    *again* from ``__del__`` during interpreter GC, where finalization
    order inside a cycle is arbitrary.  Instead: close the fd now and hand
    the mapping's lifetime to its exporters -- the ``mmap`` object is
    freed silently when the last view dies (or with the process).
    """
    try:
        segment.close()
    except BufferError:
        try:
            if segment._fd >= 0:  # noqa: SLF001 -- defusing the stdlib finalizer
                os.close(segment._fd)
                segment._fd = -1
        except OSError:
            pass
        segment._buf = None
        segment._mmap = None
    except OSError:
        pass


def _is_shm_descriptor(obj: dict) -> bool:
    return (
        obj.get("encoding") == "shm"
        and "dtype" in obj
        and "shape" in obj
        and "data" in obj
    )


def _descriptor_span(tensor: dict, segment_size: int) -> Tuple[int, int]:
    """Validate a slab descriptor's ``data`` and return ``(offset, length)``."""
    data = tensor.get("data")
    if not isinstance(data, dict):
        raise BadSchemaError("shm tensor 'data' must be a slab descriptor object")
    offset = data.get("offset")
    length = data.get("length")
    for name, value in (("offset", offset), ("length", length)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise BadSchemaError(
                f"shm slab descriptor field '{name}' must be a non-negative integer"
            )
    if offset + length > segment_size:
        raise BadSchemaError(
            f"shm slab [{offset}, {offset + length}) exceeds the "
            f"{segment_size}-byte shared segment"
        )
    return offset, length


class SlabRing:
    """Thread-safe first-fit slab allocator over one shared-memory segment.

    Keeps a sorted free list of ``(offset, length)`` spans; ``free``
    coalesces with both neighbours so long-lived rings do not fragment
    into confetti.  Allocation failure returns ``None`` (callers fall
    back to inline binary frames) -- it never raises.
    """

    def __init__(self, size: int, alignment: int = SLAB_ALIGNMENT):
        if size < alignment:
            raise ValueError(f"ring size {size} is smaller than one {alignment}-byte slab")
        self.size = size
        self.alignment = alignment
        self._lock = threading.Lock()
        self._free: List[Tuple[int, int]] = [(0, size)]
        self._allocated: Dict[int, int] = {}

    def alloc(self, length: int) -> Optional[int]:
        """Reserve ``length`` bytes; returns the slab offset or ``None``."""
        padded = -(-max(length, 1) // self.alignment) * self.alignment
        with self._lock:
            for index, (offset, span) in enumerate(self._free):
                if span >= padded:
                    if span == padded:
                        del self._free[index]
                    else:
                        self._free[index] = (offset + padded, span - padded)
                    self._allocated[offset] = padded
                    return offset
        return None

    def free(self, offset: int) -> bool:
        """Release the slab at ``offset``; unknown offsets are ignored."""
        with self._lock:
            padded = self._allocated.pop(offset, None)
            if padded is None:
                return False
            index = bisect.bisect_left(self._free, (offset, 0))
            if index < len(self._free) and offset + padded == self._free[index][0]:
                padded += self._free[index][1]
                del self._free[index]
            if index > 0:
                prev_offset, prev_span = self._free[index - 1]
                if prev_offset + prev_span == offset:
                    offset, padded = prev_offset, prev_span + padded
                    del self._free[index - 1]
                    index -= 1
            self._free.insert(index, (offset, padded))
            return True

    @property
    def bytes_in_use(self) -> int:
        with self._lock:
            return sum(self._allocated.values())

    @property
    def slabs_in_use(self) -> int:
        with self._lock:
            return len(self._allocated)


def _stage_tensors(
    payload: Dict[str, Any],
    ring: SlabRing,
    buffer: memoryview,
    staged: List[int],
) -> Dict[str, Any]:
    """Move every binary tensor of ``payload`` into ring slabs (best effort).

    Tensors that do not fit (ring momentarily full) stay inline -- a mixed
    envelope is legal and resolves tensor-by-tensor on the other side.
    Offsets of every slab taken are appended to ``staged`` so the caller
    can reclaim them.
    """

    def stage(tensor: dict) -> dict:
        try:
            view = _binary_data_view(tensor["data"])
        except ApiError:
            return tensor  # malformed: let the normal decode path report it
        offset = ring.alloc(len(view))
        if offset is None:
            return tensor  # ring full: keep the tensor inline in the frame
        buffer[offset : offset + len(view)] = view
        staged.append(offset)
        return {
            "encoding": "shm",
            "dtype": tensor["dtype"],
            "shape": tensor["shape"],
            "data": {"offset": offset, "length": len(view)},
        }

    return rewrite_slot_tensors(payload, stage)


class ServerShmSession:
    """Server side of one connection's shared-memory session.

    Attaches (never creates, never unlinks) the client's segment pair,
    rewrites inbound slab descriptors to zero-copy memoryview tensors,
    and stages outbound response tensors into the rx ring it allocates.
    """

    def __init__(self, tx: shared_memory.SharedMemory, rx: shared_memory.SharedMemory,
                 tx_size: int, rx_size: int):
        self._tx = tx
        self._rx = rx
        self._tx_size = tx_size
        self._rx_size = rx_size
        self._ring = SlabRing(rx_size)
        self._closed = False

    @classmethod
    def attach(cls, payload: Dict[str, Any]) -> "ServerShmSession":
        """Attach to the segment pair named in an ``shm_attach`` envelope."""
        sizes = {}
        names = {}
        for key in ("tx", "rx"):
            entry = payload.get(key)
            if not isinstance(entry, dict):
                raise BadSchemaError(f"shm_attach missing segment descriptor '{key}'")
            name = entry.get("name")
            size = entry.get("size")
            if not isinstance(name, str) or not name:
                raise BadSchemaError(f"shm_attach '{key}.name' must be a non-empty string")
            if isinstance(size, bool) or not isinstance(size, int):
                raise BadSchemaError(f"shm_attach '{key}.size' must be an integer")
            if not SLAB_ALIGNMENT <= size <= MAX_SEGMENT_BYTES:
                raise BadSchemaError(
                    f"shm_attach '{key}.size' of {size} bytes is outside the accepted "
                    f"[{SLAB_ALIGNMENT}, {MAX_SEGMENT_BYTES}] range"
                )
            names[key], sizes[key] = name, size
        tx = _attach_untracked(names["tx"])
        try:
            rx = _attach_untracked(names["rx"])
        except BaseException:
            tx.close()
            raise
        for segment, key in ((tx, "tx"), (rx, "rx")):
            if segment.size < sizes[key]:
                tx.close()
                rx.close()
                raise BadSchemaError(
                    f"shm segment '{key}' is {segment.size} bytes, smaller than the "
                    f"declared {sizes[key]}"
                )
        return cls(tx, rx, sizes["tx"], sizes["rx"])

    def resolve_inbound(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Rewrite request slab descriptors to zero-copy binary tensors."""
        if self._closed:
            raise TransportError("shared-memory session is closed")
        tx_size = self._tx_size
        buffer = self._tx.buf

        def resolve(tensor: dict) -> dict:
            offset, length = _descriptor_span(tensor, tx_size)
            out = dict(tensor)
            out["encoding"] = "binary"
            out["data"] = memoryview(buffer)[offset : offset + length]
            return out

        return rewrite_slot_tensors(payload, resolve, _is_shm_descriptor)

    def stage_outbound(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Move response tensors into the rx ring (inline fallback when full)."""
        if self._closed:
            return payload
        staged: List[int] = []
        return _stage_tensors(payload, self._ring, self._rx.buf, staged)

    def release(self, slabs: Any) -> int:
        """Free the rx slabs a client ``shm_release`` frame names."""
        if self._closed or not isinstance(slabs, list):
            return 0
        freed = 0
        for offset in slabs:
            if isinstance(offset, bool) or not isinstance(offset, int):
                continue
            freed += 1 if self._ring.free(offset) else 0
        return freed

    def close(self) -> None:
        """Detach from both segments (the client owns their lifetime)."""
        if self._closed:
            return
        self._closed = True
        for segment in (self._tx, self._rx):
            _close_segment(segment)


class _ClientShmSession:
    """Client side: owns the segment pair and the tx ring for one connection."""

    def __init__(self, ring_bytes: int):
        self.tx = shared_memory.SharedMemory(create=True, size=ring_bytes)
        try:
            self.rx = shared_memory.SharedMemory(create=True, size=ring_bytes)
        except BaseException:
            self.tx.close()
            self.tx.unlink()
            raise
        self.ring = SlabRing(ring_bytes)
        self._lock = threading.Lock()
        #: request_id -> tx slab offsets staged for that request; freed when
        #: the reply arrives (or wholesale on close), never on abandon.
        self._staged: Dict[int, List[int]] = {}
        self._closed = False

    def attach_envelope(self, version: int) -> Dict[str, Any]:
        return {
            "schema_version": version,
            "op": "shm_attach",
            "request_id": 0,
            "tx": {"name": self.tx.name, "size": self.tx.size},
            "rx": {"name": self.rx.name, "size": self.rx.size},
        }

    def stage_request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Stage a request's binary tensors into tx slabs (best effort)."""
        if self._closed:
            return payload
        request_id = payload.get("request_id")
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            return payload  # nothing to key reclamation on: keep it inline
        staged: List[int] = []
        rewritten = _stage_tensors(payload, self.ring, self.tx.buf, staged)
        if staged:
            with self._lock:
                self._staged.setdefault(request_id, []).extend(staged)
        return rewritten

    def translate_reply(
        self, envelope: Dict[str, Any], conn: _PoolConnection, version: int
    ) -> Dict[str, Any]:
        """Reply hook (run by the connection's reader): reclaim tx slabs,
        copy rx slabs out, release.

        Runs for orphaned replies too (the sender abandoned the request) --
        that is precisely when reclamation matters most.  No thread reads
        for an idle connection, though: an orphan that arrives there holds
        its slabs until the connection is next read (a wait or ``done()``
        on it, or the poll before its next send).
        """
        request_id = envelope.get("request_id")
        if not isinstance(request_id, bool) and isinstance(request_id, int):
            with self._lock:
                for offset in self._staged.pop(request_id, ()):  # tx reclaim
                    self.ring.free(offset)
        if self._closed:
            return envelope
        released: List[int] = []
        rx_size = self.rx.size
        buffer = self.rx.buf

        def copy_out(tensor: dict) -> dict:
            offset, length = _descriptor_span(tensor, rx_size)
            out = dict(tensor)
            out["encoding"] = "binary"
            # Owned copy: the slab is recycled the moment we release it.
            out["data"] = bytes(memoryview(buffer)[offset : offset + length])
            released.append(offset)
            return out

        try:
            envelope = rewrite_slot_tensors(envelope, copy_out, _is_shm_descriptor)
        finally:
            if released:
                self._send_release(conn, released, version)
        return envelope

    def _send_release(
        self, conn: _PoolConnection, offsets: List[int], version: int
    ) -> None:
        """Queue a one-way ``shm_release`` (this runs on the connection's
        reader, which may be mid-send); a lost release leaks until close."""
        frame = {"schema_version": version, "op": "shm_release", "slabs": offsets}
        try:
            conn.queue_frame(encode_frame(frame, conn.max_frame_bytes))
        except ApiError:
            pass

    def close(self) -> None:
        """Destroy both segments (the client created them, it unlinks them)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._staged.clear()
        for segment in (self.tx, self.rx):
            _close_segment(segment)
            try:
                # Re-register first: when the server shares this process (the
                # in-process parity experiment), its attach unregistered the
                # name, and unlink's own unregister would make the tracker
                # daemon log a KeyError.  Registering is set-idempotent.
                from multiprocessing import resource_tracker

                resource_tracker.register(segment._name, "shared_memory")
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass


class SharedMemoryTransport(SocketTransport):
    """`SocketTransport` that moves tensor payloads through shared memory.

    Same constructor, plus ``ring_bytes`` (per-direction segment size).
    The attach handshake is opportunistic: when the server refuses (flag
    off, different host, pre-v3 peer) the transport behaves exactly like a
    plain binary-frame :class:`SocketTransport` -- same-host placement is
    an optimization, never a correctness requirement.
    """

    def __init__(self, *args, ring_bytes: int = DEFAULT_RING_BYTES, **kwargs):
        super().__init__(*args, **kwargs)
        if ring_bytes < SLAB_ALIGNMENT:
            raise ValueError(
                f"ring_bytes must be at least {SLAB_ALIGNMENT}, got {ring_bytes}"
            )
        self.ring_bytes = ring_bytes
        self._shm_lock = threading.Lock()
        self._sessions: Dict[_PoolConnection, _ClientShmSession] = {}
        #: Connections whose attach was refused (gauge for stats/tests).
        self._shm_refusals = 0

    # -- attach handshake ----------------------------------------------------

    def _after_handshake(self, conn: _PoolConnection) -> None:
        if (
            self.negotiated_version is not None
            and self.negotiated_version < BINARY_WIRE_VERSION
        ):
            return  # pre-binary peer: descriptors would be gibberish to it
        version = self.negotiated_version or SCHEMA_VERSION
        try:
            session = _ClientShmSession(self.ring_bytes)
        except (OSError, ValueError):
            return  # no shared-memory facility here: stay on plain TCP
        accepted = False
        try:
            conn.sock.settimeout(self.connect_timeout)
            try:
                send_frame(conn.sock, session.attach_envelope(version), self.max_frame_bytes)
                ack = recv_frame(conn.sock, self.max_frame_bytes)
            finally:
                conn.sock.settimeout(None)
            accepted = (
                isinstance(ack, dict)
                and ack.get("op") == "shm_attach"
                and ack.get("accepted") is True
            )
        except (ApiError, OSError):
            accepted = False
        if not accepted:
            session.close()
            with self._shm_lock:
                self._shm_refusals += 1
            return
        with self._shm_lock:
            self._sessions[conn] = session
        conn.translate = lambda envelope: session.translate_reply(envelope, conn, version)
        conn.on_close = lambda: self._drop_session(conn)

    def _drop_session(self, conn: _PoolConnection) -> None:
        with self._shm_lock:
            session = self._sessions.pop(conn, None)
        if session is not None:
            session.close()

    # -- per-send staging ----------------------------------------------------

    def _prepare(self, payload: Dict[str, Any], conn: _PoolConnection) -> Dict[str, Any]:
        payload = super()._prepare(payload, conn)
        with self._shm_lock:
            session = self._sessions.get(conn)
        if session is not None:
            payload = session.stage_request(payload)
        return payload

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        with self._shm_lock:
            sessions = list(self._sessions.values())
            refusals = self._shm_refusals
        base["shm"] = {
            "sessions": len(sessions),
            "refusals": refusals,
            "ring_bytes": self.ring_bytes,
            "tx_bytes_in_use": sum(s.ring.bytes_in_use for s in sessions),
            "tx_slabs_in_use": sum(s.ring.slabs_in_use for s in sessions),
        }
        return base

    def close(self) -> None:
        super().close()  # closes connections -> on_close drops their sessions
        with self._shm_lock:
            sessions, self._sessions = list(self._sessions.values()), {}
        for session in sessions:
            session.close()


register_transport("shm", SharedMemoryTransport)
