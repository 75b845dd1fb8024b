"""Length-prefixed framing of the normalization wire protocol.

One frame = a 4-byte big-endian unsigned payload length followed by that
many payload bytes.  The prefix makes the protocol self-delimiting over a
TCP stream, and the frame-size limit bounds what a peer can make the other
side buffer before any schema validation runs.

Two payload kinds share the stream, discriminated by the first payload
byte:

* **JSON frames**: the payload is one UTF-8 JSON envelope dictionary
  (its tensors ``base64``).  A JSON object always starts with ``{`` (0x7B) or
  whitespace -- never 0xAB.
* **Binary frames**: the payload starts with the 4-byte magic
  ``BINARY_MAGIC`` (first byte 0xAB, which is not valid leading UTF-8),
  followed by a compact JSON *preamble* (the envelope with each
  ``binary``-encoded tensor's data replaced by a buffer index), a buffer
  table, and the raw little-endian tensor buffers themselves::

      u32  payload_length                       (the shared frame prefix)
      ----------------------------------------- payload:
      4B   magic  = b"\\xabHB3"
      u32  preamble_length
      ...  preamble (UTF-8 JSON envelope, tensor data = buffer index)
      u32  buffer_count
      n *  (u64 offset, u64 length)             offsets payload-relative
      ...  zero padding to the next 8-byte boundary
      ...  buffers (each one 8-byte aligned, raw little-endian)

  Decoding never copies tensor bytes: each buffer becomes a memoryview
  slice over the received payload, and ``TensorPayload.to_array`` wraps
  it with ``np.frombuffer``.  Encoding writes each buffer straight from
  the source array's memoryview -- no base64, no text inflation.

Receiving copies a frame's bytes once, into a buffer sized by its
announced length; binary tensors are then read-only views of that buffer.
:class:`FrameDecoder` is the one reassembly path.  A socket reads into it
with ``recv_into(decoder.get_buffer())`` and hands the byte count to
``decoder.buffer_updated(n)`` -- the pair ``asyncio.BufferedProtocol``
calls -- and :meth:`FrameDecoder.feed` copies bytes already in hand into
the same buffers.  Small frames land in a scratch region, so a pipelined
peer that sent several of them pays one syscall for all; a frame still
partial after a read moves to a buffer of its own.  Malformed input --
JSON or binary -- raises an :class:`ApiError` member, never hangs, never
escapes as a raw struct/numpy exception.  :func:`recv_frame` reads exactly
one frame into such a buffer (the hello handshake, simple clients).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api.envelopes import (
    BadSchemaError,
    PayloadTooLargeError,
    TransportError,
    _binary_data_view,
    rewrite_binary_tensors,
    rewrite_slot_tensors,
)

#: 4-byte big-endian unsigned frame-length prefix.
FRAME_HEADER = struct.Struct(">I")

#: Default bound on one frame's payload (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Size of a decoder's scratch region: the most one read between frames asks for.
SCRATCH_BYTES = 64 * 1024

#: Magic opening a binary payload.  The first byte (0xAB) is a UTF-8
#: continuation byte, so no JSON payload can ever start with it.
BINARY_MAGIC = b"\xabHB3"

_U32 = struct.Struct(">I")
_BUFFER_ENTRY = struct.Struct(">QQ")

#: Fixed binary-payload overhead before the preamble (magic + u32).
_PREAMBLE_AT = len(BINARY_MAGIC) + _U32.size


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _oversize_error(direction: str, length: int, max_frame_bytes: int) -> PayloadTooLargeError:
    """The one wording for every frame-size rejection: cap *and* length."""
    return PayloadTooLargeError(
        f"{direction} frame of {length} bytes exceeds the configured "
        f"max_frame_bytes cap of {max_frame_bytes} bytes"
    )


def encode_frame(payload: Dict[str, Any], max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one envelope into a length-prefixed frame.

    Envelopes carrying ``binary``-encoded tensors become binary frames
    (raw buffers, no base64); everything else stays a JSON frame.  Only
    the op's tensor slots are visited, unless a buffer sits elsewhere.  A
    value JSON cannot carry raises :class:`BadSchemaError`.
    """
    buffers: List[memoryview] = []

    def _detach(tensor: Dict[str, Any]) -> Dict[str, Any]:
        view = _binary_data_view(tensor["data"])
        out = dict(tensor)
        out["data"] = len(buffers)
        buffers.append(view)
        return out

    try:
        text = json.dumps(rewrite_slot_tensors(payload, _detach), separators=(",", ":"))
    except TypeError:
        # A buffer outside the op's slots (a hand-built envelope): detach
        # every binary tensor at any depth instead.
        buffers.clear()
        try:
            text = json.dumps(rewrite_binary_tensors(payload, _detach), separators=(",", ":"))
        except TypeError as error:
            raise BadSchemaError(f"envelope is not JSON-serializable: {error}") from None
    preamble = text.encode("utf-8")
    if not buffers:
        if len(preamble) > max_frame_bytes:
            raise _oversize_error("outgoing", len(preamble), max_frame_bytes)
        return FRAME_HEADER.pack(len(preamble)) + preamble

    table_at = _PREAMBLE_AT + len(preamble) + _U32.size
    offset = table_at + _BUFFER_ENTRY.size * len(buffers)
    table = bytearray()
    body: List[Any] = []
    for view in buffers:
        aligned = _align8(offset)
        if aligned != offset:
            body.append(b"\x00" * (aligned - offset))
            offset = aligned
        table += _BUFFER_ENTRY.pack(offset, view.nbytes)
        body.append(view)
        offset += view.nbytes

    if offset > max_frame_bytes:
        raise _oversize_error("outgoing binary", offset, max_frame_bytes)
    parts = [
        FRAME_HEADER.pack(offset),
        BINARY_MAGIC,
        _U32.pack(len(preamble)),
        preamble,
        _U32.pack(len(buffers)),
        bytes(table),
    ]
    parts.extend(body)
    return b"".join(parts)


def send_frame(
    sock: socket.socket, payload: Dict[str, Any], max_frame_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Encode and write one frame to a connected socket."""
    sock.sendall(encode_frame(payload, max_frame_bytes))


def _frame_buffer(length: int) -> memoryview:
    """A writable buffer for one frame body.  Its pages are left untouched
    (no zero fill), so an announced length costs memory only as bytes arrive."""
    return memoryview(np.empty(length, dtype=np.uint8))


def _recv_exact(sock: socket.socket, count: int) -> memoryview:
    """Read exactly ``count`` bytes into one buffer of that size (read-only
    view); EOF raises ``ConnectionError``."""
    view = _frame_buffer(count)
    got = 0
    while got < count:
        received = sock.recv_into(view[got:])
        if not received:
            raise ConnectionError("connection closed mid-frame")
        got += received
    return view.toreadonly()


def frame_kind(body) -> str:
    """``"binary"`` or ``"json"``, by the payload's first byte."""
    return "binary" if body[:1] == BINARY_MAGIC[:1] else "json"


def _preamble_end(data: bytes) -> int:
    """Validate a binary payload's header; the offset where its preamble ends."""
    total = len(data)
    if total < _PREAMBLE_AT + _U32.size or data[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise TransportError(
            f"binary frame header is malformed or truncated "
            f"({total}-byte payload, expected magic {BINARY_MAGIC!r})"
        )
    (preamble_len,) = _U32.unpack_from(data, len(BINARY_MAGIC))
    if preamble_len > total - _PREAMBLE_AT - _U32.size:
        raise TransportError(
            f"binary frame preamble announces {preamble_len} bytes but only "
            f"{max(total - _PREAMBLE_AT - _U32.size, 0)} remain in the "
            f"{total}-byte payload"
        )
    return _PREAMBLE_AT + preamble_len


def peek_payload(data: bytes) -> tuple:
    """``(envelope, is_binary)`` without materializing any tensor buffer.

    The pre-decode gate (tenant quota + overload admission) runs on this:
    for a **binary** frame only the magic, the u32 preamble length and the
    JSON preamble itself are parsed -- the buffer table is never walked
    and no buffer memoryview is created, so a rejected request's tensor
    bytes are never touched (let alone ``np.frombuffer``-wrapped).  The
    returned envelope's binary tensors keep their integer buffer indices
    in ``data``; sizing/classification fields (op, request_id, shapes,
    deadline_ms) are all present, and :func:`attach_buffers` completes
    the decode of an admitted frame.  For a **JSON** frame the peek *is*
    the full decode, so the caller can reuse the envelope as the final
    payload.

    Malformed input raises the same :class:`ApiError` members as
    :func:`decode_payload` -- peeking never widens what a hostile frame
    can do.
    """
    if frame_kind(data) != "binary":
        return decode_payload(data), False
    return _parse_preamble(data, _preamble_end(data)), True


def _parse_preamble(data: bytes, end: int) -> Dict[str, Any]:
    try:
        preamble = json.loads(bytes(data[_PREAMBLE_AT:end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(
            f"binary frame preamble is not valid JSON: {error}"
        ) from error
    if not isinstance(preamble, dict):
        raise TransportError(
            f"binary frame preamble must be a JSON object, got "
            f"{type(preamble).__name__}"
        )
    return preamble


def attach_buffers(data: bytes, preamble: Dict[str, Any]) -> Dict[str, Any]:
    """Finish decoding a binary payload whose preamble was already peeked.

    ``preamble`` is the envelope :func:`peek_payload` returned for
    ``data``; its JSON is not parsed again.  The buffer table is read and
    each binary tensor in the op's tensor slots (at any depth, if the slots
    leave a buffer unreferenced) has its integer ``data`` index replaced
    by a zero-copy memoryview slice of ``data``.  Every
    malformed input -- lengths that do not fit, buffer spans outside the
    payload, or a dangling buffer index -- raises :class:`TransportError`;
    nothing ever escapes as a raw ``struct.error`` or numpy exception.
    """
    return _attach(data, preamble, _preamble_end(data))


def _attach(data: bytes, preamble: Dict[str, Any], pos: int) -> Dict[str, Any]:
    total = len(data)
    (buffer_count,) = _U32.unpack_from(data, pos)
    pos += _U32.size
    table_bytes = buffer_count * _BUFFER_ENTRY.size
    if table_bytes > total - pos:
        raise TransportError(
            f"binary frame announces {buffer_count} buffers but its table "
            f"needs {table_bytes} bytes and only {total - pos} remain"
        )
    body = memoryview(data)
    buffers: List[memoryview] = []
    buffers_start = pos + table_bytes
    for index in range(buffer_count):
        offset, length = _BUFFER_ENTRY.unpack_from(data, pos + index * _BUFFER_ENTRY.size)
        if offset < buffers_start or offset + length > total:
            raise TransportError(
                f"binary frame buffer {index} spans bytes {offset}..{offset + length} "
                f"outside the {total}-byte payload"
            )
        buffers.append(body[offset : offset + length])

    attached = set()

    def _attach_one(tensor: Dict[str, Any]) -> Dict[str, Any]:
        index = tensor["data"]
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < buffer_count:
            raise TransportError(
                f"binary tensor references buffer {index!r}; the frame "
                f"carries {buffer_count} buffer(s)"
            )
        attached.add(index)
        out = dict(tensor)
        out["data"] = buffers[index]
        return out

    envelope = rewrite_slot_tensors(preamble, _attach_one)
    if len(attached) < buffer_count:
        # Buffers referenced outside the op's slots (a hand-built
        # envelope): attach every binary tensor at any depth instead.
        envelope = rewrite_binary_tensors(preamble, _attach_one)
    return envelope


def decode_payload(data: bytes) -> Dict[str, Any]:
    """Decode one frame's payload bytes into an envelope dictionary.

    ``data`` is any bytes-like object.  Binary payloads decode zero-copy:
    each tensor buffer becomes a memoryview slice over ``data``, which
    ``TensorPayload.to_array`` wraps with ``np.frombuffer``.
    """
    if frame_kind(data) == "binary":
        end = _preamble_end(data)
        return _attach(data, _parse_preamble(data, end), end)
    try:
        payload = json.loads(str(data, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise TransportError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class FrameDecoder:
    """Incremental frame decoder over an unbounded byte stream.

    Bytes arrive in any chunking; complete frames come out in order.  A
    socket reads straight into :meth:`get_buffer` and reports the count to
    :meth:`buffer_updated`; :meth:`feed` copies bytes already in hand
    through the same pair.

    * Between frames the buffer is a scratch region (``scratch``, or a
      private one of :data:`SCRATCH_BYTES`).  Frames that complete there
      are copied out, so the decoder holds nothing once a read ends on a
      frame boundary.
    * A frame still partial after a read moves to a buffer sized by its
      announced length, and the following reads fill that buffer and no
      more.  The completed body is handed out as a read-only memoryview of
      it, so binary tensors stay zero-copy.
    * Nothing is left in the scratch between calls, which is what lets one
      scratch serve every connection of an event loop.

    An announced length beyond ``max_frame_bytes`` fails before any buffer
    is allocated, so a hostile peer cannot make this side hold more than
    one frame's worth of memory.

    The decoder keeps codec counters for the telemetry layer:
    ``frames_json`` / ``frames_binary`` (decoded envelopes per payload
    kind), ``bytes_decoded`` (payload bytes of completed frames) and
    ``last_kind`` (the most recent frame's kind, or ``None``).

    ``raw=True`` defers payload decoding: frame *bodies* come out instead
    of envelopes, counters still tick per kind.  The server reader uses
    this so its pre-decode gate can :func:`peek_payload` a frame and shed
    it (quota, overload) before any tensor buffer is materialized;
    admitted binary bodies then go through :func:`attach_buffers`, so
    their preamble is parsed once.

    Every method that takes bytes raises :class:`PayloadTooLargeError` on
    an oversized length prefix (the message names both the configured cap
    and the offending length) and :class:`TransportError` on a payload
    that is not a JSON object or a well-formed binary frame; both poison
    the stream (framing cannot be resynchronized), so the caller must drop
    the connection.
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        raw: bool = False,
        scratch: Optional[memoryview] = None,
    ):
        self.max_frame_bytes = max_frame_bytes
        self.raw = raw
        self._scratch = memoryview(
            bytearray(SCRATCH_BYTES) if scratch is None else scratch
        )
        #: The first bytes (< 4) of the next frame's length prefix.
        self._head = b""
        #: The partial frame's body buffer, and how much of it is filled.
        self._body: Optional[memoryview] = None
        self._filled = 0
        self.frames_json = 0
        self.frames_binary = 0
        self.bytes_decoded = 0
        self.last_kind: Any = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame, prefix included."""
        if self._body is not None:
            return FRAME_HEADER.size + self._filled
        return len(self._head)

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """The writable region the next read should fill (never empty)."""
        if self._body is not None:
            return self._body[self._filled :]
        head = len(self._head)
        if head:
            self._scratch[:head] = self._head
        return self._scratch[head:]

    def buffer_updated(self, nbytes: int) -> List[Any]:
        """Account ``nbytes`` written into :meth:`get_buffer`'s region;
        returns every frame they completed (envelope dicts, or raw bodies
        in ``raw`` mode)."""
        if self._body is not None:
            self._filled += nbytes
            if self._filled < len(self._body):
                return []
            body, self._body = self._body.toreadonly(), None
            return [self._emit(body)]
        view = self._scratch
        end = len(self._head) + nbytes
        self._head = b""
        frames: List[Any] = []
        pos = 0
        while end - pos >= FRAME_HEADER.size:
            (length,) = FRAME_HEADER.unpack_from(view, pos)
            if length > self.max_frame_bytes:
                raise _oversize_error("incoming", length, self.max_frame_bytes)
            start = pos + FRAME_HEADER.size
            pos = start + length
            if pos > end:
                # Partial: the rest of this frame is read into its own buffer.
                self._body = _frame_buffer(length)
                self._filled = end - start
                self._body[: self._filled] = view[start:end]
                return frames
            frames.append(self._emit(bytes(view[start:pos])))
        self._head = bytes(view[pos:end])
        return frames

    def feed(self, data) -> List[Any]:
        """Absorb received bytes (copied into :meth:`get_buffer`'s region);
        returns every frame completed by them."""
        data = memoryview(data)
        frames: List[Any] = []
        pos = 0
        while pos < len(data):
            target = self.get_buffer()
            count = min(len(target), len(data) - pos)
            target[:count] = data[pos : pos + count]
            pos += count
            frames.extend(self.buffer_updated(count))
        return frames

    def _emit(self, body) -> Any:
        kind = frame_kind(body)
        frame = body if self.raw else decode_payload(body)
        self.last_kind = kind
        self.bytes_decoded += len(body)
        if kind == "binary":
            self.frames_binary += 1
        else:
            self.frames_json += 1
        return frame

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary.

        A peer that closed mid-frame left ``pending_bytes`` behind; that is
        a truncated stream, reported as :class:`TransportError`.
        """
        if self.pending_bytes:
            raise TransportError(
                f"stream ended mid-frame with {self.pending_bytes} buffered byte(s)"
            )


def recv_frame(sock: socket.socket, max_frame_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Read one frame and decode its payload (JSON or binary).

    Raises ``ConnectionError`` on a clean or mid-frame close (the caller
    decides whether that means "peer finished" or "reconnect and retry"),
    :class:`PayloadTooLargeError` on an oversized length prefix (naming
    the configured cap and the offending length), and
    :class:`TransportError` on bytes that decode as neither envelope kind.
    """
    (length,) = FRAME_HEADER.unpack(_recv_exact(sock, FRAME_HEADER.size))
    if length > max_frame_bytes:
        raise _oversize_error("incoming", length, max_frame_bytes)
    return decode_payload(_recv_exact(sock, length))
