"""Length-prefixed framing of the normalization wire protocol.

One frame = a 4-byte big-endian unsigned payload length followed by that
many payload bytes.  The prefix makes the protocol self-delimiting over a
TCP stream, and the frame-size limit bounds what a peer can make the other
side buffer before any schema validation runs.

Two payload kinds share the stream, discriminated by the first payload
byte:

* **JSON frames** (v1/v2): the payload is one UTF-8 JSON envelope
  dictionary.  A JSON object always starts with ``{`` (0x7B) or
  whitespace -- never 0xAB.
* **Binary frames** (v3): the payload starts with the 4-byte magic
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

Two read paths share the decode rules:

* :func:`recv_frame` -- blocking, one frame per call (simple clients);
* :class:`FrameDecoder` -- incremental, bytes in / envelopes out, so a
  pipelined peer that received several frames in one ``recv`` pays one
  syscall for all of them.  It is also the deterministic harness for the
  truncation/corruption property tests: malformed input -- JSON or binary
  -- raises an :class:`ApiError` member, never hangs, never escapes as a
  raw struct/numpy exception.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List

from repro.api.envelopes import (
    PayloadTooLargeError,
    TransportError,
    has_binary_tensors,
    rewrite_binary_tensors,
    _binary_data_view,
)

#: 4-byte big-endian unsigned frame-length prefix.
FRAME_HEADER = struct.Struct(">I")

#: Default bound on one frame's payload (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

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


def _encode_binary_frame(payload: Dict[str, Any], max_frame_bytes: int) -> bytes:
    """Serialize an envelope carrying binary tensors into a binary frame."""
    buffers: List[memoryview] = []

    def _detach(tensor: Dict[str, Any]) -> Dict[str, Any]:
        view = _binary_data_view(tensor["data"])
        out = dict(tensor)
        out["data"] = len(buffers)
        buffers.append(view)
        return out

    preamble_obj = rewrite_binary_tensors(payload, _detach)
    preamble = json.dumps(preamble_obj, separators=(",", ":")).encode("utf-8")

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


def encode_frame(payload: Dict[str, Any], max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one envelope into a length-prefixed frame.

    Envelopes carrying ``binary``-encoded tensors become binary frames
    (raw buffers, no base64); everything else stays a JSON frame.
    """
    if has_binary_tensors(payload):
        return _encode_binary_frame(payload, max_frame_bytes)
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > max_frame_bytes:
        raise _oversize_error("outgoing", len(data), max_frame_bytes)
    return FRAME_HEADER.pack(len(data)) + data


def send_frame(
    sock: socket.socket, payload: Dict[str, Any], max_frame_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Encode and write one frame to a connected socket."""
    sock.sendall(encode_frame(payload, max_frame_bytes))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes; EOF raises ``ConnectionError``."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_kind(body: bytes) -> str:
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
    end = _preamble_end(data)
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
    return preamble, True


def attach_buffers(data: bytes, preamble: Dict[str, Any]) -> Dict[str, Any]:
    """Finish decoding a binary payload whose preamble was already peeked.

    ``preamble`` is the envelope :func:`peek_payload` returned for
    ``data``; its JSON is not parsed again.  The buffer table is walked
    and each binary tensor's integer ``data`` index is replaced by a
    zero-copy memoryview slice of ``data``.  Every malformed input --
    lengths that do not fit, buffer spans outside the payload, or a
    dangling buffer index -- raises :class:`TransportError`; nothing ever
    escapes as a raw ``struct.error`` or numpy exception.
    """
    total = len(data)
    pos = _preamble_end(data)
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

    def _attach(tensor: Dict[str, Any]) -> Dict[str, Any]:
        index = tensor["data"]
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < buffer_count:
            raise TransportError(
                f"binary tensor references buffer {index!r}; the frame "
                f"carries {buffer_count} buffer(s)"
            )
        out = dict(tensor)
        out["data"] = buffers[index]
        return out

    return rewrite_binary_tensors(preamble, _attach)


def decode_payload(data: bytes) -> Dict[str, Any]:
    """Decode one frame's payload bytes into an envelope dictionary.

    Binary payloads decode zero-copy: each tensor buffer becomes a
    memoryview slice over ``data``, which ``TensorPayload.to_array`` wraps
    with ``np.frombuffer``.
    """
    if frame_kind(data) == "binary":
        preamble, _ = peek_payload(data)
        return attach_buffers(data, preamble)
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise TransportError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class FrameDecoder:
    """Incremental frame decoder over an unbounded byte stream.

    Feed raw received bytes in any chunking; complete envelopes come out in
    order.  The buffered tail is bounded by ``max_frame_bytes`` + header: an
    announced length beyond the limit fails *before* the body is buffered,
    so a hostile peer cannot make this side hold unbounded memory.

    The decoder keeps codec counters for the telemetry layer:
    ``frames_json`` / ``frames_binary`` (decoded envelopes per payload
    kind), ``bytes_decoded`` (payload bytes of completed frames) and
    ``last_kind`` (the most recent frame's kind, or ``None``).

    ``raw=True`` defers payload decoding: :meth:`feed` returns the frame
    *bodies* (``bytes``) instead of envelopes, counters still tick per
    kind.  The server reader uses this so its pre-decode gate can
    :func:`peek_payload` a frame and shed it (quota, overload) before any
    tensor buffer is materialized; admitted binary bodies then go through
    :func:`attach_buffers`, so their preamble is parsed once.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES, raw: bool = False):
        self.max_frame_bytes = max_frame_bytes
        self.raw = raw
        self._buffer = bytearray()
        self.frames_json = 0
        self.frames_binary = 0
        self.bytes_decoded = 0
        self.last_kind: Any = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Any]:
        """Absorb received bytes; returns every frame completed by them
        (envelope dicts, or raw bodies in ``raw`` mode).

        Raises :class:`PayloadTooLargeError` on an oversized length prefix
        (the message names both the configured cap and the offending
        length) and :class:`TransportError` on a payload that is not a
        JSON object or a well-formed binary frame; both poison the stream
        (framing cannot be resynchronized), so the caller must drop the
        connection.
        """
        self._buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < FRAME_HEADER.size:
                return frames
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise _oversize_error("incoming", length, self.max_frame_bytes)
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[FRAME_HEADER.size : end])
            del self._buffer[:end]
            kind = frame_kind(body)
            frame: Any = body if self.raw else decode_payload(body)
            self.last_kind = kind
            self.bytes_decoded += len(body)
            if kind == "binary":
                self.frames_binary += 1
            else:
                self.frames_json += 1
            frames.append(frame)

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary.

        A peer that closed mid-frame left ``pending_bytes`` behind; that is
        a truncated stream, reported as :class:`TransportError`.
        """
        if self._buffer:
            raise TransportError(
                f"stream ended mid-frame with {len(self._buffer)} buffered byte(s)"
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
