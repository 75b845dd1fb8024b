"""Property-based round-trip and robustness suite of the wire protocol.

The contracts under test:

* **tensor payloads** survive ``to_wire -> json -> from_wire -> to_array``
  bit-exactly for every supported dtype, empty shapes and NaN/inf
  payloads, and the retired ``list`` encoding is refused typed;
* **envelopes** survive the same loop regardless of JSON field order;
* **framing** is chunking-invariant (any split of the byte stream decodes
  to the same envelopes, in order) and fails *closed*: truncated or
  corrupted frames raise an :class:`ApiError` member -- they never hang,
  never crash with a non-taxonomy exception, and never resynchronize onto
  garbage;
* **one schema version**: any other ``schema_version`` stamp is a typed
  ``schema_version`` error; ``negotiate_version`` picks
  ``min(client_max, server_max)`` across the whole (client range x server
  range) matrix, and a hello whose range leaves out this build's version
  fails with a ``schema_version`` error naming both ranges.

Everything is seeded and deterministic: hypothesis runs derandomized and
the direct fuzz loops use fixed-seed generators.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.envelopes import (
    SCHEMA_VERSION,
    ApiError,
    BadSchemaError,
    ExecuteBulkRequest,
    ExecuteGroup,
    HelloRequest,
    NormalizeBulkRequest,
    NormalizeRequest,
    PayloadTooLargeError,
    SchemaVersionError,
    StreamChunkRequest,
    TensorPayload,
    TransportError,
    negotiate_version,
    parse_hello_response,
    parse_request,
)
from repro.api.framing import (
    BINARY_MAGIC,
    FRAME_HEADER,
    FrameDecoder,
    attach_buffers,
    decode_payload,
    encode_frame,
    frame_kind,
    peek_payload,
)
from repro.api.handler import ApiHandler
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService

DTYPES = ("float64", "float32", "float16", "int64", "int32", "int8")


def _unreachable_loader(model_name, dataset):  # pragma: no cover
    raise AssertionError("protocol-level tests must not resolve models")


@pytest.fixture()
def handler():
    """A handler whose service is never asked to execute anything."""
    registry = CalibrationRegistry(loader=_unreachable_loader)
    with NormalizationService(registry=registry) as service:
        yield ApiHandler(service)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def tensor_arrays(draw) -> np.ndarray:
    """Arrays over every supported dtype/shape, NaN/inf/empty included."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(0, 4)) for _ in range(ndim))
    if dtype.kind == "f":
        elements = st.floats(
            allow_nan=True,
            allow_infinity=True,
            allow_subnormal=True,
            width=min(dtype.itemsize * 8, 64),
        )
    else:
        info = np.iinfo(dtype)
        elements = st.integers(int(info.min), int(info.max))
    flat = draw(
        st.lists(
            elements,
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return np.array(flat, dtype=dtype).reshape(shape)


def _shuffle_fields(wire: dict, rng: np.random.Generator) -> dict:
    """The same JSON object with a random key insertion order."""
    keys = list(wire)
    rng.shuffle(keys)
    return {key: wire[key] for key in keys}


def _json_loop(wire: dict) -> dict:
    return json.loads(json.dumps(wire))


# ---------------------------------------------------------------------------
# tensor payload round trips
# ---------------------------------------------------------------------------


class TestTensorPayloadProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(array=tensor_arrays())
    def test_base64_round_trip_is_bit_exact(self, array):
        wire = TensorPayload.from_array(array, "base64").to_wire()
        decoded = TensorPayload.from_wire(_json_loop(wire)).to_array()
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        # byte-level equality: NaN payloads and zero signs survive base64
        assert decoded.tobytes() == array.tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(array=tensor_arrays(), seed=st.integers(0, 2**16))
    def test_field_order_is_irrelevant(self, array, seed):
        rng = np.random.default_rng(seed)
        wire = _shuffle_fields(TensorPayload.from_array(array).to_wire(), rng)
        decoded = TensorPayload.from_wire(_json_loop(wire)).to_array()
        assert decoded.tobytes() == array.tobytes()

    def test_corrupt_base64_data_raises_bad_schema(self):
        wire = TensorPayload.from_array(np.arange(4.0)).to_wire()
        wire["data"] = "!!not base64!!"
        with pytest.raises(BadSchemaError, match="base64"):
            TensorPayload.from_wire(wire).to_array()

    def test_list_encoding_is_refused(self):
        with pytest.raises(ValueError, match="unknown tensor encoding 'list'"):
            TensorPayload.from_array(np.arange(4.0), "list")
        wire = {"dtype": "float64", "shape": [4], "encoding": "list", "data": [0.0, 1.0, 2.0, 3.0]}
        with pytest.raises(BadSchemaError, match="encoding 'list' is not supported"):
            TensorPayload.from_wire(wire)


# ---------------------------------------------------------------------------
# envelope round trips under random field order
# ---------------------------------------------------------------------------


class TestEnvelopeProperties:
    def _requests(self, rng):
        tensor = TensorPayload.from_array(rng.normal(size=(2, 6)))
        tensors = tuple(
            TensorPayload.from_array(rng.normal(size=(rows, 6))) for rows in (1, 3, 2)
        )
        yield NormalizeRequest(model="m", tensor=tensor, backend="reference")
        yield NormalizeBulkRequest(model="m", tensors=tensors, accelerator="haan-v2")
        yield StreamChunkRequest(
            model="m", tensor=tensor, stream_id=7, seq=3, final=True
        )
        yield ExecuteBulkRequest(
            spec={"kind": "layernorm", "hidden_size": 6},
            groups=(
                ExecuteGroup(rows=tensor),
                ExecuteGroup(
                    rows=tensor,
                    segment_starts=TensorPayload.from_array(np.array([0, 1])),
                    anchor_isd=TensorPayload.from_array(np.array([1.0, np.nan])),
                ),
            ),
            backend="reference",
        )
        yield HelloRequest(min_schema_version=1, max_schema_version=2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_every_v2_request_survives_shuffled_json(self, seed):
        rng = np.random.default_rng(seed)
        for request in self._requests(rng):
            wire = _shuffle_fields(request.to_wire(), rng)
            assert parse_request(_json_loop(wire)) == request

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        payload=st.dictionaries(
            st.sampled_from(
                [
                    "schema_version",
                    "op",
                    "request_id",
                    "model",
                    "tensor",
                    "tensors",
                    "ok",
                    "seq",
                    "stream_id",
                    "groups",
                    "spec",
                ]
            ),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-5, 5),
                st.text(max_size=8),
                st.lists(st.integers(0, 3), max_size=3),
                st.just(SCHEMA_VERSION),
                st.sampled_from(
                    ["normalize", "normalize_bulk", "stream", "execute_bulk", "hello"]
                ),
            ),
            max_size=8,
        )
    )
    def test_arbitrary_envelopes_parse_or_raise_api_error(self, payload):
        # The parser's whole failure surface is the ApiError taxonomy:
        # whatever JSON object arrives, it either decodes or raises a
        # taxonomy member -- nothing else escapes.
        try:
            parse_request(payload)
        except ApiError:
            pass

    @pytest.mark.parametrize(
        "version",
        [1, 2, SCHEMA_VERSION + 1, 3.0, "3", True, None],
        ids=["v1", "v2", "v4", "float", "string", "bool", "null"],
    )
    def test_other_schema_versions_are_rejected_typed(self, rng, version):
        tensor = TensorPayload.from_array(rng.normal(size=(1, 4)))
        for request in (
            NormalizeRequest(model="m", tensor=tensor),
            NormalizeBulkRequest(model="m", tensors=(tensor,)),
        ):
            wire = request.to_wire()
            wire["schema_version"] = version
            with pytest.raises(SchemaVersionError, match=f"only version {SCHEMA_VERSION}"):
                parse_request(wire)
        hello = HelloRequest().to_wire()
        hello["schema_version"] = version  # hello parses at any version
        assert parse_request(hello) == HelloRequest(request_id=hello["request_id"])


# ---------------------------------------------------------------------------
# framing: chunking invariance, truncation, corruption
# ---------------------------------------------------------------------------


def _random_chunks(data: bytes, rng: np.random.Generator):
    cuts = sorted(
        int(c) for c in rng.integers(0, len(data) + 1, size=int(rng.integers(0, 6)))
    )
    bounds = [0] + cuts + [len(data)]
    return [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class TestFramingProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), count=st.integers(1, 5))
    def test_any_chunking_decodes_the_same_envelopes(self, seed, count):
        rng = np.random.default_rng(seed)
        envelopes = [
            {"schema_version": SCHEMA_VERSION, "op": "ping", "request_id": i, "pad": "x" * int(rng.integers(0, 50))}
            for i in range(count)
        ]
        stream = b"".join(encode_frame(envelope) for envelope in envelopes)
        decoder = FrameDecoder()
        decoded = []
        for chunk in _random_chunks(stream, rng):
            decoded.extend(decoder.feed(chunk))
        decoder.finish()  # ended on a frame boundary
        assert decoded == envelopes
        assert decoder.pending_bytes == 0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_truncated_streams_fail_closed(self, seed):
        rng = np.random.default_rng(seed)
        frame = encode_frame(
            {"schema_version": SCHEMA_VERSION, "op": "ping", "request_id": 1}
        )
        cut = int(rng.integers(1, len(frame)))  # strict prefix
        decoder = FrameDecoder()
        assert decoder.feed(frame[:cut]) == []
        with pytest.raises(TransportError, match="mid-frame"):
            decoder.finish()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), flips=st.integers(1, 8))
    def test_corrupted_frames_raise_api_error_never_escape(self, seed, flips):
        rng = np.random.default_rng(seed)
        request = NormalizeRequest(
            model="m", tensor=TensorPayload.from_array(rng.normal(size=(2, 3)))
        )
        frame = bytearray(encode_frame(request.to_wire()))
        for position in rng.integers(0, len(frame), size=flips):
            frame[int(position)] ^= int(rng.integers(1, 256))
        decoder = FrameDecoder(max_frame_bytes=1 << 20)
        try:
            envelopes = decoder.feed(bytes(frame))
            decoder.finish()
            for envelope in envelopes:
                parse_request(envelope)
        except ApiError:
            pass  # the only acceptable failure surface

    def test_oversized_announced_length_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        header = FRAME_HEADER.pack(1 << 30)
        with pytest.raises(PayloadTooLargeError) as excinfo:
            decoder.feed(header)
        # The rejection names both the offending length and the configured
        # cap, so operators can size max_frame_bytes from the message alone.
        message = str(excinfo.value)
        assert str(1 << 30) in message
        assert "max_frame_bytes cap of 64 bytes" in message

    def test_non_object_json_frame_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        frame = FRAME_HEADER.pack(len(body)) + body
        with pytest.raises(TransportError, match="JSON object"):
            FrameDecoder().feed(frame)

    def test_non_utf8_frame_rejected(self):
        body = b"\xff\xfe\x00garbage"
        frame = FRAME_HEADER.pack(len(body)) + body
        with pytest.raises(TransportError, match="not valid JSON"):
            FrameDecoder().feed(frame)

    def test_handler_answers_corrupt_envelopes_with_error_frames(self, handler):
        # The dispatch layer shares the fail-closed contract: junk dicts in,
        # exactly one error envelope out (request_id echoed when salvageable).
        rng = np.random.default_rng(5)
        for _ in range(50):
            keys = rng.choice(
                ["schema_version", "op", "request_id", "model", "tensor"],
                size=int(rng.integers(0, 5)),
                replace=False,
            )
            junk = {
                key: (None, 1, "x", [2], {"a": 1})[int(rng.integers(0, 5))]
                for key in keys
            }
            response = handler.handle(junk)
            assert response["ok"] is False
            assert response["error"]["code"] in (
                "bad_schema",
                "schema_version",
                "internal",
            )


# ---------------------------------------------------------------------------
# binary frames: round trips, corruption, truncation
# ---------------------------------------------------------------------------


class TestBinaryFrameProperties:
    """The zero-copy binary frame shares the JSON frame's fail-closed contract."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(array=tensor_arrays(), seed=st.integers(0, 2**16))
    def test_binary_round_trip_through_chunked_frames_is_bit_exact(self, array, seed):
        # NaN/inf/empty/odd shapes all come from the shared strategy; the
        # frame is delivered in random chunks like a real TCP stream.
        rng = np.random.default_rng(seed)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "op": "normalize",
            "request_id": 7,
            "tensor": TensorPayload.from_array(array, "binary").to_wire(),
        }
        frame = encode_frame(envelope)
        assert frame[4:8] == BINARY_MAGIC
        decoder = FrameDecoder()
        decoded = []
        for chunk in _random_chunks(frame, rng):
            decoded.extend(decoder.feed(chunk))
        decoder.finish()
        assert len(decoded) == 1
        assert decoder.frames_binary == 1
        assert decoder.last_kind == "binary"
        out = TensorPayload.from_wire(decoded[0]["tensor"]).to_array()
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(arrays=st.lists(tensor_arrays(), min_size=2, max_size=4))
    def test_many_tensors_share_one_frame(self, arrays):
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "op": "normalize_bulk",
            "request_id": 1,
            "tensors": [TensorPayload.from_array(a, "binary").to_wire() for a in arrays],
        }
        (decoded,) = FrameDecoder().feed(encode_frame(envelope))
        for wire, original in zip(decoded["tensors"], arrays):
            assert TensorPayload.from_wire(wire).to_array().tobytes() == original.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), flips=st.integers(1, 8))
    def test_corrupted_binary_frames_fail_into_the_taxonomy(self, seed, flips):
        # Any byte-flip storm over a binary frame either still decodes (the
        # flip landed in tensor data) or raises an ApiError member -- never
        # a struct.error, UnicodeDecodeError, or numpy exception.
        rng = np.random.default_rng(seed)
        request = NormalizeRequest(
            model="m",
            tensor=TensorPayload.from_array(rng.normal(size=(3, 5)), "binary"),
        )
        frame = bytearray(encode_frame(request.to_wire()))
        for position in rng.integers(0, len(frame), size=flips):
            frame[int(position)] ^= int(rng.integers(1, 256))
        decoder = FrameDecoder(max_frame_bytes=1 << 20)
        try:
            envelopes = decoder.feed(bytes(frame))
            decoder.finish()
            for envelope in envelopes:
                parsed = parse_request(envelope)
                if hasattr(parsed, "tensor"):
                    parsed.tensor.to_array()
        except ApiError:
            pass  # the only acceptable failure surface

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_truncated_binary_frames_fail_closed(self, seed):
        rng = np.random.default_rng(seed)
        frame = encode_frame(
            {
                "schema_version": SCHEMA_VERSION,
                "op": "normalize",
                "request_id": 1,
                "tensor": TensorPayload.from_array(
                    rng.normal(size=(2, 4)), "binary"
                ).to_wire(),
            }
        )
        cut = int(rng.integers(1, len(frame)))  # strict prefix
        decoder = FrameDecoder()
        assert decoder.feed(frame[:cut]) == []
        with pytest.raises(TransportError, match="mid-frame"):
            decoder.finish()

    def test_forged_buffer_indices_are_rejected(self):
        # A JSON frame smuggling a binary descriptor (no buffer table to
        # index into) must fail closed at from_wire, not at np.frombuffer.
        wire = TensorPayload.from_array(np.arange(4.0), "binary").to_wire()
        wire["data"] = 0  # what a binary preamble uses internally
        with pytest.raises(BadSchemaError):
            TensorPayload.from_wire(_json_loop(wire))

    def test_binary_decode_is_zero_copy_and_read_only(self):
        array = np.arange(12.0).reshape(3, 4)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "op": "normalize",
            "request_id": 1,
            "tensor": TensorPayload.from_array(array, "binary").to_wire(),
        }
        (decoded,) = FrameDecoder().feed(encode_frame(envelope))
        out = TensorPayload.from_wire(decoded["tensor"]).to_array()
        assert out.base is not None  # a view over the frame, not a copy
        assert not out.flags.writeable
        assert np.array_equal(out, array)

    def test_chaos_corrupt_rule_applies_to_binary_envelopes(self):
        # The client-side corrupt rule mangles envelopes *before* encoding,
        # so a binary-tensor request is corrupted exactly like a JSON one
        # and the server answers with a typed schema error.
        from repro.chaos.plan import FaultPlan, FaultRule
        from repro.chaos.transport import ChaosTransport

        class _Capture:
            def __init__(self):
                self.sent = None

            def request(self, payload):
                self.sent = payload
                return {"ok": False, "error": {"code": "bad_schema", "message": "x"}}

            def close(self):
                pass

        inner = _Capture()
        plan = FaultPlan(
            name="t", seed=7, rules=(FaultRule(kind="corrupt", probability=1.0),)
        )
        chaos = ChaosTransport(inner, plan)
        request = NormalizeRequest(
            model="m", tensor=TensorPayload.from_array(np.arange(4.0), "binary")
        ).to_wire()
        chaos.request(request)
        assert inner.sent["op"].startswith("corrupted[")
        assert frame_kind(encode_frame(inner.sent)[4:]) == "binary"


# ---------------------------------------------------------------------------
# peek + attach_buffers: the server read path's one-parse binary decode
# ---------------------------------------------------------------------------


def _peek_then_attach(body: bytes) -> dict:
    """What the server read path does: gate on the peek, then attach."""
    payload, is_binary = peek_payload(body)
    return attach_buffers(body, payload) if is_binary else payload


def _outcome(decode, body: bytes):
    """The envelope, or the ApiError member a hostile body raised."""
    try:
        return decode(body)
    except ApiError as error:
        return type(error)


def _binary_body(
    preamble: bytes, table, buffers: bytes = b"", magic: bytes = BINARY_MAGIC,
    count=None,
) -> bytes:
    """A hand-assembled binary payload (no frame prefix), any field forged."""
    head = magic + struct.pack(">I", len(preamble)) + preamble
    head += struct.pack(">I", len(table) if count is None else count)
    for offset, length in table:
        head += struct.pack(">QQ", offset, length)
    return head + buffers


def _tensor_preamble(index) -> bytes:
    return json.dumps(
        {
            "op": "normalize",
            "tensor": {"encoding": "binary", "dtype": "float64", "shape": [1], "data": index},
        }
    ).encode()


def _hostile_bodies():
    """Forged binary payloads, each malformed in exactly one field."""
    good = _tensor_preamble(0)
    table_end = len(_binary_body(good, [(0, 0)]))
    return {
        "bad_magic": _binary_body(good, [(table_end, 8)], bytes(8), magic=b"\xabXX3"),
        "header_truncated": BINARY_MAGIC + b"\x00\x00",
        "preamble_overruns_payload": BINARY_MAGIC + struct.pack(">I", 1 << 20) + b"{}\x00\x00\x00\x00",
        "preamble_not_utf8": _binary_body(b"\xff\xfe", []),
        "preamble_not_json": _binary_body(b"{nope", []),
        "preamble_not_object": _binary_body(b"[1, 2]", []),
        "table_overruns_payload": _binary_body(good, [], count=1 << 28),
        "buffer_past_the_end": _binary_body(good, [(table_end, 64)], bytes(8)),
        "buffer_overlaps_table": _binary_body(good, [(0, 8)], bytes(8)),
        "dangling_buffer_index": _binary_body(_tensor_preamble(3), [(table_end, 8)], bytes(8)),
        "bool_buffer_index": _binary_body(_tensor_preamble(True), [(table_end, 8)], bytes(8)),
        "string_buffer_index": _binary_body(_tensor_preamble("0"), [(table_end, 8)], bytes(8)),
    }


class TestPeekThenAttachMatchesDecode:
    """``peek_payload`` + ``attach_buffers`` is one more input to the
    hostile-frame cases above: on every body it either decodes to exactly
    what :func:`decode_payload` returns or raises the same ApiError member."""

    def test_well_formed_binary_body_decodes_identically(self):
        array = np.arange(6.0).reshape(2, 3)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "op": "normalize_bulk",
            "request_id": 4,
            "tensors": [TensorPayload.from_array(array, "binary").to_wire()] * 2,
        }
        body = encode_frame(envelope)[FRAME_HEADER.size :]
        attached = _peek_then_attach(body)
        assert attached == decode_payload(body)
        for wire in attached["tensors"]:
            assert TensorPayload.from_wire(wire).to_array().tobytes() == array.tobytes()

    def test_attach_leaves_the_peeked_preamble_untouched(self):
        wire = TensorPayload.from_array(np.arange(3.0), "binary").to_wire()
        body = encode_frame({"op": "normalize", "tensor": wire})[FRAME_HEADER.size :]
        preamble, is_binary = peek_payload(body)
        assert is_binary
        attach_buffers(body, preamble)
        assert preamble["tensor"]["data"] == 0  # copy-on-write, not mutated

    @pytest.mark.parametrize("case", sorted(_hostile_bodies()))
    def test_forged_fields_fail_with_the_same_member(self, case):
        body = _hostile_bodies()[case]
        expected = _outcome(decode_payload, body)
        assert isinstance(expected, type) and issubclass(expected, ApiError)
        assert _outcome(_peek_then_attach, body) is expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), flips=st.integers(1, 8))
    def test_corrupted_binary_bodies_agree_with_decode(self, seed, flips):
        rng = np.random.default_rng(seed)
        request = NormalizeBulkRequest(
            model="m",
            tensors=(
                TensorPayload.from_array(rng.normal(size=(3, 5)), "binary"),
                TensorPayload.from_array(rng.normal(size=(1, 5)), "binary"),
            ),
        )
        body = bytearray(encode_frame(request.to_wire())[FRAME_HEADER.size :])
        for position in rng.integers(0, len(body), size=flips):
            body[int(position)] ^= int(rng.integers(1, 256))
        body = bytes(body)
        assert _outcome(_peek_then_attach, body) == _outcome(decode_payload, body)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_truncated_binary_bodies_agree_with_decode(self, seed):
        rng = np.random.default_rng(seed)
        body = encode_frame(
            NormalizeRequest(
                model="m",
                tensor=TensorPayload.from_array(rng.normal(size=(2, 4)), "binary"),
            ).to_wire()
        )[FRAME_HEADER.size :]
        cut = body[: int(rng.integers(1, len(body)))]  # strict prefix
        expected = _outcome(decode_payload, cut)
        assert expected is TransportError
        assert _outcome(_peek_then_attach, cut) is expected


# ---------------------------------------------------------------------------
# schema-version negotiation matrix
# ---------------------------------------------------------------------------


RANGES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]


class TestVersionNegotiation:
    @pytest.mark.parametrize("client_range", RANGES)
    @pytest.mark.parametrize("server_range", RANGES)
    def test_negotiation_matrix(self, client_range, server_range):
        cmin, cmax = client_range
        smin, smax = server_range
        overlaps = max(cmin, smin) <= min(cmax, smax)
        if overlaps:
            assert negotiate_version(cmin, cmax, smin, smax) == min(cmax, smax)
        else:
            with pytest.raises(SchemaVersionError) as excinfo:
                negotiate_version(cmin, cmax, smin, smax)
            message = str(excinfo.value)
            assert f"client speaks {cmin}..{cmax}" in message
            assert f"server speaks {smin}..{smax}" in message

    @pytest.mark.parametrize("client_range", RANGES)
    def test_hello_handshake_matrix_through_the_handler(self, handler, client_range):
        # The handler speaks exactly SCHEMA_VERSION: a client range holding
        # it gets it; any other range fails typed, naming both ranges.
        cmin, cmax = client_range
        hello = HelloRequest(min_schema_version=cmin, max_schema_version=cmax)
        response = handler.handle(hello.to_wire())
        if cmin <= SCHEMA_VERSION <= cmax:
            decoded = parse_hello_response(response)
            assert decoded.schema_version_chosen == SCHEMA_VERSION
            assert decoded.min_schema_version == decoded.max_schema_version == SCHEMA_VERSION
        else:
            assert response["ok"] is False
            assert response["error"]["code"] == "schema_version"
            message = response["error"]["message"]
            assert f"client speaks {cmin}..{cmax}" in message
            assert f"server speaks {SCHEMA_VERSION}..{SCHEMA_VERSION}" in message

    def test_empty_range_is_rejected(self):
        with pytest.raises(SchemaVersionError, match="empty"):
            negotiate_version(3, 2, 1, 2)

    def test_module_range_is_coherent(self):
        assert negotiate_version(
            SCHEMA_VERSION, SCHEMA_VERSION, SCHEMA_VERSION, SCHEMA_VERSION
        ) == SCHEMA_VERSION
