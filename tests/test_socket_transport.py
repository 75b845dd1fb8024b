"""The TCP transport is the only client wire: its contracts, end to end.

Contracts pinned here:

* ``socket`` is the registered client wire; the retired ``shm`` name and
  ``connect(transport=...)`` are gone, not silently accepted;
* one schema version: on one raw connection a hello exactly as the
  previous build sends it (stamped 1, range 1..3) negotiates 3, a
  v2-stamped request and a ``list``-encoded tensor are typed errors that
  echo their ``request_id``, and the connection then serves a v3 request
  bit-identically; and every request frame of the retired wire corpus
  (v1, v2 and ``list`` frames, sent as the previous build encoded them)
  is answered typed with its ``request_id`` -- a hello negotiates 3 --
  and the connection keeps serving;
* both tensor encodings (``binary``, ``base64``) are bit-identical to
  in-process across shapes and over the single, bulk and stream ops, and
  a payload far larger than the socket buffers rides inline in one
  binary frame;
* byte accounting: the bytes the server reads match the encoding's cost
  (binary ~1x the tensor bytes, base64 ~4/3x);
* frames of the retired shared-memory tier fail closed: ``shm_release``
  is an unknown op and an ``shm``-encoded tensor is a typed
  ``bad_schema`` error echoing the request_id, and the connection keeps
  serving;
* closing a client closes its server-side connection.
"""

from __future__ import annotations

import base64
import socket
import time

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import (
    SCHEMA_VERSION,
    HelloRequest,
    NormalizeBulkRequest,
    NormalizeRequest,
    PingRequest,
    TensorPayload,
    parse_hello_response,
    parse_response,
)
from repro.api.framing import FrameDecoder, encode_frame, recv_frame
from repro.api.transport import SocketTransport, available_transports, create_transport
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService

from test_api import _instant_loader
from test_wire_corpus import RETIRED, _entry_id, retired_error_code

RETIRED_REQUESTS = [e for e in RETIRED if e["kind"] == "request"]

HIDDEN = 48


@pytest.fixture(scope="module")
def registry():
    return CalibrationRegistry(loader=_instant_loader)


@pytest.fixture()
def server(registry):
    with NormalizationService(registry=registry) as service:
        with AsyncNormServer(service) as srv:
            yield srv


def _golden(registry, payload):
    with NormClient.in_process(registry=registry) as client:
        return client.normalize(payload, "tiny").output


def _raw_exchange(server, frames):
    """Send each frame on one raw connection and read one reply for each."""
    replies = []
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        for frame in frames:
            sock.sendall(encode_frame(frame))
            replies.append(recv_frame(sock))
    return replies


def _shm_tensor(rows):
    return {
        "encoding": "shm",
        "dtype": "float64",
        "shape": [rows, HIDDEN],
        "data": {"offset": 0, "length": rows * HIDDEN * 8},
    }


# ---------------------------------------------------------------------------
# the transport registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_socket_registered_and_creatable_by_name(self, server):
        assert "socket" in available_transports()
        transport = create_transport("socket", host=server.host, port=server.port)
        try:
            assert isinstance(transport, SocketTransport)
            with NormClient(transport) as client:
                assert client.normalize(np.ones((1, HIDDEN)), "tiny").output.shape == (1, HIDDEN)
        finally:
            transport.close()

    def test_shm_is_not_a_registered_transport(self):
        assert "shm" not in available_transports()
        with pytest.raises(ValueError, match="unknown transport 'shm'"):
            create_transport("shm", host="127.0.0.1", port=1)

    def test_connect_has_no_transport_option(self, server):
        with pytest.raises(TypeError, match="transport"):
            NormClient.connect(server.host, server.port, transport="shm")


# ---------------------------------------------------------------------------
# one schema version
# ---------------------------------------------------------------------------


class TestOneSchemaVersion:
    def test_old_hello_negotiates_and_old_frames_fail_typed(self, server, registry):
        previous_hello = HelloRequest(
            min_schema_version=1, max_schema_version=3, request_id=20
        ).to_wire()
        previous_hello["schema_version"] = 1  # how the previous build stamps it
        payload = np.random.default_rng(5).normal(size=(3, HIDDEN))
        v2_request = NormalizeRequest(
            model="tiny", tensor=TensorPayload.from_array(payload), request_id=21
        ).to_wire()
        v2_request["schema_version"] = 2
        list_request = NormalizeRequest(
            model="tiny", tensor=TensorPayload.from_array(payload), request_id=22
        ).to_wire()
        list_request["tensor"] = {
            "dtype": "float64", "shape": [3, HIDDEN], "encoding": "list",
            "data": payload.tolist(),
        }
        v3_request = NormalizeRequest(
            model="tiny", tensor=TensorPayload.from_array(payload, "binary"), request_id=23
        ).to_wire()
        hello, v2_refusal, list_refusal, reply = _raw_exchange(
            server, [previous_hello, v2_request, list_request, v3_request]
        )
        assert parse_hello_response(hello).schema_version_chosen == SCHEMA_VERSION
        for refusal, request_id, code in (
            (v2_refusal, 21, "schema_version"),
            (list_refusal, 22, "bad_schema"),
        ):
            assert refusal["ok"] is False
            assert refusal["request_id"] == request_id
            assert refusal["error"]["code"] == code
        assert reply["request_id"] == 23
        artifact = registry.get("tiny", "default")
        golden = artifact.layer(0).engine_for("reference").run(payload)[0]
        np.testing.assert_array_equal(
            parse_response(reply, "normalize").tensor.to_array(), golden
        )

    @pytest.mark.parametrize(
        "entry", RETIRED_REQUESTS, ids=[_entry_id(e) for e in RETIRED_REQUESTS]
    )
    def test_retired_request_frame_is_answered_typed_and_the_connection_serves_on(
        self, server, entry
    ):
        frame = base64.b64decode(entry["frame"])
        (sent,) = FrameDecoder().feed(frame)
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(frame)
            answer = recv_frame(sock)
            sock.sendall(encode_frame(PingRequest(request_id=99).to_wire()))
            pong = recv_frame(sock)
        if entry["op"] == "hello":
            assert parse_hello_response(answer).schema_version_chosen == SCHEMA_VERSION
        else:
            assert answer["ok"] is False
            assert answer["error"]["code"] == retired_error_code(entry)
        assert answer["request_id"] == sent["request_id"]
        assert parse_response(pong, "ping").request_id == 99


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


class TestParity:
    @pytest.mark.parametrize("encoding", ["binary", "base64"])
    def test_bit_identical_to_in_process_across_shapes(self, server, registry, encoding):
        rng = np.random.default_rng(3)
        payloads = [rng.normal(size=(rows, HIDDEN)) for rows in (1, 2, 17)]
        golden = [_golden(registry, payload) for payload in payloads]
        with NormClient.connect(server.host, server.port) as client:
            for payload, expected in zip(payloads, golden):
                result = client.normalize(payload, "tiny", encoding=encoding)
                np.testing.assert_array_equal(result.output, expected)
            bulk = client.normalize_bulk(payloads, "tiny", encoding=encoding)
            for item, expected in zip(bulk, golden):
                np.testing.assert_array_equal(item.output, expected)
            streamed = client.stream(iter(payloads), "tiny", encoding=encoding)
            for item, expected in zip(streamed, golden):
                np.testing.assert_array_equal(item.output, expected)

    def test_payload_larger_than_socket_buffers_rides_inline(self, server, registry):
        # 8192 x 48 float64 = 3 MiB each way: many socket buffers' worth.
        payload = np.random.default_rng(1).normal(size=(8192, HIDDEN))
        with NormClient.connect(server.host, server.port) as client:
            result = client.normalize(payload, "tiny")
        np.testing.assert_array_equal(result.output, _golden(registry, payload))
        snapshot = server.wire_snapshot()
        assert snapshot["frames_binary"] >= 1
        assert snapshot["bytes_received"] >= payload.nbytes


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------


class TestByteAccounting:
    @pytest.mark.parametrize(
        "encoding,low,high", [("binary", 1.0, 1.1), ("base64", 1.3, 1.45)]
    )
    def test_bytes_read_match_the_encoding_cost(self, server, encoding, low, high):
        rows = np.random.default_rng(0).normal(size=(512, HIDDEN))  # 192 KiB
        with NormClient.connect(server.host, server.port) as client:
            client.wait_until_ready()
            before = server.wire_snapshot()["bytes_received"]
            client.normalize(rows, "tiny", encoding=encoding)
            ratio = (server.wire_snapshot()["bytes_received"] - before) / rows.nbytes
        assert low <= ratio <= high


# ---------------------------------------------------------------------------
# frames of the retired shared-memory tier fail closed
# ---------------------------------------------------------------------------


class TestRetiredShmFrames:
    def test_shm_release_is_an_unknown_op_and_the_connection_serves(self, server):
        release = {"schema_version": 3, "op": "shm_release", "request_id": 7, "slabs": [0, 64]}
        ping = {"schema_version": 3, "op": "ping", "request_id": 8}
        refusal, pong = _raw_exchange(server, [release, ping])
        assert refusal["ok"] is False
        assert refusal["request_id"] == 7
        assert refusal["error"]["code"] == "bad_schema"
        assert pong["ok"] is True and pong["request_id"] == 8

    @pytest.mark.parametrize("op", ["normalize", "normalize_bulk"])
    def test_shm_encoded_tensor_is_rejected_typed(self, server, registry, op):
        if op == "normalize":
            stale = NormalizeRequest(
                model="tiny", tensor=TensorPayload.from_array(np.ones((2, HIDDEN))), request_id=11
            ).to_wire()
            stale["tensor"] = _shm_tensor(2)
        else:
            stale = NormalizeBulkRequest(
                model="tiny",
                tensors=[TensorPayload.from_array(np.ones((2, HIDDEN)))],
                request_id=11,
            ).to_wire()
            stale["tensors"] = [_shm_tensor(2)]
        payload = np.random.default_rng(2).normal(size=(2, HIDDEN))
        follow = NormalizeRequest(
            model="tiny",
            tensor=TensorPayload.from_array(payload, encoding="base64"),
            request_id=12,
        ).to_wire()
        refusal, reply = _raw_exchange(server, [stale, follow])
        assert refusal["ok"] is False
        assert refusal["request_id"] == 11
        assert refusal["error"]["code"] == "bad_schema"
        assert reply["request_id"] == 12
        np.testing.assert_array_equal(
            parse_response(reply, "normalize").tensor.to_array(), _golden(registry, payload)
        )


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_client_close_closes_the_server_connection(self, server):
        client = NormClient.connect(server.host, server.port)
        client.normalize(np.zeros((1, HIDDEN)), "tiny")
        assert server.wire_snapshot()["connections_active"] == 1
        client.close()
        deadline = time.monotonic() + 5.0
        while server.wire_snapshot()["connections_active"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.wire_snapshot()["connections_active"] == 0
