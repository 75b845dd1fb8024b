"""Concurrency and pipelining stress tests of the client/server API.

The contracts under test:

* **regression**: the v1 ``SocketTransport`` (one shared socket, no
  locking, no demultiplexing) hands a caller *whichever* response frame
  arrives next -- reproduced here over a raw socket and shown to
  cross-talk deterministically -- while the pooled transport routes every
  response to its requester by ``request_id``;
* **stress**: N threads sharing one pooled :class:`NormClient` against a
  live :class:`AsyncNormServer` each get responses bit-identical to the local
  reference engine, with zero cross-talk between interleaved requests;
* **out-of-order**: a server answering pipelined requests in reverse
  order still resolves every pending reply correctly;
* **restart**: killing the server mid-flight fails pending requests with
  :class:`TransportError` (never a hang, never a wrong payload) and the
  same client transparently reconnects to a restarted server on the same
  port.
"""

from __future__ import annotations

import select
import socket
import threading
import time

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import (
    SCHEMA_VERSION,
    PingRequest,
    TransportError,
)
from repro.api.framing import FrameDecoder, recv_frame, send_frame
from repro.api.transport import SocketTransport
from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.subsampling import SubsampleSettings
from repro.llm.normalization import LayerNorm
from repro.numerics.quantization import DataFormat
from repro.serving.registry import CalibrationArtifact, CalibrationRegistry
from repro.serving.service import NormalizationService

HIDDEN = 32


def _instant_loader(model_name, dataset):
    """Calibration-free artifact: one computed HAAN layer + its reference."""
    rng = np.random.default_rng(17)
    base = LayerNorm(hidden_size=HIDDEN, layer_index=0, name="conc.norm0")
    base.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
    haan = HaanNormalization(
        base, subsample=SubsampleSettings(length=8), data_format=DataFormat.INT8
    )
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        config=HaanConfig(subsample_length=8, data_format=DataFormat.INT8),
        calibration=None,
        haan_layers=[haan],
        reference_layers=[base],
    )


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


@pytest.fixture()
def golden_engine(registry):
    return registry.get("tiny", "default").layer(0).engine_for("reference")


@pytest.fixture()
def live_server(registry):
    svc = NormalizationService(registry=registry)
    server = AsyncNormServer(svc, max_inflight=64).start()
    yield server
    server.close()
    svc.close()


def _payload(thread: int, index: int, rows: int = 2) -> np.ndarray:
    """A payload unique to (thread, index): cross-talk cannot go unnoticed."""
    rng = np.random.default_rng(1000 * thread + index)
    return rng.normal(float(thread), 1.0, size=(rows, HIDDEN))


# ---------------------------------------------------------------------------
# regression: the v1 shared-socket transport cross-talks; the pool does not
# ---------------------------------------------------------------------------


class TestSharedSocketRegression:
    def test_v1_shared_socket_transport_cross_talks(self, live_server):
        """Reproduce the PR-4 defect deterministically.

        The old ``SocketTransport.request`` was ``send_frame`` then
        ``recv_frame`` on one shared socket with no locking and no
        request-id matching.  Two callers A and B interleaving on it:
        A sends, A's response arrives, then B sends and B reads -- B gets
        **A's** response.  This is exactly the old code path, minus the
        threads (the interleaving is forced, so the failure is
        deterministic, not a race that sometimes passes).
        """
        with socket.create_connection((live_server.host, live_server.port)) as sock:
            request_a = PingRequest()
            send_frame(sock, request_a.to_wire())
            # Wait until A's response bytes are buffered client-side, as
            # would happen whenever caller A is descheduled before reading.
            ready, _, _ = select.select([sock], [], [], 5.0)
            assert ready, "server never answered request A"
            time.sleep(0.05)  # let the whole frame land
            request_b = PingRequest()
            send_frame(sock, request_b.to_wire())
            response_for_b = recv_frame(sock)  # old code path for caller B
        assert response_for_b["request_id"] == request_a.request_id
        assert response_for_b["request_id"] != request_b.request_id

    def test_pooled_transport_routes_by_request_id(self, live_server):
        """The same forced interleaving through the pooled transport."""
        transport = SocketTransport(live_server.host, live_server.port)
        try:
            request_a = PingRequest()
            reply_a = transport.submit(request_a.to_wire())
            deadline = time.monotonic() + 5.0
            while not reply_a.done():  # A's response has arrived and parked
                assert time.monotonic() < deadline
                time.sleep(0.01)
            request_b = PingRequest()
            reply_b = transport.submit(request_b.to_wire())
            assert reply_b.result(5.0)["request_id"] == request_b.request_id
            assert reply_a.result(5.0)["request_id"] == request_a.request_id
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# stress: threads sharing one pooled client
# ---------------------------------------------------------------------------


class TestPooledClientStress:
    THREADS = 8
    REQUESTS = 12

    def test_threads_share_one_client_bit_equality(self, live_server, golden_engine):
        client = NormClient.connect(live_server.host, live_server.port, pool_size=3)
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(thread_id: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for index in range(self.REQUESTS):
                    payload = _payload(thread_id, index)
                    result = client.normalize(payload, "tiny")
                    expected = golden_engine.run(payload)[0]
                    if not np.array_equal(result.output, expected):
                        failures.append(
                            f"thread {thread_id} request {index}: cross-talk or "
                            f"corruption (outputs differ)"
                        )
                        return
            except Exception as error:  # noqa: BLE001 -- collected for the assert
                failures.append(f"thread {thread_id}: {type(error).__name__}: {error}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        try:
            assert not failures, failures
            assert all(not thread.is_alive() for thread in threads)
        finally:
            client.close()

    def test_mixed_bulk_stream_and_single_traffic(self, live_server, golden_engine):
        """Interleaved op kinds on one client stay request-accurate."""
        client = NormClient.connect(live_server.host, live_server.port, pool_size=2)
        failures = []

        def single(thread_id):
            for index in range(6):
                payload = _payload(thread_id, index)
                result = client.normalize(payload, "tiny")
                if not np.array_equal(result.output, golden_engine.run(payload)[0]):
                    failures.append(f"single[{thread_id}/{index}] mismatch")

        def bulk(thread_id):
            payloads = [_payload(thread_id, i) for i in range(5)]
            for result, payload in zip(
                client.normalize_bulk(payloads, "tiny"), payloads
            ):
                if not np.array_equal(result.output, golden_engine.run(payload)[0]):
                    failures.append(f"bulk[{thread_id}] mismatch")

        def stream(thread_id):
            chunks = [_payload(thread_id, i) for i in range(5)]
            for result, chunk in zip(
                client.stream(chunks, "tiny", depth=3), chunks
            ):
                if not np.array_equal(result.output, golden_engine.run(chunk)[0]):
                    failures.append(f"stream[{thread_id}] mismatch")

        threads = [
            threading.Thread(target=fn, args=(i,))
            for i, fn in enumerate((single, bulk, stream, single, bulk, stream))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        client.close()
        assert not failures, failures

    def test_pipelined_depth_preserves_payload_order(self, live_server, golden_engine):
        payloads = [_payload(0, index) for index in range(16)]
        with NormClient.connect(live_server.host, live_server.port) as client:
            results = client.normalize_many(payloads, "tiny", depth=8)
        for payload, result in zip(payloads, results):
            assert np.array_equal(result.output, golden_engine.run(payload)[0])

    def test_pool_never_exceeds_pool_size_under_concurrent_dials(self, live_server):
        """Racing first-callers must not blow past the connection bound."""
        transport = SocketTransport(live_server.host, live_server.port, pool_size=2)
        errors = []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(4):
                    request = PingRequest()
                    assert (
                        transport.submit(request.to_wire()).result(10.0)["request_id"]
                        == request.request_id
                    )
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        try:
            assert not errors, errors
            assert len(transport._connections) <= 2
            assert transport.stats()["connections"] <= 2
        finally:
            transport.close()

    def test_pool_stats_reflect_connections(self, live_server):
        client = NormClient.connect(live_server.host, live_server.port, pool_size=2)
        try:
            client.ping()
            stats = client.transport.stats()
            assert 1 <= stats["connections"] <= 2
            assert stats["negotiated_version"] == SCHEMA_VERSION
            assert stats["in_flight"] == 0
        finally:
            client.close()
        with pytest.raises(TransportError, match="closed"):
            client.ping()


# ---------------------------------------------------------------------------
# out-of-order responses (scripted server)
# ---------------------------------------------------------------------------


class TestOutOfOrderResponses:
    def test_reversed_responses_resolve_the_right_replies(self):
        """A server answering in reverse order still satisfies every reply."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        count = 3

        def stub_server():
            conn, _ = listener.accept()
            decoder = FrameDecoder()
            frames = []
            while len(frames) < count:
                frames.extend(decoder.feed(conn.recv(65536)))
            for request in reversed(frames):  # deterministic out-of-order
                send_frame(
                    conn,
                    {
                        "schema_version": SCHEMA_VERSION,
                        "op": "ping",
                        "ok": True,
                        "request_id": request["request_id"],
                        "backends": [],
                        "models": None,
                    },
                )
            conn.close()

        thread = threading.Thread(target=stub_server, daemon=True)
        thread.start()
        transport = SocketTransport("127.0.0.1", port, negotiate=False)
        try:
            requests = [PingRequest() for _ in range(count)]
            replies = [transport.submit(request.to_wire()) for request in requests]
            for request, reply in zip(requests, replies):
                assert reply.result(5.0)["request_id"] == request.request_id
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)


class TestTransportFailureModes:
    def _stub(self, script):
        """One-connection stub server running ``script(conn, frames)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            try:
                script(conn)
            finally:
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread

    def test_unroutable_error_frame_poisons_all_pending(self):
        """A request_id-less error frame fails everything in flight."""
        from repro.api.envelopes import ErrorResponse, PayloadTooLargeError

        def script(conn):
            decoder = FrameDecoder()
            frames = []
            while len(frames) < 2:
                frames.extend(decoder.feed(conn.recv(65536)))
            # what a real server sends when the stream is unsynchronizable
            send_frame(conn, ErrorResponse(code="payload_too_large", message="too big").to_wire())

        listener, thread = self._stub(script)
        transport = SocketTransport("127.0.0.1", listener.getsockname()[1], negotiate=False)
        try:
            replies = [transport.submit(PingRequest().to_wire()) for _ in range(2)]
            for reply in replies:
                with pytest.raises(PayloadTooLargeError, match="too big"):
                    reply.result(5.0)
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)

    def test_per_request_deadline_raises_transport_error(self):
        """A silent server trips the per-request deadline, never a hang."""

        def script(conn):
            decoder = FrameDecoder()
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                decoder.feed(data)  # read and ignore: never answer

        listener, thread = self._stub(script)
        transport = SocketTransport(
            "127.0.0.1", listener.getsockname()[1], timeout=0.2, negotiate=False
        )
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="failed after reconnect"):
                transport.request(PingRequest().to_wire())
            assert time.monotonic() - start < 5.0
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)

    def test_pipelined_path_inherits_transport_deadline(self):
        """normalize_many(depth>1) without an explicit timeout must not hang."""
        from repro.api.client import NormClient

        def script(conn):
            decoder = FrameDecoder()
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                decoder.feed(data)  # swallow everything, never answer

        listener, thread = self._stub(script)
        transport = SocketTransport(
            "127.0.0.1", listener.getsockname()[1], timeout=0.2, negotiate=False
        )
        client = NormClient(transport)
        try:
            start = time.monotonic()
            with pytest.raises(TransportError):
                client.normalize_many(
                    [np.zeros((1, HIDDEN))] * 3, "tiny", depth=3
                )
            assert time.monotonic() - start < 5.0
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5.0)

    def _hello_stub(self, reply, received):
        """A stub that answers the hello with ``reply(hello)``, then records
        every later frame in ``received`` until the client hangs up."""

        def script(conn):
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(conn.recv(65536))
            hello, *later = frames
            received.append(hello)
            send_frame(conn, reply(hello))
            received.extend(later)
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                received.extend(decoder.feed(data))

        return self._stub(script)

    @pytest.mark.parametrize(
        "reply",
        [
            lambda hello: {
                "schema_version": SCHEMA_VERSION, "op": "hello", "ok": True,
                "request_id": hello["request_id"], "schema_version_chosen": "3",
            },
            lambda hello: {  # what a build without the hello op answers
                "schema_version": 1, "op": "error", "ok": False,
                "request_id": hello["request_id"],
                "error": {"code": "bad_schema", "message": "unknown op 'hello'"},
            },
        ],
        ids=["malformed-hello-reply", "unknown-op-hello"],
    )
    def test_bad_hello_reply_fails_the_connect_typed(self, reply):
        """No silent fallback session: the connect raises BadSchemaError
        and nothing but the hello ever reaches the server."""
        from repro.api.envelopes import BadSchemaError, SchemaVersionError

        received = []
        listener, thread = self._hello_stub(reply, received)
        transport = SocketTransport("127.0.0.1", listener.getsockname()[1], timeout=2.0)
        try:
            with pytest.raises(BadSchemaError) as excinfo:
                transport.request(PingRequest().to_wire())
            assert not isinstance(excinfo.value, SchemaVersionError)
            assert transport.negotiated_version is None
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)
        (hello,) = received
        assert hello["op"] == "hello"
        assert hello["schema_version"] == SCHEMA_VERSION
        assert hello["min_schema_version"] == hello["max_schema_version"] == SCHEMA_VERSION

    def test_server_range_without_this_version_fails_the_connect_typed(self):
        """Client end of a disjoint range: both ranges named, no request sent."""
        from repro.api.envelopes import SchemaVersionError

        received = []
        listener, thread = self._hello_stub(
            lambda hello: {
                "schema_version": SCHEMA_VERSION + 1, "op": "hello", "ok": True,
                "request_id": hello["request_id"],
                "schema_version_chosen": SCHEMA_VERSION + 1,
                "min_schema_version": SCHEMA_VERSION + 1,
                "max_schema_version": SCHEMA_VERSION + 2,
                "backends": [],
            },
            received,
        )
        transport = SocketTransport("127.0.0.1", listener.getsockname()[1], timeout=2.0)
        try:
            with pytest.raises(SchemaVersionError) as excinfo:
                transport.request(PingRequest().to_wire())
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)
        message = str(excinfo.value)
        assert f"client speaks {SCHEMA_VERSION}..{SCHEMA_VERSION}" in message
        assert f"server speaks {SCHEMA_VERSION + 1}..{SCHEMA_VERSION + 2}" in message
        assert [frame["op"] for frame in received] == ["hello"]

    def test_timed_out_requests_leave_no_pending_registration(self):
        """Abandoned requests are withdrawn from the in-flight map."""

        def script(conn):
            decoder = FrameDecoder()
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                decoder.feed(data)  # never answer

        listener, thread = self._stub(script)
        transport = SocketTransport(
            "127.0.0.1", listener.getsockname()[1], timeout=0.2, negotiate=False
        )
        try:
            for _ in range(3):
                with pytest.raises(TransportError):
                    transport.request(PingRequest().to_wire())
            assert transport.stats()["in_flight"] == 0
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)

    def test_socket_level_version_negotiation_rejects_disjoint_ranges(
        self, live_server
    ):
        """Server end: a hello from the future fails typed, naming both ranges."""
        from repro.api.envelopes import HelloRequest

        hello = HelloRequest(
            min_schema_version=SCHEMA_VERSION + 1, max_schema_version=SCHEMA_VERSION + 2
        ).to_wire()
        hello["schema_version"] = SCHEMA_VERSION + 1
        with socket.create_connection((live_server.host, live_server.port), timeout=5.0) as sock:
            send_frame(sock, hello)
            refusal = recv_frame(sock)
        assert refusal["ok"] is False
        assert refusal["request_id"] == hello["request_id"]
        assert refusal["error"]["code"] == "schema_version"
        message = refusal["error"]["message"]
        assert f"client speaks {SCHEMA_VERSION + 1}..{SCHEMA_VERSION + 2}" in message
        assert f"server speaks {SCHEMA_VERSION}..{SCHEMA_VERSION}" in message


# ---------------------------------------------------------------------------
# server restart mid-flight
# ---------------------------------------------------------------------------


class TestServerRestartMidFlight:
    def test_pending_requests_fail_clean_and_client_reconnects(
        self, registry, golden_engine
    ):
        svc = NormalizationService(registry=registry)
        server = AsyncNormServer(svc).start()
        port = server.port
        client = NormClient.connect(server.host, port, pool_size=2)
        try:
            warmup = _payload(9, 0)
            assert np.array_equal(
                client.normalize(warmup, "tiny").output, golden_engine.run(warmup)[0]
            )
            payloads = [_payload(7, index) for index in range(8)]
            handles = [client.submit_normalize(p, "tiny") for p in payloads]
            server.close()  # mid-flight: some handles may be unanswered
            svc.close()
            outcomes = {"ok": 0, "failed": 0}
            for payload, handle in zip(payloads, handles):
                try:
                    result = handle.result(10.0)
                except TransportError:
                    outcomes["failed"] += 1  # clean failure, never a hang
                else:
                    # answered before the shutdown: must still be *correct*
                    assert np.array_equal(
                        result.output, golden_engine.run(payload)[0]
                    )
                    outcomes["ok"] += 1
            assert outcomes["ok"] + outcomes["failed"] == len(payloads)

            # The same client object recovers against a restarted server on
            # the same port (transparent redial through the pool).
            svc2 = NormalizationService(registry=registry)
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    server2 = AsyncNormServer(svc2, port=port).start()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            try:
                after = _payload(9, 1)
                assert np.array_equal(
                    client.normalize(after, "tiny").output,
                    golden_engine.run(after)[0],
                )
                assert client.transport.stats()["reconnects"] >= 1
                # the redial re-ran the hello against the restarted server
                assert client.negotiated_version() == SCHEMA_VERSION
            finally:
                server2.close()
                svc2.close()
        finally:
            client.close()
