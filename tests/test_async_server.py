"""Tests of the asyncio server core (``AsyncNormServer``).

The core contract: every response bit-identical to the reference
backend, every error a typed member of the taxonomy -- while the event
loop holds hundreds of idle connections without a thread each.

Covered here:

* bit-identity of single / bulk / stream / pipelined traffic against the
  reference backend;
* the error taxonomy (unknown model, payload-shape rejection, a
  non-string ``op``) and typed ``DeadlineExceededError`` for budget-expired
  requests;
* hundreds of idle connections held open while golden-checked traffic
  flows on another connection;
* graceful drain: in-flight work answered, post-drain work refused;
* the tenancy handshake (token auth, typed rejection) and the chaos
  ``FaultGate`` contract on the server core;
* one thread per server: every op's ``begin`` and ``finish`` run on the
  loop thread (serving ops over binary and JSON frames too), and the
  scheduler futures of neither an ``execute`` frame nor a bulk frame need
  a cross-thread wake;
* the engine tick: kernels run on the loop thread, the server starts no
  thread but its loop's, a thread calling the service directly beside live
  wire traffic resolves wire requests safely, and a drained close answers
  work queued behind a pending tick;
* tenant metering lands before the response frame is written.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer, _CountDown
from repro.api.client import NormClient
from repro.api.envelopes import (
    OPS,
    ApiError,
    AuthenticationError,
    BadSchemaError,
    DeadlineExceededError,
    UnknownModelError,
)
from repro.chaos.gate import FaultGate
from repro.chaos.plan import FaultPlan, FaultRule
from repro.serving.batcher import ResponseFuture
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService
from repro.tenancy import QuotaPolicy, TenancyController, TenantDirectory, TenantSpec

from test_api import _instant_loader

HIDDEN = 48


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


def _service(registry):
    return NormalizationService(registry=registry)


def _rows(rng, count=5):
    return rng.normal(0.0, 1.5, size=(count, HIDDEN))


def _golden(registry, payload):
    layer = registry.get("tiny", "default").layer(0)
    return layer.engine_for("reference").run(np.asarray(payload, dtype=np.float64))[0]


def _controller(require_auth=False):
    directory = TenantDirectory(
        tenants=[TenantSpec(name="acme", token="tok-acme", tier="metered")],
        tiers={"metered": QuotaPolicy(requests_per_s=1000.0, burst_seconds=1.0)},
        require_auth=require_auth,
    )
    return TenancyController(directory=directory)


# ---------------------------------------------------------------------------
# bit-identity against the reference backend
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_single_bulk_and_stream_bit_identical(self, registry, rng):
        payload = _rows(rng)
        bulk = [_rows(rng, 3), _rows(rng, 2)]
        chunks = [_rows(rng, 2), _rows(rng, 4)]

        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                single = client.normalize(payload, "tiny").output
                bulk_out = [r.output for r in client.normalize_bulk(bulk, "tiny")]
                stream_out = [r.output for r in client.stream(iter(chunks), "tiny")]
        service.close()

        np.testing.assert_array_equal(single, _golden(registry, payload))
        for got, sent in zip(bulk_out + stream_out, bulk + chunks):
            np.testing.assert_array_equal(got, _golden(registry, sent))

    def test_pipelined_submissions_bit_identical(self, registry, rng):
        payloads = [_rows(rng, i + 1) for i in range(8)]
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                handles = [
                    client.submit_normalize(payload, "tiny") for payload in payloads
                ]
                for handle, payload in zip(handles, payloads):
                    result = handle.result(timeout=10.0)
                    np.testing.assert_array_equal(
                        result.output, _golden(registry, payload)
                    )
        service.close()

    def test_wire_snapshot_reports_the_live_connection(self, registry, rng):
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                client.normalize(_rows(rng), "tiny")
                # Snapshot while the connection is live so its gauge row
                # exists.
                snapshot = server.wire_snapshot()
        service.close()
        assert snapshot["connections_active"] == 1
        assert snapshot["requests_served"] >= 1
        (row,) = snapshot["per_connection"]
        assert set(row) == {
            "id", "inflight", "peak_inflight", "frames",
            "backpressure_waits", "bytes_in", "bytes_out", "encoding",
        }
        assert row["frames"] >= 1
        assert row["bytes_in"] > 0 and row["bytes_out"] > 0


class TestErrorTaxonomy:
    def test_unknown_model_typed(self, rng):
        def _refusing_loader(model_name, dataset):
            raise KeyError(f"unknown model {model_name!r}")

        payload = _rows(rng)
        service = NormalizationService(
            registry=CalibrationRegistry(loader=_refusing_loader)
        )
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(UnknownModelError):
                    client.normalize(payload, "nope")
        service.close()

    def test_bad_width_typed(self, registry):
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(BadSchemaError, match="width"):
                    client.normalize(np.ones((2, 8)), "tiny")
        service.close()

    def test_infeasible_deadline_shed_typed_at_the_gate(self, registry, rng):
        """The pre-decode admission gate sheds a deadline below its
        service-time estimate before any tensor decode, with retry_after."""
        service = _service(registry)
        with AsyncNormServer(service) as server:
            from repro.api.envelopes import OverloadedError
            from repro.api.retry import RetryPolicy

            with NormClient.connect(
                server.host, server.port, retry_policy=RetryPolicy(max_attempts=1)
            ) as client:
                with pytest.raises(OverloadedError, match="cannot be met"):
                    client.normalize(_rows(rng), "tiny", deadline_ms=0.0005)
        service.close()

    def test_expired_deadline_sheds_typed_over_the_wire(self, registry, rng):
        """A microsecond budget admitted by the gate (its service-time
        estimate forced to ~0) is always gone by the first engine tick:
        the continuous scheduler sheds it and the client sees the typed
        DeadlineExceededError, never a silent late result."""
        from repro.api.admission import AdmissionController

        service = _service(registry)
        admission = AdmissionController(initial_service_time=1e-9, ema_alpha=1e-6)
        with AsyncNormServer(service, admission=admission) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.normalize(_rows(rng), "tiny", deadline_ms=0.0005)
                # The connection survives the shed: later work still serves.
                payload = _rows(rng)
                result = client.normalize(payload, "tiny")
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
        service.close()

    @pytest.mark.parametrize("op", [[1], {"op": "normalize"}, 7])
    def test_non_string_op_answers_bad_schema_and_keeps_the_connection(
        self, registry, op
    ):
        """An unhashable (or otherwise non-string) ``op`` gets a typed
        ``bad_schema`` envelope echoing its request_id; the connection
        keeps serving."""
        from repro.api.framing import encode_frame, recv_frame

        service = _service(registry)
        with AsyncNormServer(service) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5.0
            ) as sock:
                sock.sendall(
                    encode_frame({"schema_version": 3, "op": op, "request_id": 41})
                )
                reply = recv_frame(sock)
                sock.sendall(
                    encode_frame({"schema_version": 3, "op": "ping", "request_id": 42})
                )
                pong = recv_frame(sock)
        service.close()
        assert reply["ok"] is False
        assert reply["request_id"] == 41
        assert reply["error"]["code"] == "bad_schema"
        assert pong["ok"] is True and pong["request_id"] == 42

    def test_retired_shm_attach_is_refused_typed_and_the_connection_serves(
        self, registry, rng
    ):
        """A v3 client of the retired shared-memory transport opens with
        ``shm_attach``: it gets a typed ``bad_schema`` error echoing its
        request_id (read as a refusal: it stays on TCP), and a normalize on
        the same connection is bit-identical to the in-process result."""
        from repro.api.envelopes import NormalizeRequest, TensorPayload, parse_response
        from repro.api.framing import encode_frame, recv_frame

        payload = _rows(rng)
        attach = {
            "schema_version": 3,
            "op": "shm_attach",
            "request_id": 0,
            "tx": {"name": "psm_client_tx", "size": 1 << 20},
            "rx": {"name": "psm_client_rx", "size": 1 << 20},
        }
        normalize = NormalizeRequest(
            model="tiny",
            tensor=TensorPayload.from_array(payload, encoding="binary"),
            request_id=1,
        )
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5.0
            ) as sock:
                sock.sendall(encode_frame(attach))
                refusal = recv_frame(sock)
                sock.sendall(encode_frame(normalize.to_wire()))
                reply = recv_frame(sock)
        service.close()
        assert refusal["ok"] is False
        assert refusal["request_id"] == 0
        assert refusal["error"]["code"] == "bad_schema"
        assert reply["request_id"] == 1
        with NormClient.in_process(registry=registry) as client:
            expected = client.normalize(payload, "tiny").output
        np.testing.assert_array_equal(
            parse_response(reply, "normalize").tensor.to_array(), expected
        )


# ---------------------------------------------------------------------------
# idle-connection scale + drain
# ---------------------------------------------------------------------------


class TestConnectionScale:
    def test_hundreds_of_idle_connections_while_traffic_flows(self, registry, rng):
        idle_target = 200
        service = _service(registry)
        server = AsyncNormServer(service).start()
        idle = []
        try:
            for _ in range(idle_target):
                sock = socket.create_connection((server.host, server.port), timeout=5.0)
                idle.append(sock)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.wire_snapshot()["connections_active"] >= idle_target:
                    break
                time.sleep(0.02)
            snapshot = server.wire_snapshot()
            assert snapshot["connections_active"] >= idle_target
            with NormClient.connect(server.host, server.port) as client:
                for _ in range(5):
                    payload = _rows(rng)
                    result = client.normalize(payload, "tiny")
                    np.testing.assert_array_equal(
                        result.output, _golden(registry, payload)
                    )
        finally:
            for sock in idle:
                sock.close()
            server.close()
            service.close()

    def test_drain_answers_inflight_then_refuses_new_connections(self, registry, rng):
        service = _service(registry)
        server = AsyncNormServer(service).start()
        payload = _rows(rng)
        try:
            with NormClient.connect(server.host, server.port) as client:
                result = client.normalize(payload, "tiny")
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
            server.close(drain_timeout=2.0)
            with pytest.raises(OSError):
                socket.create_connection((server.host, server.port), timeout=0.5).close()
        finally:
            server.close()
            service.close()

    def test_drain_flushes_concurrent_traffic(self, registry, rng):
        """Requests racing close(drain) either complete bit-identically or
        fail typed/with a transport error -- never hang, never corrupt."""
        service = _service(registry)
        server = AsyncNormServer(service).start()
        payloads = [_rows(rng) for _ in range(16)]
        outcomes = []

        def pump():
            try:
                with NormClient.connect(server.host, server.port) as client:
                    for payload in payloads:
                        got = client.normalize(payload, "tiny")
                        np.testing.assert_array_equal(
                            got.output, _golden(registry, payload)
                        )
                        outcomes.append("ok")
            except Exception as error:  # noqa: BLE001 -- recorded for assert
                outcomes.append(type(error).__name__)

        thread = threading.Thread(target=pump)
        try:
            thread.start()
            time.sleep(0.05)
            server.close(drain_timeout=5.0)
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "client hung across a drained close"
            assert outcomes, "pump thread recorded nothing"
            assert outcomes.count("ok") >= 1
        finally:
            server.close()
            service.close()

    def test_close_is_idempotent_and_snapshot_survives(self, registry, rng):
        service = _service(registry)
        server = AsyncNormServer(service).start()
        with NormClient.connect(server.host, server.port) as client:
            client.normalize(_rows(rng), "tiny")
        server.close(drain_timeout=1.0)
        server.close()
        snapshot = server.wire_snapshot()
        assert snapshot["requests_served"] >= 1
        assert snapshot["connections_active"] == 0
        service.close()

    def test_close_leaves_no_accepted_socket_open(self, registry):
        """Connections accepted in the loop iteration that closes the server
        still get a FIN, without waiting for the garbage collector."""
        service = _service(registry)
        server = AsyncNormServer(service).start()
        entered, gate = threading.Event(), threading.Event()
        clients = []
        closer = threading.Thread(target=server.close)
        gc_was_enabled = gc.isenabled()
        gc.disable()  # a leaked socket sits in a reference cycle
        try:
            # Hold the loop, queue the shutdown, then let connections arrive:
            # the loop accepts them in the same iteration that starts closing.
            server._loop.call_soon_threadsafe(lambda: (entered.set(), gate.wait(5.0)))
            assert entered.wait(5.0)
            clients = [
                socket.create_connection((server.host, server.port), timeout=5.0)
                for _ in range(4)
            ]
            closer.start()
            time.sleep(0.1)
            gate.set()
            closer.join(timeout=15.0)
            assert not closer.is_alive()
            for sock in clients:
                sock.settimeout(2.0)
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
        finally:
            gate.set()
            if gc_was_enabled:
                gc.enable()
            for sock in clients:
                sock.close()
            server.close()
            service.close()


# ---------------------------------------------------------------------------
# tenancy + chaos on the async core
# ---------------------------------------------------------------------------


class TestAsyncTenancy:
    def test_require_auth_rejects_tokenless_work_typed(self, registry, rng):
        service = _service(registry)
        with AsyncNormServer(service, tenancy=_controller(require_auth=True)) as server:
            with NormClient.connect(server.host, server.port) as client:
                with pytest.raises(AuthenticationError):
                    client.normalize(_rows(rng), "tiny")
        service.close()

    def test_bad_token_fails_the_handshake_typed(self, registry, rng):
        service = _service(registry)
        with AsyncNormServer(service, tenancy=_controller()) as server:
            with pytest.raises(AuthenticationError):
                with NormClient.connect(
                    server.host, server.port, token="tok-wrong"
                ) as client:
                    client.normalize(_rows(rng), "tiny")
        service.close()

    def test_authenticated_traffic_bit_identical_and_metered(self, registry, rng):
        controller = _controller(require_auth=True)
        service = _service(registry)
        with AsyncNormServer(service, tenancy=controller) as server:
            with NormClient.connect(
                server.host, server.port, token="tok-acme"
            ) as client:
                payload = _rows(rng)
                result = client.normalize(payload, "tiny")
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
        ledger = controller.snapshot()["ledger"]
        assert ledger["acme"]["requests"] >= 1
        service.close()

    def test_every_response_read_is_already_metered(self, registry, rng):
        # The charge lands before the response frame is written, so a
        # lock-step client sees its own request in the ledger the moment
        # it has read the answer -- no sleep, no polling.
        controller = _controller()
        service = _service(registry)
        with AsyncNormServer(service, tenancy=controller) as server:
            with NormClient.connect(
                server.host, server.port, token="tok-acme"
            ) as client:
                for read in range(1, 61):
                    client.normalize(_rows(rng, 1), "tiny")
                    assert controller.snapshot()["ledger"]["acme"]["requests"] == read
        service.close()


class TestAsyncChaos:
    def test_server_side_gate_same_contract(self, registry, rng):
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(kind="corrupt", probability=0.3),
                FaultRule(kind="drop", probability=0.2),
            ),
        )
        gate = FaultGate(plan)
        service = _service(registry)
        server = AsyncNormServer(service, fault_gate=gate).start()
        try:
            with NormClient.connect(server.host, server.port, timeout=1.0) as client:
                typed = 0
                for _ in range(12):
                    payload = _rows(rng)
                    try:
                        result = client.normalize(payload, "tiny")
                    except ApiError:
                        typed += 1
                        continue
                    np.testing.assert_array_equal(
                        result.output, _golden(registry, payload)
                    )
                assert gate.snapshot()["injected"] > 0
                assert typed > 0
        finally:
            server.close()
            service.close()


class TestCallbackCore:
    """Frames are handled in protocol callbacks: backpressure and chaos
    delays hold a connection's backlog, never reorder it."""

    def test_pipelining_past_max_inflight_stops_reading(self, registry, rng):
        from repro.api.envelopes import NormalizeRequest, TensorPayload, parse_response
        from repro.api.framing import encode_frame, recv_frame

        max_inflight, excess = 4, 8
        payloads = [_rows(rng, 1) for _ in range(max_inflight + excess)]
        frames = [
            encode_frame(
                NormalizeRequest(
                    model="tiny",
                    tensor=TensorPayload.from_array(payload, encoding="binary"),
                    request_id=index,
                ).to_wire()
            )
            for index, payload in enumerate(payloads)
        ]
        service = _service(registry)
        server = AsyncNormServer(service, max_inflight=max_inflight).start()
        schedule_tick = server._schedule_tick
        server._schedule_tick = lambda: None  # admitted requests stay in flight
        try:
            with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
                sock.sendall(b"".join(frames))
                deadline = time.monotonic() + 10.0
                while server.wire_snapshot()["backpressure_waits"] < 1:
                    assert time.monotonic() < deadline, "the server never stalled"
                    time.sleep(0.005)
                time.sleep(0.05)  # a server still reading would read on now
                snapshot = server.wire_snapshot()
                with server._lock:
                    (connection,) = server._connections.values()
                assert snapshot["inflight_current"] == max_inflight
                assert snapshot["frames_received"] == max_inflight
                assert not connection.transport.is_reading()
                buffered = sum(len(body) for body in connection.backlog)
                assert buffered + connection.decoder.pending_bytes <= sum(
                    len(frame) for frame in frames[max_inflight:]
                )
                del server._schedule_tick
                server._loop.call_soon_threadsafe(schedule_tick)
                replies = [recv_frame(sock) for _ in frames]
        finally:
            server.close()
            service.close()
        by_id = {reply["request_id"]: reply for reply in replies}
        assert sorted(by_id) == list(range(len(payloads)))
        for index, payload in enumerate(payloads):
            result = parse_response(by_id[index], "normalize")
            np.testing.assert_array_equal(result.tensor.to_array(), _golden(registry, payload))

    def test_chaos_delay_keeps_the_frame_order(self, registry):
        from repro.api.envelopes import SCHEMA_VERSION
        from repro.api.framing import encode_frame, recv_frame

        gate = FaultGate(
            FaultPlan(seed=3, rules=(FaultRule(kind="delay", probability=0.5, delay_ms=2.0),))
        )
        service = _service(registry)
        count = 40
        with AsyncNormServer(service, fault_gate=gate) as server:
            with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
                sock.sendall(
                    b"".join(
                        encode_frame(
                            {"schema_version": SCHEMA_VERSION, "op": "ping", "request_id": index}
                        )
                        for index in range(count)
                    )
                )
                replies = [recv_frame(sock) for _ in range(count)]
        service.close()
        assert gate.snapshot()["by_kind"]["delay"] > 0
        assert [reply["request_id"] for reply in replies] == list(range(count))
        assert all(reply["ok"] for reply in replies)


def _plan(registry):
    """The served plan of tiny layer 0 (spec, gamma, beta)."""
    return registry.get("tiny", "default").layer(0).plan


#: One client call per op of the wire protocol (the hello is the
#: connect-time handshake).
_OP_CALLS = {
    "normalize": lambda client, plan, rng: client.normalize(_rows(rng), "tiny"),
    "normalize_bulk": lambda client, plan, rng: client.normalize_bulk(
        [_rows(rng, 2), _rows(rng, 1)], "tiny"
    ),
    "stream": lambda client, plan, rng: list(
        client.stream(iter([_rows(rng, 2), _rows(rng, 1)]), "tiny")
    ),
    "spec": lambda client, plan, rng: client.fetch_spec("tiny"),
    "execute": lambda client, plan, rng: client.execute_spec(
        plan.spec, _rows(rng), gamma=plan.gamma, beta=plan.beta
    ),
    "execute_bulk": lambda client, plan, rng: client.execute_spec_bulk(
        plan.spec, [(_rows(rng, 2), None, None)], gamma=plan.gamma, beta=plan.beta
    ),
    "hello": lambda client, plan, rng: client.wait_until_ready(),
    "ping": lambda client, plan, rng: client.ping(),
    "telemetry": lambda client, plan, rng: client.telemetry(),
}


class TestOneHopServingPath:
    """Every op runs on the loop thread; none needs a cross-thread wake."""

    @staticmethod
    def _count_wakes(server):
        """Count loop wake-ups from other threads from now on."""
        counts = {"wakes": 0}
        loop_wake = server._loop.call_soon_threadsafe

        def call_soon_threadsafe(*args, **kwargs):
            counts["wakes"] += 1
            return loop_wake(*args, **kwargs)

        server._loop.call_soon_threadsafe = call_soon_threadsafe
        return counts

    @staticmethod
    def _record_threads(server, monkeypatch):
        """Record ``(op, stage, thread)`` for each ``begin`` / ``finish``."""
        records = []
        begin = server.handler.begin

        def recorded_begin(payload, *args, **kwargs):
            op = payload.get("op")
            records.append((op, "begin", threading.current_thread().name))
            pendings, finish = begin(payload, *args, **kwargs)

            def recorded_finish():
                records.append((op, "finish", threading.current_thread().name))
                return finish()

            return pendings, recorded_finish

        monkeypatch.setattr(server.handler, "begin", recorded_begin)
        return records

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_every_op_runs_on_the_loop(self, registry, rng, monkeypatch, op):
        service = _service(registry)
        with AsyncNormServer(service) as server:
            records = self._record_threads(server, monkeypatch)
            with NormClient.connect(server.host, server.port) as client:
                _OP_CALLS[op](client, _plan(registry), rng)
        service.close()
        stages = [(stage, thread) for name, stage, thread in records if name == op]
        assert {stage for stage, _ in stages} == {"begin", "finish"}, records
        assert {thread for _, thread in stages} == {"haan-async-server"}, stages

    @pytest.mark.parametrize(
        "encoding,frames", [("binary", "binary"), ("base64", "json")]
    )
    def test_serving_ops_never_leave_the_loop(
        self, registry, rng, monkeypatch, encoding, frames
    ):
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                # Warm-up: the hello handshake happens before recording
                # starts.
                client.normalize(_rows(rng), "tiny", encoding=encoding)
                records = self._record_threads(server, monkeypatch)
                payload = _rows(rng)
                result = client.normalize(payload, "tiny", encoding=encoding)
                np.testing.assert_array_equal(result.output, _golden(registry, payload))
                bulk = [_rows(rng, 3), _rows(rng, 1), _rows(rng, 4)]
                for got, sent in zip(
                    client.normalize_bulk(bulk, "tiny", encoding=encoding), bulk
                ):
                    np.testing.assert_array_equal(got.output, _golden(registry, sent))
                chunks = [_rows(rng, 2), _rows(rng, 3)]
                for got, sent in zip(
                    client.stream(iter(chunks), "tiny", encoding=encoding), chunks
                ):
                    np.testing.assert_array_equal(got.output, _golden(registry, sent))
                assert {op for op, _, _ in records} == {"normalize", "normalize_bulk", "stream"}
                assert {thread for _, _, thread in records} == {"haan-async-server"}
                (connection,) = server.wire_snapshot()["per_connection"]
                assert connection["encoding"] == frames
        service.close()

    def test_binary_execute_needs_no_cross_thread_wake(self, registry, rng):
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                client.wait_until_ready()  # hello off the count
                counts = self._count_wakes(server)
                plan = _plan(registry)
                rows = _rows(rng)
                output, _, _ = client.execute_spec(
                    plan.spec, rows, gamma=plan.gamma, beta=plan.beta, backend="reference"
                )
                np.testing.assert_array_equal(output, _golden(registry, rows))
                assert counts == {"wakes": 0}
        service.close()

    def test_sixteen_tensor_bulk_needs_no_cross_thread_wake(self, registry, rng):
        # The engine tick resolves the bulk frame's futures on the loop's
        # own thread: no self-pipe wake.
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                client.normalize(_rows(rng), "tiny")  # hello off the count
                counts = self._count_wakes(server)
                bulk = [_rows(rng, 2) for _ in range(16)]
                results = client.normalize_bulk(bulk, "tiny")
                assert counts == {"wakes": 0}
                for got, sent in zip(results, bulk):
                    np.testing.assert_array_equal(got.output, _golden(registry, sent))
        service.close()

    def test_count_down_survives_mixed_loop_and_foreign_resolution(self):
        # Half the futures resolve on the loop (as the engine tick does),
        # half on threads switching every microsecond (as a thread draining
        # the service does).  Every count-down runs on the loop, so none is
        # lost: the request completes once, on the loop, and only the
        # foreign resolutions cost a cross-thread wake.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        loop = asyncio.new_event_loop()
        wakes = []
        wake = loop.call_soon_threadsafe

        def counted(*args):
            wakes.append(args)
            return wake(*args)

        loop.call_soon_threadsafe = counted

        def resolve(part, start):
            start.wait(timeout=10.0)
            for future in part:
                future.set_result(None)

        try:
            loop_thread = loop.run_until_complete(
                asyncio.sleep(0, result=threading.get_ident())
            )
            for _ in range(3):
                wakes.clear()
                futures = [ResponseFuture() for _ in range(2 * 4 * 500)]
                on_loop, foreign = futures[::2], futures[1::2]
                done = loop.create_future()
                finished_on = []

                def on_done():
                    finished_on.append(threading.get_ident())
                    done.set_result(None)

                count_down = _CountDown(loop, loop_thread, futures, on_done)
                start = threading.Barrier(4)
                threads = [
                    threading.Thread(target=resolve, args=(foreign[i::4], start))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for future in on_loop:
                    loop.call_soon(future.set_result, None)
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                loop.run_until_complete(asyncio.wait_for(done, timeout=10.0))
                assert finished_on == [loop_thread]
                assert count_down.remaining == 0
                assert len(wakes) == len(foreign)
        finally:
            sys.setswitchinterval(interval)
            loop.close()


class TestEngineTickOnTheLoop:
    """The scheduler drains on the event loop; no scheduler thread exists."""

    def test_kernels_run_on_the_loop_thread(self, registry, rng, monkeypatch):
        from repro.engine.registry import Engine

        threads = []
        run = Engine.run

        def recorded(self, *args, **kwargs):
            threads.append(threading.current_thread().name)
            return run(self, *args, **kwargs)

        payload = _rows(rng)
        bulk = [_rows(rng, 3), _rows(rng, 1)]
        expected = [_golden(registry, p) for p in [payload] + bulk]
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                client.wait_until_ready()
                monkeypatch.setattr(Engine, "run", recorded)
                outputs = [client.normalize(payload, "tiny").output]
                outputs += [r.output for r in client.normalize_bulk(bulk, "tiny")]
        service.close()
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got, want)
        assert threads and set(threads) == {"haan-async-server"}

    def test_server_starts_only_its_loop_thread(self, registry, rng):
        before = {t.ident for t in threading.enumerate()}
        service = _service(registry)
        with AsyncNormServer(service) as server:
            with NormClient.connect(server.host, server.port) as client:
                for call in _OP_CALLS.values():
                    call(client, _plan(registry), rng)
                started = {
                    t.name for t in threading.enumerate() if t.ident not in before
                }
        service.close()
        serving = {
            name
            for name in started
            if name.startswith("haan-") and not name.startswith("haan-norm-client")
        }
        assert serving == {"haan-async-server"}

    def test_foreign_thread_drain_resolves_wire_requests(self, registry, rng):
        # With the tick switched off, only a thread calling the service
        # directly drains the queue: it resolves the queued wire requests
        # in its own batch, and their waiters on the loop must still wake.
        service = _service(registry)
        server = AsyncNormServer(service).start()
        try:
            server._schedule_tick = lambda: None
            with NormClient.connect(server.host, server.port) as client:
                client.wait_until_ready()
                wire = [_rows(rng, 1) for _ in range(4)]
                handles = [client.submit_normalize(p, "tiny") for p in wire]
                deadline = time.monotonic() + 10.0
                while service.batcher.pending_count < len(wire):
                    assert time.monotonic() < deadline, "wire requests never queued"
                    time.sleep(0.005)
                own = _rows(rng, 1)
                direct = []
                caller = threading.Thread(
                    target=lambda: direct.append(service.normalize(own, "tiny"))
                )
                caller.start()
                caller.join(timeout=10.0)
                assert not caller.is_alive()
                np.testing.assert_array_equal(direct[0].output, _golden(registry, own))
                assert direct[0].batch_size == len(wire) + 1
                for handle, payload in zip(handles, wire):
                    np.testing.assert_array_equal(
                        handle.result(timeout=10.0).output, _golden(registry, payload)
                    )
        finally:
            server.close()
            service.close()

    def test_foreign_callers_beside_live_wire_traffic(self, registry, rng):
        service = _service(registry)
        server = AsyncNormServer(service).start()
        wire = [_rows(rng, 1 + i % 3) for i in range(48)]
        own = [_rows(rng, 1 + i % 2) for i in range(24)]
        errors = []

        def call_directly(part):
            try:
                for payload in part:
                    got = service.normalize(payload, "tiny").output
                    if not np.array_equal(got, _golden(registry, payload)):
                        errors.append("direct mismatch")
            except Exception as error:  # noqa: BLE001 -- recorded for assert
                errors.append(repr(error))

        try:
            with NormClient.connect(server.host, server.port) as client:
                client.wait_until_ready()
                callers = [
                    threading.Thread(target=call_directly, args=(own[i::2],))
                    for i in range(2)
                ]
                for caller in callers:
                    caller.start()
                results = client.normalize_many(wire, "tiny", depth=8, timeout=10.0)
                for caller in callers:
                    caller.join(timeout=10.0)
                    assert not caller.is_alive()
                for got, payload in zip(results, wire):
                    np.testing.assert_array_equal(
                        got.output, _golden(registry, payload)
                    )
        finally:
            server.close()
            service.close()
        assert not errors, errors
        assert service.batcher.pending_count == 0

    def test_drain_finishes_work_queued_behind_a_pending_tick(self, registry, rng):
        # The requests are admitted and queued, their tick still pending,
        # when close(drain_timeout) begins: the drain must let the tick run
        # and answer them before the connections are cut.
        service = _service(registry)
        server = AsyncNormServer(service).start()
        schedule_tick = server._schedule_tick
        server._schedule_tick = lambda: None
        client = NormClient.connect(server.host, server.port, timeout=10.0)
        try:
            client.wait_until_ready()
            payloads = [_rows(rng, 2) for _ in range(4)]
            handles = [client.submit_normalize(p, "tiny") for p in payloads]
            deadline = time.monotonic() + 10.0
            while service.batcher.pending_count < len(payloads):
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.005)
            closer = threading.Thread(
                target=lambda: server.close(drain_timeout=5.0), daemon=True
            )
            closer.start()
            while not server._closing:
                time.sleep(0.001)
            del server._schedule_tick
            server._loop.call_soon_threadsafe(schedule_tick)
            for handle, payload in zip(handles, payloads):
                np.testing.assert_array_equal(
                    handle.result(timeout=10.0).output, _golden(registry, payload)
                )
            closer.join(timeout=10.0)
            assert not closer.is_alive()
        finally:
            client.close()
            server.close()
            service.close()
