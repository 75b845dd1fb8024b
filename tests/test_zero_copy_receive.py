"""Zero-copy frame receive and the reader-thread-free client.

* ``FrameDecoder`` reassembles a frame into one buffer sized by its
  announced length, whether the bytes are fed whole, in 64 KiB pieces or
  read straight into :meth:`get_buffer` at awkward split points, and
  hands out read-only envelopes;
* ``SocketTransport`` starts no thread: its callers read the connection
  (leader/followers), pipelined from several threads at once;
* a sender blocked on a full socket reads replies, and the frames their
  reply hooks send (shm slab releases) wait for it instead of deadlocking;
* an idle pooled connection the server closed is found before the send,
  so even a non-idempotent ``execute`` redials cleanly;
* a fleet hedge on a second connection wins while the primary replica is
  delayed.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import SCHEMA_VERSION, TensorPayload, TransportError
from repro.api.framing import FRAME_HEADER, SCRATCH_BYTES, FrameDecoder, encode_frame
from repro.api.retry import RetryPolicy
from repro.api.transport import SocketTransport, _PoolConnection
from repro.chaos.gate import FaultGate
from repro.chaos.plan import FaultPlan, FaultRule
from repro.fleet.transport import FleetTransport

from test_async_server import _OP_CALLS, _golden, _plan, _rows, _service, registry  # noqa: F401

# ---------------------------------------------------------------------------
# FrameDecoder
# ---------------------------------------------------------------------------


def _bulk_envelope(rng, tensors=16, rows=64, hidden=256):
    return {
        "schema_version": SCHEMA_VERSION,
        "op": "normalize_bulk",
        "request_id": 7,
        "model": "tiny",
        "tensors": [
            TensorPayload.from_array(rng.normal(size=(rows, hidden)), "binary").to_wire()
            for _ in range(tensors)
        ],
    }


def _arrays(envelope):
    return [TensorPayload.from_wire(t).to_array() for t in envelope["tensors"]]


def _read_into(decoder, data, cuts):
    """Deliver ``data`` the way a socket does: each read copies at most one
    segment (between consecutive ``cuts``) into ``get_buffer()``."""
    frames = []
    bounds = [0] + sorted(cuts) + [len(data)]
    for start, end in zip(bounds[:-1], bounds[1:]):
        pos = start
        while pos < end:
            target = decoder.get_buffer()
            count = min(len(target), end - pos)
            target[:count] = data[pos : pos + count]
            pos += count
            frames.extend(decoder.buffer_updated(count))
    return frames


class TestFrameDecoder:
    def test_two_mib_frame_decodes_identically_however_it_arrives(self, rng):
        envelope = _bulk_envelope(rng)
        frame = encode_frame(envelope)
        assert len(frame) >= 2 * 1024 * 1024
        (preamble_len,) = FRAME_HEADER.unpack_from(frame, 8)
        preamble_mid = FRAME_HEADER.size + 8 + preamble_len // 2
        tensor_bytes = 64 * 256 * 8
        buffer_edge = len(frame) - 3 * tensor_bytes  # between two tensor buffers
        expected = _arrays(envelope)

        (whole,) = FrameDecoder().feed(frame)
        decoder = FrameDecoder()
        pieces = []
        for at in range(0, len(frame), 64 * 1024):
            pieces.extend(decoder.feed(frame[at : at + 64 * 1024]))
        (pieced,) = pieces
        (split,) = _read_into(
            FrameDecoder(), frame, [2, preamble_mid, buffer_edge - 1, buffer_edge + 5]
        )
        for decoded in (whole, pieced, split):
            got = _arrays(decoded)
            assert len(got) == len(expected)
            for out, want in zip(got, expected):
                assert not out.flags.writeable
                np.testing.assert_array_equal(out, want)
            assert {k: v for k, v in decoded.items() if k != "tensors"} == {
                k: v for k, v in envelope.items() if k != "tensors"
            }

    def test_raw_bodies_are_read_only(self, rng):
        frame = encode_frame(_bulk_envelope(rng, tensors=2))
        (body,) = _read_into(FrameDecoder(raw=True), frame, [100])
        assert isinstance(body, memoryview) and body.readonly
        assert len(body) == len(frame) - FRAME_HEADER.size

    def test_pending_bytes_reports_the_partial_frame(self, rng):
        frame = encode_frame(_bulk_envelope(rng, tensors=4))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []
        assert decoder.pending_bytes == 3  # a split length prefix
        cut = SCRATCH_BYTES + 1000
        assert decoder.feed(frame[3:cut]) == []
        assert decoder.pending_bytes == cut
        with pytest.raises(TransportError, match="mid-frame"):
            decoder.finish()
        (decoded,) = decoder.feed(frame[cut:])
        assert decoder.pending_bytes == 0
        decoder.finish()
        assert len(_arrays(decoded)) == 4

    def test_decoders_sharing_one_scratch_keep_their_streams_apart(self, rng):
        scratch = memoryview(bytearray(SCRATCH_BYTES))
        streams = []
        for seed in range(2):
            envelopes = [
                {"schema_version": SCHEMA_VERSION, "op": "ping", "request_id": seed * 100 + i}
                for i in range(5)
            ]
            envelopes.append(_bulk_envelope(np.random.default_rng(seed), tensors=2))
            streams.append((envelopes, b"".join(encode_frame(e) for e in envelopes)))
        decoders = [FrameDecoder(scratch=scratch) for _ in streams]
        got = [[], []]
        positions = [0, 0]
        step = 7
        while any(pos < len(data) for pos, (_, data) in zip(positions, streams)):
            for index, (_, data) in enumerate(streams):
                pos = positions[index]
                if pos >= len(data):
                    continue
                target = decoders[index].get_buffer()
                count = min(len(target), len(data) - pos, step)
                target[:count] = data[pos : pos + count]
                positions[index] = pos + count
                got[index].extend(decoders[index].buffer_updated(count))
            step = step * 3 % 9001 + 1
        for (envelopes, _), decoded in zip(streams, got):
            assert [e["request_id"] for e in decoded] == [e["request_id"] for e in envelopes]
            for out, want in zip(_arrays(decoded[-1]), _arrays(envelopes[-1])):
                np.testing.assert_array_equal(out, want)


# ---------------------------------------------------------------------------
# the client reads its own replies
# ---------------------------------------------------------------------------


class TestClientWithoutReaderThread:
    def test_every_op_and_threaded_pipelines_start_no_thread(self, registry, rng):
        service = _service(registry)
        payloads = [[_rows(rng, 1 + (i % 3)) for i in range(8)] for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the read role over as often as possible
        try:
            self._run_every_op_and_threaded_pipelines(registry, rng, service, payloads)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _run_every_op_and_threaded_pipelines(registry, rng, service, payloads):
        with AsyncNormServer(service) as server:
            before = {t.ident for t in threading.enumerate()}
            transport = SocketTransport(server.host, server.port, pool_size=1)
            with NormClient(transport) as client:
                for call in _OP_CALLS.values():
                    call(client, _plan(registry), rng)
                outputs = [None] * len(payloads)
                failures = []

                def pipeline(index):
                    try:
                        window = [client.submit_normalize(p, "tiny") for p in payloads[index]]
                        outputs[index] = [pending.result().output for pending in window]
                    except BaseException as error:  # noqa: BLE001 -- reported below
                        failures.append(error)

                workers = [
                    threading.Thread(target=pipeline, args=(i,)) for i in range(len(payloads))
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30.0)
                    assert not worker.is_alive()
                worker_ids = {worker.ident for worker in workers}
                started = {
                    t.name
                    for t in threading.enumerate()
                    if t.ident not in before and t.ident not in worker_ids
                }
                assert transport.stats()["connections"] == 1
        service.close()
        assert not failures
        assert started == set()
        for window, results in zip(payloads, outputs):
            for payload, output in zip(window, results):
                np.testing.assert_array_equal(output, _golden(registry, payload))

    def test_deep_pipeline_of_large_frames_does_not_wedge(self, registry, rng):
        # One thread queues more request bytes than the socket buffers of
        # both ends hold while the server, at its in-flight bound, waits to
        # write replies nobody has read yet: the blocked sender must read.
        service = _service(registry)
        payloads = [_rows(rng, 2730) for _ in range(32)]  # ~1 MiB each
        with AsyncNormServer(service, max_inflight=1) as server:
            with NormClient.connect(server.host, server.port, timeout=20.0) as client:
                results = client.normalize_many(payloads, "tiny", depth=32, timeout=20.0)
        service.close()
        for payload, result in zip(payloads, results):
            np.testing.assert_array_equal(result.output, _golden(registry, payload))

    def test_deep_shm_pipeline_with_a_small_ring_does_not_deadlock(
        self, registry, rng, monkeypatch
    ):
        # The rings hold two requests' tensors, so most requests travel
        # inline and fill the socket while replies come back in rx slabs:
        # the blocked sender reads those replies, and releasing their slabs
        # is itself a frame to send on the connection it is sending on.
        queued = []
        original = _PoolConnection.queue_frame

        def counting(conn, frame):
            queued.append(len(frame))
            original(conn, frame)

        monkeypatch.setattr(_PoolConnection, "queue_frame", counting)
        service = _service(registry)
        payloads = [_rows(rng, 2730) for _ in range(32)]  # ~1 MiB each
        outcome = {}

        def pipeline():
            try:
                outcome["results"] = client.normalize_many(
                    payloads, "tiny", depth=32, timeout=20.0
                )
            except BaseException as error:  # noqa: BLE001 -- reported below
                outcome["error"] = error

        with AsyncNormServer(service, max_inflight=1) as server:
            with NormClient.connect(
                server.host, server.port, transport="shm", ring_bytes=3 << 20, timeout=20.0
            ) as client:
                worker = threading.Thread(target=pipeline, daemon=True)
                worker.start()
                worker.join(60.0)
                assert not worker.is_alive(), "shm pipeline deadlocked"
                assert client.transport.stats()["shm"]["sessions"] == 1
        service.close()
        assert "error" not in outcome, outcome.get("error")
        assert queued, "no reply came back through rx slabs"
        for payload, result in zip(payloads, outcome["results"]):
            np.testing.assert_array_equal(result.output, _golden(registry, payload))

    def test_execute_after_server_restart_redials_cleanly(self, registry, rng):
        policy = RetryPolicy(max_attempts=1)  # no resend: the dead socket must be found first
        plan = _plan(registry)
        service = _service(registry)
        server = AsyncNormServer(service).start()
        port = server.port
        client = NormClient(SocketTransport(server.host, port, retry_policy=policy))
        try:
            client.execute_spec(plan.spec, _rows(rng), gamma=plan.gamma, beta=plan.beta)
            server.close()
            service.close()
            service = _service(registry)
            server = AsyncNormServer(service, port=port).start()
            payload = _rows(rng, 3)
            output, _mean, _isd = client.execute_spec(
                plan.spec, payload, gamma=plan.gamma, beta=plan.beta
            )
            assert output.shape == payload.shape
            assert policy.snapshot()["retries"] == 0
            assert client.transport.stats()["reconnects"] == 1
        finally:
            client.close()
            server.close()
            service.close()

    def test_fleet_hedge_wins_while_the_primary_is_delayed(self, registry, rng):
        services = [_service(registry), _service(registry)]
        servers = [AsyncNormServer(service) for service in services]
        fleet = FleetTransport(
            [server.address for server in servers], hedge_delay=0.02, timeout=10.0
        )
        key = fleet.routing_key(
            {"op": "normalize", "model": "tiny", "dataset": "default", "accelerator": None}
        )
        primary = fleet._router.candidates(key)[0]
        delay = FaultPlan(
            seed=3, rules=(FaultRule(kind="delay", op="normalize", delay_ms=3000.0),)
        )
        for server in servers:
            if server.address == primary:
                server.fault_gate = FaultGate(delay)
            server.start()
        try:
            payload = _rows(rng)
            with NormClient(fleet) as client:
                started = time.monotonic()
                result = client.normalize(payload, "tiny")
                elapsed = time.monotonic() - started
            np.testing.assert_array_equal(result.output, _golden(registry, payload))
            assert fleet.hedges_issued == 1 and fleet.hedge_wins == 1
            assert elapsed < 2.0
        finally:
            for server in servers:
                server.close()
            for service in services:
                service.close()
