"""Shared-memory transport suite: slab allocator, attach lifecycle, parity.

Contracts pinned here:

* :class:`SlabRing` is a real allocator -- aligned slabs, exhaustion
  returns ``None`` (never raises), frees coalesce so the ring does not
  fragment permanently;
* the attach handshake is opportunistic -- a refusing server (flag off),
  a pre-v3 peer, or a full ring all degrade to inline binary TCP frames
  with identical results;
* tensor bytes genuinely leave the socket: a same-host shm client moves
  orders of magnitude fewer bytes through TCP than its payloads hold;
* slab lifetime is sound -- tx slabs are reclaimed when replies arrive,
  rx slabs when the client's ``shm_release`` lands, and everything is
  freed on close (segments unlinked by their creator only);
* malformed slab descriptors fail closed into the ApiError taxonomy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import BadSchemaError
from repro.api.shm import (
    SLAB_ALIGNMENT,
    ServerShmSession,
    SharedMemoryTransport,
    SlabRing,
)
from repro.api.transport import available_transports, create_transport
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService


@pytest.fixture(scope="module")
def registry():
    """One calibration per module: every test shares the same artifacts."""
    return CalibrationRegistry()


@pytest.fixture()
def server(registry):
    with NormalizationService(registry=registry) as service:
        with AsyncNormServer(service) as srv:
            yield srv


@pytest.fixture()
def no_shm_server(registry):
    with NormalizationService(registry=registry) as service:
        with AsyncNormServer(service, enable_shm=False) as srv:
            yield srv


# ---------------------------------------------------------------------------
# the slab allocator
# ---------------------------------------------------------------------------


class TestSlabRing:
    def test_allocations_are_aligned_and_disjoint(self):
        ring = SlabRing(1024)
        offsets = [ring.alloc(n) for n in (1, 63, 64, 65, 100)]
        assert all(offset is not None for offset in offsets)
        assert all(offset % SLAB_ALIGNMENT == 0 for offset in offsets)
        assert len(set(offsets)) == len(offsets)

    def test_exhaustion_returns_none_never_raises(self):
        ring = SlabRing(128)
        assert ring.alloc(128) == 0
        assert ring.alloc(1) is None  # full: a soft failure, not an exception
        assert ring.free(0)
        assert ring.alloc(128) == 0  # fully reusable after the free

    def test_frees_coalesce_across_neighbours(self):
        ring = SlabRing(256)
        offsets = [ring.alloc(64) for _ in range(4)]
        assert offsets == [0, 64, 128, 192]
        # Free out of order; a full-ring allocation must succeed afterwards,
        # which is only possible if the spans merged back into one.
        for offset in (64, 192, 0, 128):
            assert ring.free(offset)
        assert ring.alloc(256) == 0

    def test_unknown_or_double_free_is_ignored(self):
        ring = SlabRing(256)
        offset = ring.alloc(10)
        assert ring.free(offset)
        assert not ring.free(offset)  # double free
        assert not ring.free(7)  # never allocated
        assert ring.slabs_in_use == 0

    def test_usage_gauges(self):
        ring = SlabRing(1024)
        ring.alloc(1)
        ring.alloc(65)
        assert ring.slabs_in_use == 2
        assert ring.bytes_in_use == SLAB_ALIGNMENT + 2 * SLAB_ALIGNMENT

    def test_undersized_ring_is_rejected(self):
        with pytest.raises(ValueError, match="smaller than"):
            SlabRing(SLAB_ALIGNMENT - 1)


# ---------------------------------------------------------------------------
# attach lifecycle and fallback
# ---------------------------------------------------------------------------


class TestAttachLifecycle:
    def test_registered_and_creatable_by_name(self, server):
        assert "shm" in available_transports()
        transport = create_transport("shm", host=server.host, port=server.port)
        try:
            assert isinstance(transport, SharedMemoryTransport)
        finally:
            transport.close()

    def test_attach_accepted_and_tagged_in_telemetry(self, server):
        with NormClient.connect(server.host, server.port, transport="shm") as client:
            client.normalize(np.zeros((2, 64)), "tiny")
            stats = client.transport.stats()
            assert stats["shm"]["sessions"] == 1
            assert stats["shm"]["refusals"] == 0
            rows = server.wire_snapshot()["per_connection"]
            assert [row["encoding"] for row in rows] == ["shm"]

    def test_refused_attach_falls_back_to_tcp(self, no_shm_server):
        with NormClient.connect(
            no_shm_server.host, no_shm_server.port, transport="shm"
        ) as client:
            result = client.normalize(np.ones((2, 64)), "tiny")
            assert result.output.shape == (2, 64)
            stats = client.transport.stats()["shm"]
            assert stats["sessions"] == 0
            assert stats["refusals"] == 1

    def test_pre_v3_negotiation_skips_the_attach(self, server):
        transport = SharedMemoryTransport(
            server.host, server.port, schema_versions=(1, 2)
        )
        with NormClient(transport) as client:
            result = client.normalize(np.ones((1, 64)), "tiny")
            assert result.output.shape == (1, 64)
            assert transport.negotiated_version == 2
            assert transport.stats()["shm"]["sessions"] == 0

    def test_segments_are_unlinked_on_close(self, server):
        transport = SharedMemoryTransport(server.host, server.port)
        client = NormClient(transport)
        client.normalize(np.zeros((1, 64)), "tiny")
        (session,) = transport._sessions.values()
        names = (session.tx.name, session.rx.name)
        client.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name, create=False)


# ---------------------------------------------------------------------------
# parity and byte accounting
# ---------------------------------------------------------------------------


class TestShmParity:
    def test_bit_identical_to_in_process_across_shapes(self, server, registry):
        rng = np.random.default_rng(3)
        payloads = [rng.normal(size=(rows, 64)) for rows in (1, 2, 17)]
        with NormClient.in_process(registry=registry) as golden_client:
            golden = [golden_client.normalize(p, "tiny").output for p in payloads]
        with NormClient.connect(server.host, server.port, transport="shm") as client:
            for payload, expected in zip(payloads, golden):
                result = client.normalize(payload, "tiny")
                assert np.array_equal(result.output, expected)
            bulk = client.normalize_bulk(payloads, "tiny")
            for item, expected in zip(bulk, golden):
                assert np.array_equal(item.output, expected)
            streamed = list(client.stream(iter(payloads), "tiny"))
            for item, expected in zip(streamed, golden):
                assert np.array_equal(item.output, expected)

    def test_tensor_bytes_stay_off_the_socket(self, server):
        rows = np.random.default_rng(0).normal(size=(512, 64))  # 256 KiB
        with NormClient.connect(server.host, server.port, transport="shm") as client:
            client.normalize(rows, "tiny")
            snapshot = server.wire_snapshot()
            assert snapshot["bytes_received"] < rows.nbytes // 8

    def test_tx_slabs_reclaimed_after_replies(self, server):
        with NormClient.connect(server.host, server.port, transport="shm") as client:
            for _ in range(4):
                client.normalize(np.zeros((8, 64)), "tiny")
            assert client.transport.stats()["shm"]["tx_slabs_in_use"] == 0

    def test_full_ring_degrades_to_inline_binary(self, server):
        # A ring too small for the payload: staging fails softly and the
        # tensor rides inline in the v3 binary frame instead.
        with NormClient(
            SharedMemoryTransport(server.host, server.port, ring_bytes=256)
        ) as client:
            rows = np.random.default_rng(1).normal(size=(16, 64))  # 8 KiB > ring
            result = client.normalize(rows, "tiny")
            assert result.output.shape == (16, 64)
            assert client.transport.stats()["shm"]["sessions"] == 1


# ---------------------------------------------------------------------------
# fail-closed descriptor handling
# ---------------------------------------------------------------------------


class TestServerSession:
    def _attached(self, ring_bytes=4096):
        from repro.api.shm import _ClientShmSession

        client_side = _ClientShmSession(ring_bytes)
        payload = client_side.attach_envelope(3)
        return client_side, ServerShmSession.attach(payload)

    def test_out_of_bounds_descriptors_are_rejected(self):
        client_side, session = self._attached()
        try:
            for data in (
                {"offset": 0, "length": 1 << 40},
                {"offset": -1, "length": 8},
                {"offset": "0", "length": 8},
                {"offset": True, "length": 8},
                [0, 8],
            ):
                tensor = {
                    "encoding": "shm",
                    "dtype": "float64",
                    "shape": [1],
                    "data": data,
                }
                with pytest.raises(BadSchemaError):
                    session.resolve_inbound({"op": "normalize", "tensor": tensor})
        finally:
            session.close()
            client_side.close()

    def test_attach_rejects_malformed_envelopes(self):
        for payload in (
            {},
            {"tx": {"name": "x", "size": 1 << 40}, "rx": {"name": "y", "size": 64}},
            {"tx": {"name": "", "size": 64}, "rx": {"name": "y", "size": 64}},
            {"tx": {"name": "x", "size": "64"}, "rx": {"name": "y", "size": 64}},
        ):
            with pytest.raises(BadSchemaError):
                ServerShmSession.attach(payload)

    def test_release_ignores_garbage(self):
        client_side, session = self._attached()
        try:
            assert session.release(None) == 0
            assert session.release("x") == 0
            assert session.release([True, "a", 10**9, None]) == 0
        finally:
            session.close()
            client_side.close()
