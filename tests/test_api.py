"""Tests of the versioned public client/server normalization API.

The contracts under test, in order:

* envelope round trips: every request/response/error envelope survives
  ``to_wire`` -> ``from_wire`` intact, tensors bit-exactly in both
  encodings, and schema-version mismatches are rejected;
* transport equivalence: ``NormClient`` over ``InProcessTransport`` and
  over ``SocketTransport`` produces outputs bit-identical to calling
  ``NormalizationService`` directly;
* the ``remote`` engine backend: ``engine.build(spec, backend="remote")``
  round-trips through a live ``AsyncNormServer`` bit-identically to the local
  ``reference`` backend, for computed and skipped specs;
* batched execute: ``execute`` / ``execute_bulk`` groups stack in the
  scheduler (across frames and connections) bit-identically to running
  each group alone, expired budgets are shed with ``deadline_exceeded``,
  and a malformed group fails its own frame with ``bad_schema``;
* resilience: error taxonomy over the wire, payload-size rejection, and
  client reconnect after a server restart on the same port;
* the serving front door: unknown backend / model / accelerator names fail
  at ``submit()`` time listing the registered names, baseline accelerators
  are registered as costed ``simulated-*`` backends, and simulated cost
  records aggregate into the telemetry snapshot.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import (
    SCHEMA_VERSION,
    ApiError,
    BadSchemaError,
    ErrorResponse,
    ExecuteBulkRequest,
    ExecuteGroup,
    ExecuteSpecRequest,
    NormalizeRequest,
    NormalizeResponse,
    PayloadTooLargeError,
    SchemaVersionError,
    SpecRequest,
    TensorPayload,
    TransportError,
    UnknownBackendError,
    UnknownModelError,
    parse_request,
    parse_response,
)
from repro.api.framing import FRAME_HEADER, encode_frame
from repro.api.handler import ApiHandler
from repro.api.server import parse_address
from repro.api.transport import InProcessTransport
from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.predictor import IsdPredictor
from repro.core.subsampling import SubsampleSettings
from repro.engine.registry import available_backends, build, local_backends
from repro.engine.spec import EngineSpec
from repro.llm.normalization import LayerNorm
from repro.numerics.quantization import DataFormat
from repro.serving.registry import CalibrationArtifact, CalibrationRegistry
from repro.serving.service import NormalizationService

HIDDEN = 48


# ---------------------------------------------------------------------------
# fixtures: a calibration-free artifact so no test pays Algorithm 1
# ---------------------------------------------------------------------------


def _instant_loader(model_name, dataset):
    """Artifact stub: a computed HAAN layer, a skipped one, and a reference."""
    rng = np.random.default_rng(29)
    layers = []
    bases = []
    for index in (0, 1):
        base = LayerNorm(hidden_size=HIDDEN, layer_index=index, name=f"api.norm{index}")
        base.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
        bases.append(base)
    computed = HaanNormalization(
        bases[0], subsample=SubsampleSettings(length=12), data_format=DataFormat.INT8
    )
    predictor = IsdPredictor(anchor_layer=0, last_layer=3, decay=-0.04, anchor_log_isd=0.1)
    skipped = HaanNormalization(bases[1], predictor=predictor, data_format=DataFormat.FP16)
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        model=None,
        config=HaanConfig(subsample_length=12, data_format=DataFormat.INT8),
        calibration=None,
        haan_layers=[computed, skipped],
        reference_layers=bases,
    )


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


@pytest.fixture()
def service(registry):
    with NormalizationService(registry=registry) as svc:
        yield svc


@pytest.fixture()
def live_server(registry):
    """A service behind a real TCP AsyncNormServer on a free port."""
    svc = NormalizationService(registry=registry)
    server = AsyncNormServer(svc).start()
    yield server
    server.close()
    svc.close()


def _rows(rng, count=5):
    return rng.normal(0.0, 1.5, size=(count, HIDDEN))


# ---------------------------------------------------------------------------
# envelope round trips
# ---------------------------------------------------------------------------


class TestTensorPayload:
    @pytest.mark.parametrize("encoding", ["base64", "binary"])
    @pytest.mark.parametrize(
        "dtype", ["float64", "float32", "float16", "int64", "int32", "int8"]
    )
    def test_round_trip_preserves_bits_and_dtype(self, rng, encoding, dtype):
        if dtype.startswith("float"):
            arr = rng.normal(0.0, 100.0, size=(3, 7)).astype(dtype)
        else:
            arr = rng.integers(-100, 100, size=(3, 7)).astype(dtype)
        payload = TensorPayload.from_array(arr, encoding)
        decoded = payload.to_array()
        assert decoded.dtype == arr.dtype
        assert np.array_equal(decoded, arr)

    @pytest.mark.parametrize("encoding", ["base64"])
    def test_survives_json_and_special_values(self, encoding):
        arr = np.array([np.pi, 1e-308, -0.0, 1.0 / 3.0, 12345.6789])
        wire = TensorPayload.from_array(arr, encoding).to_wire()
        restored = TensorPayload.from_wire(json.loads(json.dumps(wire)))
        assert np.array_equal(restored.to_array(), arr)

    def test_empty_and_1d_shapes(self):
        for arr in (np.empty((0, 4)), np.arange(3.0)):
            decoded = TensorPayload.from_array(arr).to_array()
            assert decoded.shape == arr.shape
            assert np.array_equal(decoded, arr)

    def test_decoded_array_is_writable(self, rng):
        decoded = TensorPayload.from_array(_rows(rng)).to_array()
        decoded[0, 0] = 42.0  # would raise on a frombuffer view

    def test_byte_count_mismatch_rejected(self, rng):
        payload = TensorPayload.from_array(_rows(rng))
        wire = payload.to_wire()
        wire["shape"] = [1, 1]
        with pytest.raises(BadSchemaError, match="bytes"):
            TensorPayload.from_wire(wire).to_array()

    def test_bad_dtype_and_encoding_rejected(self):
        wire = TensorPayload.from_array(np.arange(3.0)).to_wire()
        for key, value in (("dtype", "complex128"), ("encoding", "pickle")):
            broken = dict(wire)
            broken[key] = value
            with pytest.raises(BadSchemaError):
                TensorPayload.from_wire(broken)


class TestEnvelopes:
    def test_normalize_request_round_trip(self, rng):
        request = NormalizeRequest(
            model="tiny",
            tensor=TensorPayload.from_array(_rows(rng)),
            layer_index=3,
            dataset="wiki",
            reference=True,
            backend="simulated",
            accelerator="haan-v2",
        )
        wire = json.loads(json.dumps(request.to_wire()))
        assert wire["schema_version"] == SCHEMA_VERSION
        decoded = parse_request(wire)
        assert decoded == request

    def test_every_request_op_round_trips(self, rng):
        spec = EngineSpec(kind="layernorm", hidden_size=HIDDEN).to_dict()
        requests = [
            NormalizeRequest(model="m", tensor=TensorPayload.from_array(_rows(rng))),
            SpecRequest(model="m", layer_index=1),
            ExecuteSpecRequest(
                spec=spec,
                rows=TensorPayload.from_array(_rows(rng)),
                segment_starts=TensorPayload.from_array(np.array([0, 2])),
                backend="reference",
            ),
        ]
        for request in requests:
            decoded = parse_request(json.loads(json.dumps(request.to_wire())))
            assert decoded == request

    def test_schema_version_mismatch_rejected(self, rng):
        wire = NormalizeRequest(
            model="m", tensor=TensorPayload.from_array(_rows(rng))
        ).to_wire()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError, match="schema_version"):
            parse_request(wire)
        with pytest.raises(SchemaVersionError):
            parse_response(wire, "normalize")

    def test_missing_fields_and_unknown_op_rejected(self):
        with pytest.raises(BadSchemaError, match="missing"):
            parse_request({"schema_version": SCHEMA_VERSION, "op": "spec"})
        with pytest.raises(BadSchemaError, match="unknown op"):
            parse_request(
                {"schema_version": SCHEMA_VERSION, "op": "teleport", "request_id": 1}
            )
        with pytest.raises(BadSchemaError):
            parse_request([1, 2, 3])

    def test_error_response_round_trip_raises_taxonomy_member(self):
        wire = ErrorResponse(code="unknown_model", message="nope", request_id=7).to_wire()
        assert wire["ok"] is False
        with pytest.raises(UnknownModelError, match="nope"):
            parse_response(json.loads(json.dumps(wire)), "normalize")

    def test_unknown_error_code_degrades_to_base_api_error(self):
        wire = ErrorResponse(code="haywire", message="?", request_id=1).to_wire()
        with pytest.raises(ApiError):
            parse_response(wire, "normalize")

    def test_normalize_response_round_trip(self, rng):
        response = NormalizeResponse(
            request_id=9,
            tensor=TensorPayload.from_array(_rows(rng)),
            mean=TensorPayload.from_array(np.zeros(5)),
            isd=TensorPayload.from_array(np.ones(5)),
            was_predicted=True,
            was_subsampled=False,
            batch_size=4,
            queue_wait=0.001,
            batch_latency=0.002,
            backend="vectorized",
        )
        decoded = parse_response(json.loads(json.dumps(response.to_wire())), "normalize")
        assert decoded == response


class TestFraming:
    def test_frame_header_is_four_byte_length_prefix(self):
        frame = encode_frame({"a": 1})
        (length,) = FRAME_HEADER.unpack(frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:].decode()) == {"a": 1}

    def test_oversized_frame_rejected_at_encode_time(self):
        with pytest.raises(PayloadTooLargeError):
            encode_frame({"blob": "x" * 1024}, max_frame_bytes=64)


# ---------------------------------------------------------------------------
# transports: bit-equivalence with the direct service path
# ---------------------------------------------------------------------------


class TestInProcessTransport:
    def test_bit_identical_to_direct_service_calls(self, registry, rng):
        payloads = [_rows(rng, 3) for _ in range(4)]
        with NormalizationService(registry=registry) as direct:
            golden = [
                direct.normalize(p, "tiny", layer_index=index % 2)
                for index, p in enumerate(payloads)
            ]
        with NormClient.in_process(registry=registry) as client:
            results = [
                client.normalize(p, "tiny", layer_index=index % 2)
                for index, p in enumerate(payloads)
            ]
        for result, reference in zip(results, golden):
            assert np.array_equal(result.output, reference.output)
            assert np.array_equal(result.mean, reference.mean)
            assert np.array_equal(result.isd, reference.isd)
            assert result.was_predicted == reference.was_predicted

    @pytest.mark.parametrize("encoding", ["base64", "binary"])
    def test_both_encodings_are_exact(self, registry, rng, encoding):
        payload = _rows(rng)
        with NormClient.in_process(registry=registry) as client:
            via_api = client.normalize(payload, "tiny", encoding=encoding)
        artifact = _instant_loader("tiny", "default")
        golden = artifact.layer(0).engine_for("reference").run(payload)
        assert np.array_equal(via_api.output, golden[0])

    def test_1d_payload_shape_restored(self, registry, rng):
        with NormClient.in_process(registry=registry) as client:
            result = client.normalize(rng.normal(size=HIDDEN), "tiny")
        assert result.output.shape == (HIDDEN,)

    def test_payload_too_large_rejected(self, registry, rng):
        transport = InProcessTransport(registry=registry, max_payload_elements=16)
        with NormClient(transport) as client:
            with pytest.raises(PayloadTooLargeError, match="16"):
                client.normalize(_rows(rng), "tiny")

    def test_wrong_width_maps_to_bad_schema(self, registry, rng):
        with NormClient.in_process(registry=registry) as client:
            with pytest.raises(BadSchemaError, match="hidden"):
                client.normalize(rng.normal(size=(2, HIDDEN + 1)), "tiny")

    def test_fetch_spec_matches_layer_plan(self, registry):
        with NormClient.in_process(registry=registry) as client:
            served = client.fetch_spec("tiny", layer_index=1)
        layer = _instant_loader("tiny", "default").layer(1)
        assert served.spec == layer.plan.spec
        assert served.num_layers == 2
        assert np.array_equal(served.gamma, layer.gamma)
        assert np.array_equal(served.beta, layer.beta)

    def test_closed_transport_refuses_requests(self, registry):
        client = NormClient.in_process(registry=registry)
        client.close()
        with pytest.raises(TransportError):
            client.ping()


class TestSocketTransport:
    def test_bit_identical_over_the_wire(self, live_server, registry, rng):
        payloads = [_rows(rng, 4) for _ in range(3)]
        artifact = registry.get("tiny", "default")
        with NormClient.connect(live_server.host, live_server.port) as client:
            for index, payload in enumerate(payloads):
                result = client.normalize(payload, "tiny", layer_index=index % 2)
                golden = artifact.layer(index % 2).engine_for("reference").run(payload)
                assert np.array_equal(result.output, golden[0])
                assert np.array_equal(result.isd, golden[2])

    def test_error_taxonomy_travels_the_wire(self, live_server, rng):
        with NormClient.connect(live_server.host, live_server.port) as client:
            with pytest.raises(UnknownBackendError, match="vectorized"):
                client.normalize(_rows(rng), "tiny", backend="abacus")
            # the remote backend is refused server-side (forwarding loop)
            with pytest.raises(UnknownBackendError, match="remote"):
                client.normalize(_rows(rng), "tiny", backend="remote")

    def test_ping_reports_registered_backends(self, live_server):
        with NormClient.connect(live_server.host, live_server.port) as client:
            assert client.ping()["backends"] == available_backends()

    def test_telemetry_over_the_wire(self, live_server, rng):
        with NormClient.connect(live_server.host, live_server.port) as client:
            client.normalize(_rows(rng), "tiny")
            snapshot = client.telemetry()
        assert snapshot["telemetry"]["requests_total"] >= 1
        assert snapshot["registry"]["entries"] >= 1

    def test_two_clients_share_one_server(self, live_server, registry, rng):
        payload = _rows(rng)
        artifact = registry.get("tiny", "default")
        golden = artifact.layer(0).engine_for("reference").run(payload)[0]
        clients = [
            NormClient.connect(live_server.host, live_server.port) for _ in range(2)
        ]
        try:
            for client in clients:
                assert np.array_equal(client.normalize(payload, "tiny").output, golden)
        finally:
            for client in clients:
                client.close()

    def test_reconnect_after_server_restart_on_same_port(self, registry, rng):
        svc = NormalizationService(registry=registry)
        server = AsyncNormServer(svc).start()
        port = server.port
        client = NormClient.connect(server.host, port)
        try:
            first = client.normalize(_rows(rng), "tiny")
            server.close()
            svc.close()
            svc2 = NormalizationService(registry=registry)
            server2 = AsyncNormServer(svc2, port=port).start()
            try:
                # same client object, no explicit reconnect: the transport
                # drops the stale socket and retries against the new server
                second = client.normalize(_rows(rng, 2), "tiny")
                assert second.output.shape == (2, HIDDEN)
                assert first.output.shape == (5, HIDDEN)
            finally:
                server2.close()
                svc2.close()
        finally:
            client.close()

    def test_connect_failure_is_transport_error(self):
        client = NormClient.connect("127.0.0.1", 1, connect_timeout=0.2)
        with pytest.raises(TransportError, match="connect"):
            client.ping()

    def test_oversized_frame_rejected_client_side(self, live_server, rng):
        from repro.api.transport import SocketTransport

        # negotiate=False: the hello exchange itself would trip the tiny
        # frame limit before the request under test is ever encoded.
        transport = SocketTransport(
            live_server.host, live_server.port, max_frame_bytes=128, negotiate=False
        )
        with NormClient(transport) as client:
            with pytest.raises(PayloadTooLargeError):
                client.normalize(_rows(rng), "tiny")


class TestBulkAndStreamOps:
    """The v2 envelopes through the shared handler (in-process transport)."""

    def test_normalize_bulk_matches_direct_service_calls(self, registry, rng):
        payloads = [_rows(rng, n) for n in (1, 4, 2)]
        with NormalizationService(registry=registry) as direct:
            golden = [direct.normalize(p, "tiny") for p in payloads]
        with NormClient.in_process(registry=registry) as client:
            results = client.normalize_bulk(payloads, "tiny")
        for result, reference in zip(results, golden):
            assert np.array_equal(result.output, reference.output)
            assert np.array_equal(result.isd, reference.isd)

    def test_normalize_bulk_fills_one_micro_batch(self, registry, rng):
        # equal-size payloads share a size bucket: one bulk frame becomes
        # exactly one micro-batch (no cross-client coalescing needed)
        payloads = [_rows(rng, 2) for _ in range(3)]
        with NormClient.in_process(registry=registry) as client:
            results = client.normalize_bulk(payloads, "tiny")
        assert all(result.batch_size == len(payloads) for result in results)

    def test_stream_yields_chunk_order_and_matches_direct(self, registry, rng):
        chunks = [_rows(rng, 2) for _ in range(5)]
        artifact = registry.get("tiny", "default")
        golden = [artifact.layer(0).engine_for("reference").run(c)[0] for c in chunks]
        with NormClient.in_process(registry=registry) as client:
            results = list(client.stream(chunks, "tiny", depth=2))
        assert len(results) == len(chunks)
        for result, reference in zip(results, golden):
            assert np.array_equal(result.output, reference)

    def test_stream_marks_the_last_chunk_final(self, registry, rng):
        recorded = []

        class RecordingTransport(InProcessTransport):
            def submit(self, payload):
                recorded.append(payload)
                return super().submit(payload)

        chunks = (chunk for chunk in [_rows(rng, 1) for _ in range(4)])  # generator
        with NormClient(RecordingTransport(registry=registry)) as client:
            results = list(client.stream(chunks, "tiny", depth=2))
        assert len(results) == 4
        assert [payload["final"] for payload in recorded] == [False, False, False, True]
        assert [payload["seq"] for payload in recorded] == [0, 1, 2, 3]
        assert len({payload["stream_id"] for payload in recorded}) == 1

    def test_submit_normalize_returns_completed_pending(self, registry, rng):
        payload = _rows(rng)
        with NormClient.in_process(registry=registry) as client:
            pending = client.submit_normalize(payload, "tiny")
            assert pending.done()  # in-process: completes synchronously
            result = pending.result()
        assert result.output.shape == payload.shape

    def test_normalize_many_depth_over_in_process(self, registry, rng):
        payloads = [_rows(rng, 2) for _ in range(5)]
        with NormClient.in_process(registry=registry) as client:
            lockstep = client.normalize_many(payloads, "tiny", depth=1)
            pipelined = client.normalize_many(payloads, "tiny", depth=3)
        for a, b in zip(lockstep, pipelined):
            assert np.array_equal(a.output, b.output)
        with pytest.raises(ValueError, match="depth"):
            client.normalize_many(payloads, "tiny", depth=0)

    def test_empty_bulk_rejected(self, registry):
        with NormClient.in_process(registry=registry) as client:
            with pytest.raises(BadSchemaError, match="at least one tensor"):
                client.normalize_bulk([], "tiny")

    def test_bulk_total_size_capped(self, registry, rng):
        transport = InProcessTransport(registry=registry, max_payload_elements=300)
        with NormClient(transport) as client:
            # each tensor fits, the sum does not
            with pytest.raises(PayloadTooLargeError, match="across"):
                client.normalize_bulk([_rows(rng, 4)] * 2, "tiny")

    def test_bulk_width_mismatch_is_bad_schema(self, registry, rng):
        with NormClient.in_process(registry=registry) as client:
            with pytest.raises(BadSchemaError, match="hidden"):
                client.normalize_bulk([rng.normal(size=(2, HIDDEN + 3))], "tiny")


class TestLazyPackageExports:
    def test_public_names_resolve_and_cache(self):
        import repro.api as api

        assert api.NormClient is NormClient
        assert api.SCHEMA_VERSION == SCHEMA_VERSION
        assert "NormalizeBulkRequest" in dir(api)
        assert api.FrameDecoder is not None
        with pytest.raises(AttributeError):
            api.NoSuchExport


# ---------------------------------------------------------------------------
# the remote engine backend
# ---------------------------------------------------------------------------


class TestRemoteBackend:
    def _specs(self, rng):
        computed = EngineSpec(
            kind="layernorm",
            hidden_size=HIDDEN,
            storage="int8",
            subsample_length=12,
        )
        skipped = EngineSpec(
            kind="layernorm",
            hidden_size=HIDDEN,
            storage="fp16",
            skipped=True,
            layer_index=2,
            predictor_anchor_layer=0,
            predictor_last_layer=3,
            predictor_decay=-0.04,
            predictor_anchor_log_isd=0.1,
        )
        gamma = rng.normal(1.0, 0.1, HIDDEN)
        beta = rng.normal(0.0, 0.1, HIDDEN)
        return computed, skipped, gamma, beta

    def test_registered_but_not_local(self):
        assert "remote" in available_backends()
        assert "remote" not in local_backends()
        with pytest.raises(ValueError, match="address"):
            build(EngineSpec(kind="layernorm", hidden_size=4), backend="remote")

    def test_round_trip_matches_reference_bit_for_bit(self, live_server, rng):
        computed, skipped, gamma, beta = self._specs(rng)
        stacked = rng.normal(size=(9, HIDDEN))
        starts = np.array([0, 3, 7])
        anchor = np.array([1.0, 1.5, np.nan, 0.5, 2.0, 0.7, 1.1, 0.9, 1.3])
        for spec, anchor_isd in ((computed, None), (skipped, anchor)):
            remote = build(
                spec,
                backend="remote",
                address=live_server.address,
                gamma=gamma,
                beta=beta,
            )
            local = build(spec, backend="reference", gamma=gamma, beta=beta)
            try:
                got = remote.run(stacked, starts, anchor_isd)
                expected = local.run(stacked, starts, anchor_isd)
                for remote_part, local_part in zip(got, expected):
                    assert np.array_equal(remote_part, local_part)
            finally:
                remote.backend.close()

    def test_run_many_ships_one_bulk_frame(self, live_server, rng):
        """Engine.run_many over the remote backend == looped reference runs."""
        computed, skipped, gamma, beta = self._specs(rng)
        groups = [
            (rng.normal(size=(3, HIDDEN)), None, None),
            (rng.normal(size=(6, HIDDEN)), np.array([0, 2, 5]), None),
        ]
        anchor = np.array([1.0, np.nan, 0.5, 2.0, 0.7, 1.1])
        skipped_groups = [(rows, starts, anchor[: rows.shape[0]]) for rows, starts, _ in groups]
        for spec, spec_groups in ((computed, groups), (skipped, skipped_groups)):
            remote = build(
                spec, backend="remote", address=live_server.address, gamma=gamma, beta=beta
            )
            local = build(spec, backend="reference", gamma=gamma, beta=beta)
            # frames_received is exact here: every already-answered frame
            # was counted before its response was sent (requests_served
            # lags -- each request's count-down increments it after its
            # write).
            before = live_server.wire_snapshot()["frames_received"]
            try:
                got = remote.run_many(spec_groups)
            finally:
                remote.backend.close()
            # one execute_bulk frame (+1 for the connect-time hello)
            assert live_server.wire_snapshot()["frames_received"] == before + 2
            expected = local.run_many(spec_groups)
            for got_parts, expected_parts in zip(got, expected):
                for got_part, expected_part in zip(got_parts, expected_parts):
                    assert np.array_equal(got_part, expected_part)

    def test_out_buffer_honored(self, live_server, rng):
        computed, _, gamma, beta = self._specs(rng)
        engine = build(
            computed, backend="remote", address=live_server.address, gamma=gamma, beta=beta
        )
        try:
            rows = rng.normal(size=(4, HIDDEN))
            out = np.empty((4, HIDDEN))
            result, _, _ = engine.run(rows, out=out)
            assert result is out
            assert np.array_equal(out, build(computed, gamma=gamma, beta=beta).run(rows)[0])
        finally:
            engine.backend.close()

    def test_server_rejects_bad_spec(self, live_server, rng):
        with NormClient.connect(live_server.host, live_server.port) as client:
            with pytest.raises(BadSchemaError, match="spec"):
                client.execute_spec({"kind": "hypernorm"}, rng.normal(size=(2, 4)))

    def test_server_side_engine_cache_reused(self, registry, rng):
        svc = NormalizationService(registry=registry)
        handler = ApiHandler(svc)
        spec = EngineSpec(kind="rmsnorm", hidden_size=HIDDEN)
        with NormClient(InProcessTransportWithHandler(handler)) as client:
            for _ in range(3):
                client.execute_spec(spec, rng.normal(size=(2, HIDDEN)))
        assert len(svc._engines) == 1
        svc.close()


def _execute_groups(rng):
    """Row-groups of every execute-group shape, all in the 8-row size class
    (so they stack into one batch): bare, with ``segment_starts``, with an
    ``anchor_isd`` holding NaN entries, and with both."""
    return [
        (rng.normal(size=(5, HIDDEN)), None, None),
        (rng.normal(size=(6, HIDDEN)), np.array([0, 2, 5]), None),
        (
            rng.normal(size=(7, HIDDEN)),
            None,
            np.array([1.0, np.nan, 0.5, 2.0, np.nan, 1.1, 0.9]),
        ),
        (
            rng.normal(size=(8, HIDDEN)),
            np.array([0, 3]),
            np.array([0.7, 1.3, np.nan, 1.0, 0.6, 2.2, 1.4, np.nan]),
        ),
    ]


def _execute_bulk_wire(spec, groups, gamma, beta, request_id=None, deadline_ms=None):
    def tensor(values):
        return None if values is None else TensorPayload.from_array(np.asarray(values))

    return ExecuteBulkRequest(
        spec=spec.to_dict(),
        groups=tuple(
            ExecuteGroup(
                rows=tensor(rows),
                segment_starts=tensor(starts),
                anchor_isd=tensor(anchor),
            )
            for rows, starts, anchor in groups
        ),
        gamma=tensor(gamma),
        beta=tensor(beta),
        request_id=request_id,
        deadline_ms=deadline_ms,
    ).to_wire()


class TestBatchedExecute:
    """``execute`` / ``execute_bulk`` groups ride the batching scheduler:
    they stack with other groups of their spec, expired budgets are shed,
    and a malformed group is refused before it is queued."""

    def test_mixed_bulk_frame_stacks_bit_identical_to_reference(self, live_server, rng):
        computed, skipped, gamma, beta = TestRemoteBackend()._specs(rng)
        batcher = live_server.service.batcher
        with NormClient.connect(live_server.host, live_server.port) as client:
            for spec in (computed, skipped):
                groups = _execute_groups(rng)
                before = batcher.batches_executed
                got = client.execute_spec_bulk(spec, groups, gamma=gamma, beta=beta)
                assert batcher.batches_executed == before + 1  # one kernel call
                reference = build(spec, backend="reference", gamma=gamma, beta=beta)
                for parts, (rows, starts, anchor) in zip(got, groups):
                    for got_part, want in zip(parts, reference.run(rows, starts, anchor)):
                        assert np.array_equal(got_part, want)

    def test_two_connections_share_one_batch(self, live_server, rng):
        computed, _, gamma, beta = TestRemoteBackend()._specs(rng)
        service = live_server.service
        # Hold the engine tick until both connections' requests are queued.
        live_server._schedule_tick = lambda: None
        payloads = [rng.normal(size=(3, HIDDEN)), rng.normal(size=(4, HIDDEN))]
        results = {}

        def call(index):
            with NormClient.connect(live_server.host, live_server.port) as client:
                results[index] = client.execute_spec(
                    computed, payloads[index], gamma=gamma, beta=beta
                )

        callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 10.0
        while service.batcher.pending_count < 2:
            assert time.monotonic() < deadline, "execute requests never queued"
            time.sleep(0.005)
        before = service.batcher.batches_executed
        del live_server._schedule_tick
        live_server._loop.call_soon_threadsafe(live_server._schedule_tick)
        for caller in callers:
            caller.join(timeout=10.0)
            assert not caller.is_alive()
        assert service.batcher.batches_executed == before + 1
        reference = build(computed, backend="reference", gamma=gamma, beta=beta)
        for index, rows in enumerate(payloads):
            for got_part, want in zip(results[index], reference.run(rows)):
                assert np.array_equal(got_part, want)

    @pytest.mark.parametrize("malformed", ["width", "segment_starts", "anchor_isd"])
    def test_malformed_group_fails_alone(self, registry, rng, malformed):
        _, skipped, gamma, beta = TestRemoteBackend()._specs(rng)
        svc = NormalizationService(registry=registry)
        handler = ApiHandler(svc)
        rows = rng.normal(size=(4, HIDDEN))
        bad_group = {
            "width": (rng.normal(size=(4, HIDDEN + 1)), None, None),
            "segment_starts": (rows, np.array([0, 2, 2]), None),
            "anchor_isd": (rows, None, np.ones(3)),
        }[malformed]
        good = [[(rng.normal(size=(4, HIDDEN)), None, np.full(4, 1.2))] for _ in range(2)]
        first = handler.begin(_execute_bulk_wire(skipped, good[0], gamma, beta, 1))
        # The malformed frame's well-formed group is refused with it.
        bad_pendings, bad_finish = handler.begin(
            _execute_bulk_wire(skipped, [good[1][0], bad_group], gamma, beta, 2)
        )
        second = handler.begin(_execute_bulk_wire(skipped, good[1], gamma, beta, 3))
        assert bad_pendings == []
        assert svc.batcher.pending_count == 2
        assert svc.batcher.drain_once() == 2  # the well-formed frames share a batch
        error = bad_finish()
        assert error["error"]["code"] == "bad_schema", error
        assert error["request_id"] == 2
        reference = build(skipped, backend="reference", gamma=gamma, beta=beta)
        for (pendings, finish), groups in zip((first, second), good):
            (result,) = parse_response(finish(), "execute_bulk").results
            (rows, starts, anchor), = groups
            expected = reference.run(rows, starts, anchor)
            for got_part, want in zip((result.output, result.mean, result.isd), expected):
                assert np.array_equal(got_part.to_array(), want)
        svc.close()

    @pytest.mark.parametrize("over", ["in_process", "socket"])
    def test_expired_budget_sheds_execute_ops(self, registry, rng, over):
        from repro.api.admission import AdmissionController
        from repro.api.envelopes import DeadlineExceededError

        computed, _, gamma, beta = TestRemoteBackend()._specs(rng)
        rows = rng.normal(size=(2, HIDDEN))
        execute = ExecuteSpecRequest(
            spec=computed.to_dict(),
            rows=TensorPayload.from_array(rows),
            request_id=2,
            deadline_ms=1e-6,
        ).to_wire()
        bulk = _execute_bulk_wire(
            computed, [(rows, None, None)], gamma, beta, request_id=3, deadline_ms=1e-6
        )
        svc = NormalizationService(registry=registry)
        if over == "in_process":
            answer = ApiHandler(svc).handle
            server = None
        else:
            # A near-zero service-time estimate, so the admission gate lets
            # the budget through to the scheduler.
            admission = AdmissionController(initial_service_time=1e-12, ema_alpha=1e-9)
            server = AsyncNormServer(svc, admission=admission).start()
            client = NormClient.connect(server.host, server.port)
            answer = client.transport.request
        try:
            for wire, op in ((execute, "execute"), (bulk, "execute_bulk")):
                response = answer(wire)
                assert response["request_id"] == wire["request_id"]
                with pytest.raises(DeadlineExceededError, match="before the request"):
                    parse_response(response, op)
        finally:
            if server is not None:
                client.close()
                server.close()
            svc.close()
        assert svc.batcher.requests_shed == 2


class InProcessTransportWithHandler:
    """Minimal transport over an externally-owned handler (test helper)."""

    def __init__(self, handler):
        self._handler = handler

    def request(self, payload):
        return self._handler.handle(payload)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# serving front door: submit-time validation + cost telemetry
# ---------------------------------------------------------------------------


class TestSubmitValidation:
    def test_unknown_backend_raises_at_submit_listing_registry(self, service, rng):
        with pytest.raises(ValueError) as excinfo:
            service.submit(_rows(rng), "tiny", backend="fpga-of-the-future")
        for name in available_backends():
            assert name in str(excinfo.value)

    def test_unknown_model_raises_at_submit_with_default_known_models(self, rng):
        registry = CalibrationRegistry(loader=_instant_loader, known_models=["tiny"])
        with NormalizationService(registry=registry) as svc:
            with pytest.raises(ValueError, match="registered models: tiny"):
                svc.submit(_rows(rng), "gpt5")

    def test_default_registry_knows_the_model_zoo(self):
        from repro.llm.config import available_models

        registry = CalibrationRegistry()
        assert registry.known_model_names() == available_models()
        with pytest.raises(ValueError, match="tiny"):
            registry.validate_model("definitely-not-a-model")

    def test_custom_loader_skips_model_validation(self, registry):
        assert registry.known_model_names() is None
        registry.validate_model("anything-goes")  # no raise

    def test_unknown_accelerator_raises_at_submit(self, service, rng):
        with pytest.raises(ValueError, match="haan-v1"):
            service.submit(_rows(rng), "tiny", backend="simulated", accelerator="tpu")

    def test_accelerator_on_costless_backend_fails_future(self, service, rng):
        future = service.submit(
            _rows(rng), "tiny", backend="vectorized", accelerator="haan-v2"
        )
        service.batcher.drain_all()
        with pytest.raises(ValueError, match="accelerator"):
            future.result()


class TestCostTelemetry:
    def test_simulated_cost_aggregates_into_snapshot(self, service, rng):
        service.normalize_many([_rows(rng) for _ in range(3)], "tiny", backend="simulated")
        snap = service.telemetry.snapshot()
        cost = snap["modelled_cost"]
        assert cost["batches"] >= 1
        assert cost["total_cycles"] > 0
        assert cost["energy_nj"] > 0
        assert cost["by_config"]["haan-v1"]["cycles"] == cost["total_cycles"]
        assert "modelled cycles" in service.telemetry.format_table()

    def test_costless_backends_leave_cost_empty(self, service, rng):
        service.normalize(_rows(rng), "tiny", backend="vectorized")
        cost = service.telemetry.snapshot()["modelled_cost"]
        assert cost["batches"] == 0
        assert "modelled cycles" not in service.telemetry.format_table()

    def test_per_request_accelerator_selection_attributes_cost(self, service, rng):
        service.normalize(_rows(rng), "tiny", backend="simulated", accelerator="haan-v1")
        service.normalize(_rows(rng), "tiny", backend="simulated", accelerator="dfx")
        by_config = service.telemetry.snapshot()["modelled_cost"]["by_config"]
        assert set(by_config) == {"haan-v1", "dfx"}
        # DFX's 16-lane datapath needs more cycles than HAAN-v1's 128 lanes
        assert by_config["dfx"]["cycles"] > by_config["haan-v1"]["cycles"]

    def test_accelerator_requests_never_share_a_batch(self, service, rng):
        for accelerator in ("haan-v1", "haan-v2"):
            service.submit_many(
                [_rows(rng, 1)] * 2, "tiny", backend="simulated", accelerator=accelerator
            )
        service.batcher.drain_all()
        snap = service.telemetry.snapshot()
        assert snap["modelled_cost"]["batches"] == 2


class TestBaselineBackends:
    def test_baselines_registered_as_costed_simulated_variants(self):
        assert {"simulated-sole", "simulated-dfx", "simulated-mhaa"} <= set(
            available_backends()
        )

    def test_baseline_backend_bit_identical_and_costed(self, rng):
        spec = EngineSpec(kind="layernorm", hidden_size=HIDDEN, storage="fp16")
        rows = rng.normal(size=(6, HIDDEN))
        golden = build(spec, backend="reference").run(rows)
        for name, config_name in (
            ("simulated-sole", "sole"),
            ("simulated-dfx", "dfx"),
            ("simulated-mhaa", "mhaa"),
        ):
            engine = build(spec, backend=name)
            out, mean, isd = engine.run(rows)
            assert np.array_equal(out, golden[0])
            record = engine.backend.last_record
            assert record is not None
            assert record.config_name == config_name
            assert record.total_cycles > 0

    def test_baseline_cycle_models_differ_structurally(self, rng):
        spec = EngineSpec(kind="layernorm", hidden_size=1024, storage="fp16")
        rows = rng.normal(size=(8, 1024))
        cycles = {}
        for name in ("simulated-sole", "simulated-dfx", "simulated-mhaa"):
            engine = build(spec, backend=name)
            engine.run(rows)
            cycles[name] = engine.backend.last_record.total_cycles
        # DFX's 16-lane unit must cost more cycles than SOLE's 200 lanes
        assert cycles["simulated-dfx"] > cycles["simulated-sole"]

    def test_accelerator_configs_resolve_baselines(self):
        from repro.hardware.configs import resolve_accelerator_config

        for name, lanes in (("sole", 200), ("dfx", 16), ("mhaa", 100)):
            config = resolve_accelerator_config(name)
            assert config.stats_width == lanes
        with pytest.raises(ValueError, match="sole"):
            resolve_accelerator_config("abacus")


# ---------------------------------------------------------------------------
# the api experiment and server lifecycle
# ---------------------------------------------------------------------------


class TestApiExperiment:
    def test_transport_parity_is_exact(self):
        from repro.eval.experiments import run_experiment

        result = run_experiment(
            "api", requests=2, rows_per_request=2, loader=_instant_loader
        )
        for name in (
            "in-process",
            "socket-binary",
            "socket-base64",
            "socket-pipelined",
            "socket-bulk",
        ):
            assert result.metadata["deviations"][name] == 0.0
        assert {row[0] for row in result.rows} == {
            "direct",
            "in-process",
            "socket-binary",
            "socket-base64",
            "socket-pipelined",
            "socket-bulk",
        }


class TestClientCli:
    """haan-client round trips against a live server, per traffic shape."""

    def _run(self, live_server, *extra):
        from repro.api.cli import main

        return main(["--connect", live_server.address, "--model", "tiny", *extra])

    def test_lockstep_pipelined_and_bulk_with_golden_check(self, live_server, capsys):
        for shape in ([], ["--depth", "4", "--pool", "2"], ["--bulk"]):
            code = self._run(
                live_server, "--requests", "6", *shape, "--golden-check"
            )
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert "golden check: 6 response(s) bit-identical" in captured.out

    def test_spec_and_telemetry_modes(self, live_server, capsys):
        assert self._run(live_server, "--spec") == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["hidden_size"] == HIDDEN
        assert self._run(live_server, "--telemetry") == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "wire" in snapshot["telemetry"]

    def test_input_payload_file(self, live_server, tmp_path, capsys):
        payload_file = tmp_path / "payload.json"
        payload_file.write_text(json.dumps(np.ones((2, HIDDEN)).tolist()))
        assert self._run(live_server, "--input", str(payload_file)) == 0
        assert "2 row(s) normalized" in capsys.readouterr().out

    def test_unknown_backend_exits_nonzero(self, live_server, capsys):
        assert self._run(live_server, "--backend", "abacus") == 1
        assert "unknown_backend" in capsys.readouterr().err

    def test_bad_arguments_rejected(self, live_server):
        from repro.api.cli import main

        with pytest.raises(SystemExit):
            main(["--connect", "no-port-here"])
        with pytest.raises(SystemExit):
            main(["--connect", live_server.address, "--depth", "0"])


class TestServerLifecycle:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:8471") == ("127.0.0.1", 8471)
        assert parse_address(":9000") == ("0.0.0.0", 9000)
        for bad in ("8471", "host:", "host:abc"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_close_is_idempotent_and_unblocks_port(self, registry):
        svc = NormalizationService(registry=registry)
        server = AsyncNormServer(svc).start()
        port = server.port
        server.close()
        server.close()
        svc.close()
        # the port is immediately rebindable (shutdown woke the accept loop)
        svc2 = NormalizationService(registry=registry)
        deadline = time.monotonic() + 5.0
        while True:
            try:
                server2 = AsyncNormServer(svc2, port=port)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        server2.close()
        svc2.close()

    def test_requests_served_counter(self, live_server, rng):
        before = live_server.requests_served
        with NormClient.connect(live_server.host, live_server.port) as client:
            client.ping()
            client.normalize(_rows(rng), "tiny")
        # +3: the connect-time hello handshake is itself a served request.
        # Workers increment the counter *after* sending the response, so
        # the last bump can land marginally after the client returns.
        deadline = time.monotonic() + 5.0
        while live_server.requests_served < before + 3:
            assert time.monotonic() < deadline, live_server.requests_served
            time.sleep(0.01)
        assert live_server.requests_served == before + 3
