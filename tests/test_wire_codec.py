"""The op-table wire codec on the serving path.

* Tensor shapes are counted exactly: a shape whose element count
  overflows int64, or that numpy cannot represent, is answered with a
  typed ``payload_too_large`` / ``bad_schema`` error, never ``internal``.
* A socket round trip of ``normalize`` and ``normalize_bulk`` visits only
  the ops' tensor slots: none of the deep envelope walks runs, on either
  side, over one connection or a pool of two.
* Every op's tensor slots cover both of its sides, and a buffer a
  hand-built envelope keeps outside them still round-trips.
* ``perfbench/tracing.py`` still finds every hot-path entry point it
  wraps, so a traced benchmark run attributes the codec's cost.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import envelopes, framing, tensors
from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import SCHEMA_VERSION
from repro.api.handler import ApiHandler
from repro.api.transport import SocketTransport
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService
from repro.tenancy import QuotaPolicy, TenancyController, TenantDirectory, TenantSpec

from test_api import _instant_loader

HIDDEN = 48
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")

#: Element counts that wrap int64 (2**64 -> 0) or that numpy cannot lay
#: out (a zero-size shape whose other dimensions overflow intp).
HOSTILE_SHAPES = ([2**32, 2**32], [3, 2**62, 0], [2**63, 2])


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


def _serve(registry, tenancy=None):
    service = NormalizationService(registry=registry)
    server = AsyncNormServer(service, tenancy=tenancy).start()
    return service, server


@pytest.fixture()
def live_server(registry):
    service, server = _serve(registry)
    yield server
    server.close()
    service.close()


@pytest.fixture()
def tenant_server(registry):
    """A server that meters tenants, so the quota's row count runs too."""
    directory = TenantDirectory(
        tenants=[TenantSpec(name="acme", token="tok-acme", tier="metered")],
        tiers={"metered": QuotaPolicy(requests_per_s=1000.0, burst_seconds=1.0)},
    )
    service, server = _serve(registry, TenancyController(directory=directory))
    yield server
    server.close()
    service.close()


def _rows(rng, count=3):
    return rng.normal(0.0, 1.5, size=(count, HIDDEN))


def _hostile_tensor(shape, encoding):
    data = b"" if encoding == "binary" else ""
    return {"dtype": "float64", "shape": shape, "encoding": encoding, "data": data}


def _hostile_envelope(op, shape, encoding):
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "op": op,
        "request_id": 77,
        "model": "tiny",
        "layer_index": 0,
    }
    if op == "normalize":
        envelope["tensor"] = _hostile_tensor(shape, encoding)
    else:  # a valid tensor first, so the bulk's per-tensor checks run in turn
        zeros = tensors.TensorPayload.from_array(np.zeros((1, HIDDEN))).to_wire()
        envelope["tensors"] = [zeros, _hostile_tensor(shape, encoding)]
    return envelope


class TestShapeOverflow:
    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_num_elements_is_exact(self, shape):
        payload = tensors.TensorPayload.from_wire(_hostile_tensor(shape, "binary"))
        assert payload.num_elements == int(np.prod(np.array(shape, dtype=object)))

    @pytest.mark.parametrize("encoding", ["binary", "base64"])
    @pytest.mark.parametrize("op", ["normalize", "normalize_bulk"])
    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_in_process_answers_a_typed_code(self, registry, op, encoding, shape):
        with NormalizationService(registry=registry) as service:
            response = ApiHandler(service).handle(_hostile_envelope(op, shape, encoding))
        assert response["ok"] is False
        assert response["error"]["code"] in ("payload_too_large", "bad_schema")

    @pytest.mark.parametrize("encoding", ["binary", "base64"])
    @pytest.mark.parametrize("op", ["normalize", "normalize_bulk"])
    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_socket_answers_a_typed_code(self, live_server, op, encoding, shape):
        transport = SocketTransport(live_server.host, live_server.port)
        try:
            response = transport.request(_hostile_envelope(op, shape, encoding))
        finally:
            transport.close()
        assert response["ok"] is False
        assert response["error"]["code"] in ("payload_too_large", "bad_schema")


class TestNoDeepWalkOnTheServingPath:
    WALKS = ("rewrite_binary_tensors", "_walk")

    @pytest.fixture()
    def walk_calls(self, monkeypatch):
        calls = []
        for module in (tensors, envelopes):
            for name in self.WALKS:
                original = getattr(module, name)

                def counted(*args, _original=original, _name=name, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "connect",
        [
            {},
            {"pool_size": 2},  # requests spread over two pooled connections
        ],
        ids=["binary", "pooled"],
    )
    def test_round_trips_visit_only_tensor_slots(self, tenant_server, rng, walk_calls, connect):
        rows = _rows(rng)
        with NormClient.connect(
            tenant_server.host, tenant_server.port, token="tok-acme", **connect
        ) as client:
            client.wait_until_ready()
            del walk_calls[:]  # the hello handshake is not the serving path
            single = client.normalize(rows, "tiny")
            bulk = client.normalize_bulk([rows, rows[:1]], "tiny")
            connections = client.transport.stats()["connections"]
        assert walk_calls == []
        assert connections == connect.get("pool_size", 1)
        assert np.array_equal(bulk[0].output, single.output)


class TestPerfbenchTracing:
    SPANS = ("client.encode", "client.decode", "codec.decode", "codec.encode", "handler", "engine")

    def test_every_traced_entry_point_records_spans(self, live_server, rng, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        import tracing

        store = tracing.SpanStore()
        server_patch = tracing.install_server(store)
        client_patch = tracing.install_client(store)
        try:
            with NormClient.connect(live_server.host, live_server.port) as client:
                client.normalize(_rows(rng), "tiny")
                client.normalize_bulk([_rows(rng), _rows(rng, 1)], "tiny")
        finally:
            client_patch.undo()
            server_patch.undo()
        names = {span[0] for span in store.spans}
        missing = [name for name in self.SPANS if name not in names]
        assert not missing, f"no spans for {missing}; recorded {sorted(names)}"
        assert not hasattr(tensors.TensorPayload.from_array, "__wrapped__")  # undone


def test_handler_dispatch_covers_the_op_table():
    assert set(ApiHandler._OPS) == set(envelopes.OPS)


def test_op_slots_are_the_union_of_both_sides():
    # A slot walk never trusts an envelope's `ok` to pick a side.
    for op in envelopes.OPS.values():
        assert set(op.request.slots) | set(op.response.slots) == set(op.slots)
        assert envelopes.tensor_slots({"op": op.name, "ok": True}) == op.slots

    @envelopes._record
    class Clash(envelopes._Response):
        op = "normalize"
        tensor: list = envelopes.wire("tensors")

    with pytest.raises(TypeError, match="differs by side"):
        envelopes.Op(envelopes.NormalizeRequest, Clash)


class TestBuffersOutsideTheSlots:
    def test_round_trip_like_an_op_outside_the_table(self, rng):
        arrays = [_rows(rng), _rows(rng, 1)]
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "op": "normalize_bulk",
            "request_id": 1,
            "items": [tensors.TensorPayload.from_array(a, "binary").to_wire() for a in arrays],
        }
        frame = framing.encode_frame(envelope)
        assert framing.frame_kind(frame[framing.FRAME_HEADER.size:]) == "binary"
        (decoded,) = framing.FrameDecoder().feed(frame)
        for array, item in zip(arrays, decoded["items"]):
            assert np.array_equal(tensors.TensorPayload.from_wire(item).to_array(), array)

    def test_a_value_json_cannot_carry_is_a_typed_error(self):
        envelope = {"schema_version": SCHEMA_VERSION, "op": "ping", "request_id": 1}
        with pytest.raises(envelopes.BadSchemaError, match="not JSON-serializable"):
            framing.encode_frame(dict(envelope, extra=object()))
