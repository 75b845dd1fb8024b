"""Golden wire-frame corpus: the codec's bytes must never drift.

``tests/golden/wire_corpus.jsonl`` holds one encoded frame per line for
every op's request and response x each tensor encoding (``binary``,
``base64``), all at :data:`~repro.api.envelopes.SCHEMA_VERSION`, plus one
error envelope per :data:`~repro.api.envelopes.ERROR_CLASSES` code.  The
``hello`` and ``ping`` responses advertise the range ``1..3`` the
previous build sent, which this build still parses.  Each frame must

* decode, parse, and re-encode byte-identically (JSON key order and the
  binary buffer layout included);
* parse again, after the re-encode, to an equal object;
* be what :func:`build_corpus` produces today from the same constructor
  arguments.

``tests/golden/wire_corpus_retired.jsonl`` keeps, verbatim, the frames the
previous build also emitted: every one stamped schema version 1 or 2, and
every ``list``-encoded tensor.  This build speaks only version 3, so each
must fail typed -- ``schema_version`` for the old stamp, ``bad_schema`` for
a ``list`` tensor -- except the ``hello`` frames, which parse at any
version and still negotiate 3 from the previous build's range ``1..3``.

Regenerate the file only for a deliberate wire change::

    PYTHONPATH=src python tests/test_wire_corpus.py
"""

from __future__ import annotations

import base64
import json
import os
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.api.envelopes import (
    ERROR_CLASSES,
    SCHEMA_VERSION,
    ErrorResponse,
    ExecuteBulkRequest,
    ExecuteBulkResponse,
    ExecuteGroup,
    ExecuteResult,
    ExecuteSpecRequest,
    ExecuteSpecResponse,
    HelloRequest,
    HelloResponse,
    NormalizeBulkRequest,
    NormalizeBulkResponse,
    NormalizeRequest,
    NormalizeResponse,
    NormalizeResult,
    PingRequest,
    PingResponse,
    SpecRequest,
    SpecResponse,
    StreamChunkRequest,
    StreamChunkResponse,
    TelemetryRequest,
    TelemetryResponse,
    TensorPayload,
    negotiate_version,
    parse_hello_response,
    parse_request,
    parse_response,
)
from repro.api.errors import BadSchemaError, SchemaVersionError
from repro.api.framing import FrameDecoder, encode_frame

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden", "wire_corpus.jsonl")
RETIRED_PATH = os.path.join(os.path.dirname(__file__), "golden", "wire_corpus_retired.jsonl")

ENCODINGS = ("binary", "base64")
SPEC = {"kind": "layernorm", "hidden_size": 4, "eps": 1e-05}


def _rows(count: int, offset: float = 0.0) -> np.ndarray:
    return (np.arange(count * 4, dtype=np.float64).reshape(count, 4) + offset) / 8.0


def _result(encoding: str, offset: float) -> NormalizeResult:
    def t(array):
        return TensorPayload.from_array(array, encoding)

    return NormalizeResult(
        tensor=t(_rows(2, offset)),
        mean=t(np.array([0.1875, 0.6875]) + offset),
        isd=t(np.array([3.5, 2.25])),
        was_predicted=offset > 0,
        was_subsampled=True,
        batch_size=3,
        queue_wait=0.00125,
        batch_latency=0.0005,
        degradation=1,
    )


def _tensor_envelopes(encoding: str) -> Iterator[Tuple[str, str, Any]]:
    """``(op, kind, envelope object)`` of every op that carries tensors."""

    def t(array):
        return TensorPayload.from_array(array, encoding)

    yield "normalize", "request", NormalizeRequest(
        model="tiny", tensor=t(_rows(2)), layer_index=1, deadline_ms=250.0,
        request_id=11,
    )
    yield "normalize", "response", NormalizeResponse(
        request_id=11, tensor=t(_rows(2, 1.0)), mean=t(np.array([0.25, 0.75])),
        isd=t(np.array([4.0, 2.5])), was_predicted=False, was_subsampled=True,
        batch_size=3, queue_wait=0.00125, batch_latency=0.0005,
        backend="vectorized", accelerator=None, degradation=1,
    )
    yield "normalize_bulk", "request", NormalizeBulkRequest(
        model="tiny", tensors=(t(_rows(1)), t(_rows(2, 3.0))), layer_index=2,
        accelerator="haan-v2", request_id=12,
    )
    yield "normalize_bulk", "response", NormalizeBulkResponse(
        request_id=12, results=(_result(encoding, 0.0), _result(encoding, 1.0)),
        backend="vectorized", accelerator="haan-v2",
    )
    yield "stream", "request", StreamChunkRequest(
        model="tiny", tensor=t(_rows(1, 2.0)), stream_id=7, seq=2, final=True,
        backend="reference", request_id=13,
    )
    yield "stream", "response", StreamChunkResponse(
        request_id=13, stream_id=7, seq=2, final=True, result=_result(encoding, 2.0),
        backend="reference",
    )
    yield "spec", "response", SpecResponse(
        request_id=14, spec=dict(SPEC), gamma=t(np.ones(4)), beta=t(np.zeros(4)),
        model="tiny", layer_index=1, num_layers=4,
    )
    yield "execute", "request", ExecuteSpecRequest(
        spec=dict(SPEC), rows=t(_rows(2)), gamma=t(np.ones(4)), beta=t(np.zeros(4)),
        segment_starts=t(np.array([0, 1], dtype=np.int64)),
        anchor_isd=t(np.array([1.0, 0.5])), backend="reference", deadline_ms=80.0,
        request_id=15,
    )
    yield "execute", "response", ExecuteSpecResponse(
        request_id=15, output=t(_rows(2, 0.5)), mean=t(np.array([0.5, 1.0])),
        isd=t(np.array([2.0, 1.5])), backend="reference",
    )
    yield "execute_bulk", "request", ExecuteBulkRequest(
        spec=dict(SPEC),
        groups=(
            ExecuteGroup(rows=t(_rows(1))),
            ExecuteGroup(
                rows=t(_rows(2, 1.0)),
                segment_starts=t(np.array([0, 1], dtype=np.int64)),
                anchor_isd=t(np.array([1.25, 0.75])),
            ),
        ),
        gamma=t(np.ones(4)), beta=None, backend="vectorized", request_id=16,
    )
    yield "execute_bulk", "response", ExecuteBulkResponse(
        request_id=16,
        results=tuple(
            ExecuteResult(
                output=t(_rows(rows, offset)),
                mean=t(np.full(rows, offset)),
                isd=t(np.full(rows, 2.0)),
            )
            for rows, offset in ((1, 0.0), (2, 1.0))
        ),
        backend="vectorized",
    )


def _plain_envelopes() -> Iterator[Tuple[str, str, Any]]:
    """``(op, kind, envelope object)`` of every op without tensors."""
    yield "spec", "request", SpecRequest(
        model="tiny", layer_index=1, reference=True, request_id=21
    )
    yield "hello", "request", HelloRequest(
        min_schema_version=1, max_schema_version=3, token="secret", request_id=22
    )
    yield "hello", "response", HelloResponse(
        request_id=22, schema_version_chosen=3, min_schema_version=1,
        max_schema_version=3, backends=["reference", "vectorized"],
    )
    yield "ping", "request", PingRequest(request_id=23)
    yield "ping", "response", PingResponse(
        request_id=23, backends=["reference"], models=["tiny", "tiny-rms"],
        min_schema_version=1, max_schema_version=3,
    )
    yield "telemetry", "request", TelemetryRequest(request_id=24)
    yield "telemetry", "response", TelemetryResponse(
        request_id=24,
        telemetry={"requests": 5, "latency_ms": {"p50": 1.25}},
        registry={"hits": 4, "misses": 1},
    )


def _entries() -> Iterator[Tuple[Dict[str, Any], Any]]:
    for encoding in ENCODINGS:
        for op, kind, obj in _tensor_envelopes(encoding):
            yield {"op": op, "kind": kind, "encoding": encoding, "version": SCHEMA_VERSION}, obj
    for op, kind, obj in _plain_envelopes():
        yield {"op": op, "kind": kind, "encoding": None, "version": SCHEMA_VERSION}, obj
    for code in sorted(ERROR_CLASSES):
        retry_after = 12.5 if code in ("overloaded", "quota_exceeded") else None
        obj = ErrorResponse(
            code=code, message=f"{code} happened", request_id=31, retry_after_ms=retry_after
        )
        yield {
            "op": "error", "kind": "error", "encoding": None, "version": SCHEMA_VERSION,
            "code": code,
        }, obj


def build_corpus() -> List[Dict[str, Any]]:
    """Every corpus entry, its frame encoded by the codec under test."""
    corpus = []
    for meta, obj in _entries():
        frame = encode_frame(obj.to_wire())
        corpus.append(dict(meta, frame=base64.b64encode(frame).decode("ascii")))
    return corpus


def _load_corpus(path: str = CORPUS_PATH) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _entry_id(entry: Dict[str, Any]) -> str:
    parts = [entry["op"], entry["kind"], entry.get("code") or entry["encoding"] or "-"]
    return "-".join(parts) + f"-v{entry['version']}"


CORPUS = _load_corpus() if os.path.exists(CORPUS_PATH) else []
RETIRED = _load_corpus(RETIRED_PATH)
RETIRED_HELLOS = [e for e in RETIRED if e["op"] == "hello"]
RETIRED_REFUSED = [e for e in RETIRED if e["op"] != "hello"]


def retired_error_code(entry: Dict[str, Any]) -> str:
    """The error code this build answers a retired frame with."""
    return "schema_version" if entry["version"] != SCHEMA_VERSION else "bad_schema"


def _decode(frame: bytes) -> Dict[str, Any]:
    decoder = FrameDecoder()
    (envelope,) = decoder.feed(frame)
    decoder.finish()
    return envelope


def _parse(entry: Dict[str, Any], envelope: Dict[str, Any]) -> Any:
    if entry["kind"] == "error":
        return ErrorResponse.from_wire(envelope)
    if entry["kind"] == "request":
        return parse_request(envelope)
    if entry["op"] == "hello":
        return parse_hello_response(envelope)
    return parse_response(envelope, entry["op"])


def test_corpus_covers_every_op_encoding_and_version():
    assert CORPUS, f"missing {CORPUS_PATH}"
    assert len({_entry_id(e) for e in CORPUS}) == len(CORPUS)
    keys = {(e["op"], e["kind"], e["encoding"], e["version"]) for e in CORPUS}
    for op in ("normalize", "normalize_bulk", "stream", "execute", "execute_bulk"):
        for kind in ("request", "response"):
            for encoding in ENCODINGS:
                assert (op, kind, encoding, SCHEMA_VERSION) in keys
    assert {e["code"] for e in CORPUS if e["kind"] == "error"} == set(ERROR_CLASSES)


def test_codec_still_produces_the_corpus():
    assert build_corpus() == CORPUS


@pytest.mark.parametrize("entry", CORPUS, ids=[_entry_id(e) for e in CORPUS])
def test_frame_round_trips_byte_identically(entry):
    frame = base64.b64decode(entry["frame"])
    envelope = _decode(frame)
    assert envelope["schema_version"] == entry["version"]
    obj = _parse(entry, envelope)
    again = encode_frame(obj.to_wire())
    assert again == frame
    assert _parse(entry, _decode(again)) == obj


@pytest.mark.parametrize(
    "entry",
    [e for e in CORPUS if e["kind"] == "error"],
    ids=[e["code"] for e in CORPUS if e["kind"] == "error"],
)
def test_error_frames_raise_their_taxonomy_member(entry):
    envelope = _decode(base64.b64decode(entry["frame"]))
    with pytest.raises(ERROR_CLASSES[entry["code"]]) as excinfo:
        parse_response(envelope, "normalize")
    assert type(excinfo.value) is ERROR_CLASSES[entry["code"]]
    assert str(excinfo.value) == f"{entry['code']} happened"


def test_retired_corpus_holds_only_v1_v2_and_list_frames():
    assert len(RETIRED) == 57
    assert len({_entry_id(e) for e in RETIRED}) == len(RETIRED)
    assert not {_entry_id(e) for e in RETIRED} & {_entry_id(e) for e in CORPUS}
    for entry in RETIRED:
        assert entry["version"] in (1, 2) or entry["encoding"] == "list"
    assert {e["version"] for e in RETIRED} == {1, 2, SCHEMA_VERSION}


@pytest.mark.parametrize("entry", RETIRED_REFUSED, ids=[_entry_id(e) for e in RETIRED_REFUSED])
def test_retired_frame_fails_typed(entry):
    envelope = _decode(base64.b64decode(entry["frame"]))
    assert envelope["schema_version"] == entry["version"]
    expected = SchemaVersionError if entry["version"] != SCHEMA_VERSION else BadSchemaError
    with pytest.raises(BadSchemaError) as excinfo:
        _parse(entry, envelope)
    assert type(excinfo.value) is expected
    assert excinfo.value.code == retired_error_code(entry)


@pytest.mark.parametrize("entry", RETIRED_HELLOS, ids=[_entry_id(e) for e in RETIRED_HELLOS])
def test_previous_build_hello_still_negotiates_this_version(entry):
    envelope = _decode(base64.b64decode(entry["frame"]))
    assert envelope["schema_version"] == entry["version"] != SCHEMA_VERSION
    hello = _parse(entry, envelope)
    assert (hello.min_schema_version, hello.max_schema_version) == (1, SCHEMA_VERSION)
    # Each side re-derives the version from the other's advertised range.
    chosen = negotiate_version(
        hello.min_schema_version, hello.max_schema_version, SCHEMA_VERSION, SCHEMA_VERSION
    )
    assert chosen == SCHEMA_VERSION
    if entry["kind"] == "response":
        assert hello.schema_version_chosen == SCHEMA_VERSION


if __name__ == "__main__":
    os.makedirs(os.path.dirname(CORPUS_PATH), exist_ok=True)
    with open(CORPUS_PATH, "w") as handle:
        for item in build_corpus():
            handle.write(json.dumps(item, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH}")
