"""Versioned wire envelopes of the public normalization API.

Every message between :class:`~repro.api.client.NormClient` and a server
(or the in-process handler) is one JSON-serializable dict with the fixed
keys ``schema_version``, ``op`` and ``request_id`` plus the op's payload.
This module owns that schema:

* The envelope records: frozen dataclasses whose fields are declarations
  (:func:`wire`: wire kind, required or not, default, ``None`` left out
  or not).  One generic codec (:class:`_Record`) maps every record to its
  wire dict and back in declaration order, which *is* the JSON key order
  and the binary buffer order.
* The **op table** :data:`OPS`: per op, its request and response
  records.  It drives :func:`parse_request`, :func:`parse_response` and
  the handler's dispatch.  Each record's **tensor slots** follow from its
  tensor fields (``tensor``, ``tensors[*]``,
  ``results[*].{tensor,mean,isd}``,
  ``groups[*].{rows,segment_starts,anchor_isd}``, ...); framing and the
  quota's row count visit only those (:func:`rewrite_slot_tensors`),
  never a whole envelope.
* One version: both ends speak exactly :data:`SCHEMA_VERSION`, and any
  other stamp is a typed ``schema_version`` error.  Only ``hello`` parses
  at any version, so :func:`negotiate_version` can still name both
  ranges when they are disjoint.
* :class:`ErrorResponse`, the wire form of the :class:`ApiError` taxonomy.

:mod:`repro.api.tensors` (:class:`TensorPayload`) and
:mod:`repro.api.errors` are re-exported here.  All three modules import
only the standard library and numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type

from repro.api.errors import (  # noqa: F401 -- re-exported
    ERROR_CLASSES, ApiError, AuthenticationError, BadSchemaError, DeadlineExceededError,
    NoHealthyReplicaError, OverloadedError, PayloadTooLargeError, QuotaExceededError,
    SchemaVersionError, TransportError, UnknownBackendError, UnknownModelError,
    error_for_code,
)
from repro.api.tensors import (  # noqa: F401 -- re-exported
    TENSOR_DTYPES, TENSOR_ENCODINGS, TensorPayload, _binary_data_view, _new, _walk,
    is_binary_tensor_dict, rewrite_binary_tensors,
)

#: The one schema version both ends speak.  v3 clients that still send
#: the retired ``shm_attach`` op get a typed ``bad_schema`` error, which
#: they read as a refusal and stay on plain TCP.
SCHEMA_VERSION = 3

_client_request_ids = itertools.count(1)
_client_stream_ids = itertools.count(1)


def next_request_id() -> int:
    """Process-wide monotonically increasing client request id."""
    return next(_client_request_ids)


def next_stream_id() -> int:
    """Process-wide monotonically increasing client stream id."""
    return next(_client_stream_ids)


def negotiate_version(
    client_min: int, client_max: int, server_min: int, server_max: int
) -> int:
    """Pick the highest schema version both peers speak.

    Disjoint ranges fail with a :class:`SchemaVersionError` naming *both*
    ranges, so either side's operator can see which peer is behind.
    """
    for name, low, high in (("client", client_min, client_max),
                            ("server", server_min, server_max)):
        if low > high:
            raise SchemaVersionError(f"{name} schema-version range {low}..{high} is empty")
    chosen = min(client_max, server_max)
    if chosen < max(client_min, server_min):
        raise SchemaVersionError(
            f"no common schema version: client speaks {client_min}..{client_max}, "
            f"server speaks {server_min}..{server_max}"
        )
    return chosen


def validate_deadline_ms(value: Any, where: str = "request") -> Optional[float]:
    """Validate a ``deadline_ms`` value (None, or a positive finite number).

    Shared by client submit, envelope decoding and admission control, so a
    bad deadline gets the same typed :class:`BadSchemaError` everywhere.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadSchemaError(
            f"{where} deadline_ms has type {type(value).__name__}; "
            f"expected a positive number of milliseconds or null"
        )
    deadline = float(value)
    if not deadline > 0 or deadline != deadline or deadline == float("inf"):
        raise BadSchemaError(
            f"{where} deadline_ms must be a positive finite number of "
            f"milliseconds, got {value!r}"
        )
    return deadline


def _type_error(where: str, key: str, value: Any, types: tuple) -> BadSchemaError:
    expected = " or ".join(t.__name__ for t in types)
    return BadSchemaError(
        f"{where} field {key!r} has type {type(value).__name__}; expected {expected}"
    )


# ---------------------------------------------------------------------------
# field declarations and the generic record codec
# ---------------------------------------------------------------------------


class _Field:
    """One declared field; :func:`_record` fills in the name and defaults."""

    def __init__(self, kind, required, omit_none, nonempty, record):
        self.kind, self.required, self.omit_none = kind, required, omit_none
        self.nonempty, self.record = nonempty, record
        self.types, self.decode, self.encode = _KINDS[kind]
        self.many = kind in ("tensors", "records")
        self.is_slot = kind in ("tensor", "tensors") or record is not None


def wire(
    kind: str,
    default: Any = MISSING,
    *,
    required: Optional[bool] = None,
    omit_none: bool = False,
    nonempty: Optional[str] = None,
    record: Any = None,
    factory: Optional[Callable[[], Any]] = None,
):
    """Declare one envelope field.

    ``kind``: ``str``, ``int``, ``uint`` (non-negative), ``bool``,
    ``float`` (any JSON number), ``dict``, ``list``, ``deadline``
    (:func:`validate_deadline_ms`), ``tensor``, ``tensors`` (a list), or
    ``record`` / ``records`` (one / a list of the nested ``record``).
    ``required``: the peer must send it (default: when the constructor
    has no default).  ``omit_none``: leave ``None`` out instead of sending
    null.  ``nonempty``: the item a list kind must carry at least one of.
    """
    meta = {"wire": _Field(kind, required, omit_none, nonempty, record)}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


def _decode_uint(value, where, f):
    if isinstance(value, bool) or value < 0:
        raise BadSchemaError(f"{where} {f.name} must be a non-negative integer, got {value!r}")
    return value


def _decode_nested(value, where, f):
    return (f.record or TensorPayload).from_wire(value, f"{where}.{f.name}")


def _decode_items(value, where, f):
    if f.nonempty and not value:
        raise BadSchemaError(f"{where} must carry at least one {f.nonempty}")
    decode = (f.record or TensorPayload).from_wire
    return tuple(decode(item, f"{where}.{f.name}[{i}]") for i, item in enumerate(value))


#: kind -> (accepted types, decode(value, where, field) or None, encode or None)
_KINDS: Dict[str, Tuple[tuple, Optional[Callable], Optional[Callable]]] = {
    "str": ((str,), None, None),
    "int": ((int,), None, None),
    "uint": ((int,), _decode_uint, None),
    "bool": ((bool,), None, None),
    "float": ((int, float), lambda value, where, f: float(value), None),
    "dict": ((dict,), None, dict),
    "list": ((list,), lambda value, where, f: list(value), list),
    "deadline": ((object,), lambda value, where, f: validate_deadline_ms(value, where), None),
    "tensor": ((dict,), _decode_nested, lambda value: value.to_wire()),
    "tensors": ((list,), _decode_items, lambda values: [v.to_wire() for v in values]),
    "record": ((dict,), _decode_nested, lambda value: value.to_wire()),
    "records": ((list,), _decode_items, lambda values: [v.to_wire() for v in values]),
}


class _Record:
    """The generic codec of every record (declared with :func:`_record`).
    Envelopes set ``op``; responses also carry ``ok: true``."""

    op: ClassVar[Optional[str]] = None
    response: ClassVar[bool] = False
    _decoders: ClassVar[tuple] = ()
    _encoders: ClassVar[tuple] = ()
    _where: ClassVar[str] = ""
    #: ``(key, many, children)`` per tensor-bearing field, in wire order;
    #: ``children`` is None for tensors, else the nested record's slots.
    slots: ClassVar[tuple] = ()

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe envelope (binary tensors keep their buffers)."""
        if self.op is not None:
            out: Dict[str, Any] = {"schema_version": SCHEMA_VERSION, "op": self.op}
            if self.request_id is not None:
                out["request_id"] = self.request_id
            if self.response:
                out["ok"] = True
        else:
            out = {}
        for name, encode, omit_none in self._encoders:
            value = getattr(self, name)
            if value is None:
                if not omit_none:
                    out[name] = None
            else:
                out[name] = value if encode is None else encode(value)
        return out

    @classmethod
    def from_wire(cls, payload: Any, where: Optional[str] = None):
        """Validate and decode a wire dict (:class:`BadSchemaError` if malformed)."""
        where = where or cls._where
        if not isinstance(payload, dict):
            raise BadSchemaError(f"{where} must be an object, not {type(payload).__name__}")
        values = {}
        for f, name, types, decode, required, strict_int in cls._decoders:
            value = payload.get(name)
            if value is None:
                if required:
                    if name not in payload:
                        raise BadSchemaError(
                            f"{where} envelope is missing required field {name!r}"
                        )
                    raise _type_error(where, name, value, types)
                values[name] = f.default if f.factory is None else f.factory()
            elif not isinstance(value, types):
                raise _type_error(where, name, value, types)
            elif strict_int and isinstance(value, bool):
                raise BadSchemaError(f"{where} field {name!r} must be an integer, not a bool")
            else:
                values[name] = value if decode is None else decode(value, where, f)
        return _new(cls, values)


def _record(cls):
    """Make ``cls`` a frozen keyword-only dataclass and compile its codec."""
    cls = dataclass(frozen=True, kw_only=True)(cls)
    compiled = []
    for dc_field in fields(cls):
        f = dc_field.metadata["wire"]
        compiled.append(f)
        f.name = dc_field.name
        f.factory = None if dc_field.default_factory is MISSING else dc_field.default_factory
        f.default = None if dc_field.default is MISSING else dc_field.default
        if f.required is None:
            f.required = dc_field.default is MISSING and f.factory is None
        f.strict_int = f.required and f.kind == "int"
    cls._decoders = tuple((f, f.name, f.types, f.decode, f.required, f.strict_int) for f in compiled)
    head = "request_id" if cls.op is not None else None  # sent before the fields
    cls._encoders = tuple((f.name, f.encode, f.omit_none) for f in compiled if f.name != head)
    cls.slots = tuple(
        (f.name, f.many, f.record.slots if f.record else None) for f in compiled if f.is_slot
    )
    cls._where = f"{cls.op} {'response' if cls.response else 'request'}" if cls.op else cls.__name__
    return cls


# ---------------------------------------------------------------------------
# envelope records (field order = wire key order)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class _Request(_Record):
    request_id: int = wire("int", required=True, factory=next_request_id)


@dataclass(frozen=True, kw_only=True)
class _Response(_Record):
    response = True
    request_id: int = wire("int")


@dataclass(frozen=True, kw_only=True)
class _LayerRequest(_Request):
    """The layer a serving request addresses, in its shared wire order."""

    model: str = wire("str")
    layer_index: int = wire("int", 0, required=True)
    dataset: str = wire("str", "default")
    reference: bool = wire("bool", False)
    backend: str = wire("str", "vectorized")
    accelerator: Optional[str] = wire("str", None)


@_record
class NormalizeRequest(_LayerRequest):
    """Normalize one tensor with one layer of a calibrated model, within
    ``deadline_ms`` of server receipt if set (else admission sheds it)."""

    op = "normalize"
    tensor: TensorPayload = wire("tensor")
    deadline_ms: Optional[float] = wire("deadline", None, omit_none=True)


@_record
class NormalizeResult(_Record):
    """One tensor's result inside a bulk or stream response; ``degradation``
    stamps the fidelity level applied (0 = full, :mod:`repro.serving.degrade`)."""

    tensor: TensorPayload = wire("tensor")
    mean: TensorPayload = wire("tensor")
    isd: TensorPayload = wire("tensor")
    was_predicted: bool = wire("bool")
    was_subsampled: bool = wire("bool")
    batch_size: int = wire("int")
    queue_wait: float = wire("float")
    batch_latency: float = wire("float")
    degradation: int = wire("uint", 0)


@_record
class NormalizeResponse(_Response):
    """Result of one :class:`NormalizeRequest` (fields as :class:`NormalizeResult`)."""

    op = "normalize"
    tensor: TensorPayload = wire("tensor")
    mean: TensorPayload = wire("tensor")
    isd: TensorPayload = wire("tensor")
    was_predicted: bool = wire("bool")
    was_subsampled: bool = wire("bool")
    batch_size: int = wire("int")
    queue_wait: float = wire("float")
    batch_latency: float = wire("float")
    backend: str = wire("str")
    accelerator: Optional[str] = wire("str", None)
    degradation: int = wire("uint", 0)


@_record
class NormalizeBulkRequest(_LayerRequest):
    """Normalize many tensors of one layer in one frame: the whole list
    lands in the serving batcher at once (``submit_many``)."""

    op = "normalize_bulk"
    tensors: Tuple[TensorPayload, ...] = wire("tensors", nonempty="tensor")
    deadline_ms: Optional[float] = wire("deadline", None, omit_none=True)


@_record
class NormalizeBulkResponse(_Response):
    """Per-tensor results of one :class:`NormalizeBulkRequest`, in order."""

    op = "normalize_bulk"
    results: Tuple[NormalizeResult, ...] = wire("records", record=NormalizeResult)
    backend: str = wire("str")
    accelerator: Optional[str] = wire("str", None)


@_record
class StreamChunkRequest(_Request):
    """One chunk of an activation stream: consecutive ``seq`` per
    ``stream_id`` and a ``final`` marker.  Chunks normalize independently,
    so answers may come out of order; the client reassembles by ``seq``."""

    op = "stream"
    model: str = wire("str")
    tensor: TensorPayload = wire("tensor")
    stream_id: int = wire("int")
    seq: int = wire("uint")
    final: bool = wire("bool", False)
    layer_index: int = wire("int", 0, required=True)
    dataset: str = wire("str", "default")
    reference: bool = wire("bool", False)
    backend: str = wire("str", "vectorized")
    accelerator: Optional[str] = wire("str", None)
    deadline_ms: Optional[float] = wire("deadline", None, omit_none=True)


@_record
class StreamChunkResponse(_Response):
    """The normalized chunk, tagged with its stream position."""

    op = "stream"
    stream_id: int = wire("int")
    seq: int = wire("int")
    final: bool = wire("bool")
    result: NormalizeResult = wire("record", record=NormalizeResult)
    backend: str = wire("str")
    accelerator: Optional[str] = wire("str", None)


@_record
class SpecRequest(_Request):
    """Fetch the serialized :class:`~repro.engine.spec.EngineSpec` of a layer."""

    op = "spec"
    model: str = wire("str")
    layer_index: int = wire("int", 0, required=True)
    dataset: str = wire("str", "default")
    reference: bool = wire("bool", False)


@_record
class SpecResponse(_Response):
    """The serialized engine spec plus the layer's affine parameters."""

    op = "spec"
    spec: Dict[str, Any] = wire("dict")
    gamma: TensorPayload = wire("tensor")
    beta: TensorPayload = wire("tensor")
    model: str = wire("str")
    layer_index: int = wire("int")
    num_layers: int = wire("int")


@_record
class ExecuteSpecRequest(_Request):
    """Run a shipped engine spec over stacked rows (the ``remote`` backend):
    the server rebuilds the plan and needs no calibration state."""

    op = "execute"
    spec: Dict[str, Any] = wire("dict")
    rows: TensorPayload = wire("tensor")
    gamma: Optional[TensorPayload] = wire("tensor", None)
    beta: Optional[TensorPayload] = wire("tensor", None)
    segment_starts: Optional[TensorPayload] = wire("tensor", None)
    anchor_isd: Optional[TensorPayload] = wire("tensor", None)
    backend: str = wire("str", "vectorized")
    deadline_ms: Optional[float] = wire("deadline", None, omit_none=True)


@_record
class ExecuteSpecResponse(_Response):
    """``(output, mean, isd)`` of one executed spec."""

    op = "execute"
    output: TensorPayload = wire("tensor")
    mean: TensorPayload = wire("tensor")
    isd: TensorPayload = wire("tensor")
    backend: str = wire("str")


@_record
class ExecuteGroup(_Record):
    """One row-group of a bulk spec execution (rows + per-group metadata)."""

    rows: TensorPayload = wire("tensor")
    segment_starts: Optional[TensorPayload] = wire("tensor", None)
    anchor_isd: Optional[TensorPayload] = wire("tensor", None)


@_record
class ExecuteResult(_Record):
    """``(output, mean, isd)`` of one executed row-group."""

    output: TensorPayload = wire("tensor")
    mean: TensorPayload = wire("tensor")
    isd: TensorPayload = wire("tensor")


@_record
class ExecuteBulkRequest(_Request):
    """Run one shipped spec over many row-groups in one frame: the spec
    compiles once and every group rides the batching scheduler, stacked
    with other groups of the spec (the ``remote`` backend's ``run_many``)."""

    op = "execute_bulk"
    spec: Dict[str, Any] = wire("dict")
    groups: Tuple[ExecuteGroup, ...] = wire("records", record=ExecuteGroup, nonempty="row-group")
    gamma: Optional[TensorPayload] = wire("tensor", None)
    beta: Optional[TensorPayload] = wire("tensor", None)
    backend: str = wire("str", "vectorized")
    deadline_ms: Optional[float] = wire("deadline", None, omit_none=True)


@_record
class ExecuteBulkResponse(_Response):
    """Per-group results of one :class:`ExecuteBulkRequest`, in order."""

    op = "execute_bulk"
    results: Tuple[ExecuteResult, ...] = wire("records", record=ExecuteResult)
    backend: str = wire("str")


@_record
class HelloRequest(_Request):
    """Schema-version negotiation opener, parsed at any ``schema_version``;
    ``token`` is an optional tenant bearer token (:mod:`repro.tenancy`)."""

    op = "hello"
    min_schema_version: int = wire("int", SCHEMA_VERSION, required=True)
    max_schema_version: int = wire("int", SCHEMA_VERSION, required=True)
    client: str = wire("str", "repro.api")
    token: Optional[str] = wire("str", None, omit_none=True)


@_record
class HelloResponse(_Response):
    """The server's advertised range and the negotiated version."""

    op = "hello"
    schema_version_chosen: int = wire("int")
    min_schema_version: int = wire("int")
    max_schema_version: int = wire("int")
    backends: List[str] = wire("list", factory=list)


@_record
class PingRequest(_Request):
    """Liveness / capability probe."""

    op = "ping"


@_record
class PingResponse(_Response):
    """Server capabilities: schema-version range, backends and models."""

    op = "ping"
    backends: List[str] = wire("list")
    models: Optional[List[str]] = wire("list", None)
    min_schema_version: int = wire("int", SCHEMA_VERSION)
    max_schema_version: int = wire("int", SCHEMA_VERSION)


@_record
class TelemetryRequest(_Request):
    """Fetch the server's serving-telemetry snapshot."""

    op = "telemetry"


@_record
class TelemetryResponse(_Response):
    """Serving telemetry plus registry state, as plain JSON-safe dicts."""

    op = "telemetry"
    telemetry: Dict[str, Any] = wire("dict")
    registry: Dict[str, Any] = wire("dict")


@dataclass(frozen=True)
class ErrorResponse:
    """A failed request: taxonomy code, message and, for shed requests,
    the ``retry_after_ms`` backoff floor."""

    op = "error"

    code: str
    message: str
    request_id: Optional[int] = None
    retry_after_ms: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"schema_version": SCHEMA_VERSION, "op": self.op}
        if self.request_id is not None:
            out["request_id"] = self.request_id
        out["ok"] = False
        out["error"] = {"code": self.code, "message": self.message}
        if self.retry_after_ms is not None:
            out["error"]["retry_after_ms"] = self.retry_after_ms
        return out

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ErrorResponse":
        error = payload.get("error")
        error = error if isinstance(error, dict) else {}
        code, message = error.get("code"), error.get("message")
        retry_after, request_id = error.get("retry_after_ms"), payload.get("request_id")
        if not (
            isinstance(code, str)
            and isinstance(message, str)
            and isinstance(retry_after, (int, float, type(None)))
            and isinstance(request_id, (int, type(None)))
        ):
            raise BadSchemaError(
                "error response needs an 'error' object with string 'code' and "
                "'message', a numeric or null 'retry_after_ms', and an integer "
                "or null 'request_id'"
            )
        retry_after = None if retry_after is None else float(retry_after)
        return cls(code=code, message=message, request_id=request_id, retry_after_ms=retry_after)

    @classmethod
    def from_exception(
        cls, error: BaseException, request_id: Optional[int] = None
    ) -> "ErrorResponse":
        """Wrap an exception (``ApiError`` keeps its code; others → internal)."""
        if not isinstance(error, ApiError):
            message = f"{type(error).__name__}: {error}"
            return cls(code="internal", message=message, request_id=request_id)
        retry_after = getattr(error, "retry_after_ms", None)
        retry_after = None if retry_after is None else float(retry_after)
        return cls(error.code, str(error), request_id=request_id, retry_after_ms=retry_after)

    def raise_(self) -> None:
        """Raise the taxonomy exception this envelope describes."""
        raise error_for_code(self.code, self.message, self.retry_after_ms)


# ---------------------------------------------------------------------------
# the op table: tensor slots and parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One op: its records and its tensor slots, the union of both
    records' slots, so a slot walk never trusts an envelope to say whether
    it is a request or a response."""

    request: Type[_Record]
    response: Type[_Record]
    slots: tuple = field(init=False)

    @property
    def name(self) -> str:
        return self.request.op

    def __post_init__(self) -> None:
        declared = {slot[0]: slot for slot in self.request.slots}
        for slot in self.response.slots:
            if declared.setdefault(slot[0], slot) != slot:
                raise TypeError(f"{self.name}: slot {slot[0]!r} differs by side")
        object.__setattr__(self, "slots", tuple(declared.values()))


#: op name -> :class:`Op`.
OPS: Dict[str, Op] = {
    op.name: op
    for op in (
        Op(NormalizeRequest, NormalizeResponse),
        Op(NormalizeBulkRequest, NormalizeBulkResponse),
        Op(StreamChunkRequest, StreamChunkResponse),
        Op(SpecRequest, SpecResponse),
        Op(ExecuteSpecRequest, ExecuteSpecResponse),
        Op(ExecuteBulkRequest, ExecuteBulkResponse),
        Op(HelloRequest, HelloResponse),
        Op(PingRequest, PingResponse),
        Op(TelemetryRequest, TelemetryResponse),
    )
}

#: Slots per op; errors carry no tensors.
_SLOTS = {name: op.slots for name, op in OPS.items()}
_SLOTS["error"] = ()


def tensor_slots(payload: Any) -> Optional[tuple]:
    """The tensor slots of ``payload``'s op, or ``None`` for an op the
    table does not know."""
    op = payload.get("op") if isinstance(payload, dict) else None
    return _SLOTS.get(op) if isinstance(op, str) else None


def _map_slot(value: Any, children, match, rewrite) -> Any:
    if not isinstance(value, dict):
        return value
    if children is not None:
        return _map_slots(value, children, match, rewrite)
    return rewrite(value) if match(value) else value


def _map_slots(payload: dict, slots: tuple, match, rewrite) -> dict:
    out = None
    for key, many, children in slots:
        value = payload.get(key)
        if not many:
            new = _map_slot(value, children, match, rewrite)
        elif isinstance(value, list):
            new = [_map_slot(item, children, match, rewrite) for item in value]
            if all(a is b for a, b in zip(new, value)):
                new = value
        else:
            continue
        if new is not value:
            if out is None:
                out = dict(payload)
            out[key] = new
    return payload if out is None else out


def rewrite_slot_tensors(
    payload: Dict[str, Any], rewrite, match=is_binary_tensor_dict
) -> Dict[str, Any]:
    """Copy-on-write ``rewrite(tensor) -> tensor`` of the tensors ``match``
    accepts, at the op's slots.

    Untouched subtrees are shared with the input, so a fleet can send one
    envelope to replicas that each rewrite it differently.  An op the
    table does not know (a forged or mangled envelope) falls back to the
    deep walk :func:`_walk`.
    """
    slots = tensor_slots(payload)
    if slots is None:
        return _walk(payload, match, rewrite)
    return _map_slots(payload, slots, match, rewrite)


def _check_version(payload: Any, where: str) -> None:
    if not isinstance(payload, dict):
        raise BadSchemaError(f"{where} must be a JSON object, not {type(payload).__name__}")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{where} carries schema_version {version!r}; this peer speaks "
            f"only version {SCHEMA_VERSION}"
        )


def _op_of(payload: Dict[str, Any], where: str) -> Op:
    op = payload.get("op")
    if not isinstance(op, str):
        if "op" not in payload:
            raise BadSchemaError(f"{where} envelope is missing required field 'op'")
        raise _type_error(where, "op", op, (str,))
    entry = OPS.get(op)
    if entry is None:
        raise BadSchemaError(f"unknown op {op!r}; supported ops: {', '.join(sorted(OPS))}")
    return entry


def parse_request(payload: Any):
    """Decode a request envelope, raising :class:`ApiError` members on misuse.

    ``hello`` skips the version check, so a peer of another version still
    learns both ranges from a typed negotiation error.
    """
    if isinstance(payload, dict) and payload.get("op") == "hello":
        return HelloRequest.from_wire(payload)
    _check_version(payload, "request")
    return _op_of(payload, "request").request.from_wire(payload)


def parse_response(payload: Any, expected_op: str):
    """Decode a response envelope; a wire error raises its taxonomy exception."""
    _check_version(payload, "response")
    if payload.get("ok") is False or payload.get("op") == "error":
        ErrorResponse.from_wire(payload).raise_()
    op = _op_of(payload, "response")
    if op.name != expected_op:
        raise BadSchemaError(f"expected a {expected_op!r} response, got op {op.name!r}")
    return op.response.from_wire(payload)


def parse_hello_response(payload: Any) -> HelloResponse:
    """Decode a hello response with no version-range check (see hello)."""
    is_dict = isinstance(payload, dict)
    if is_dict and (payload.get("ok") is False or payload.get("op") == "error"):
        ErrorResponse.from_wire(payload).raise_()
    if not is_dict or payload.get("op") != "hello":
        raise BadSchemaError(f"expected a hello response object, got {payload!r:.200}")
    return HelloResponse.from_wire(payload)
