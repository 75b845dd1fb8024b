"""`ApiHandler`: envelope dictionaries in, envelope dictionaries out.

The single place wire requests become :class:`NormalizationService` calls.
Both transports share it -- :class:`~repro.api.transport.InProcessTransport`
invokes it directly and :class:`~repro.api.aserver.AsyncNormServer` invokes
it per received frame -- so local and remote clients run the *same*
validation, error taxonomy and execution path, which is what makes the bit-equivalence
guarantee between transports structural rather than tested-by-luck.

Validation failures never escape as raw exceptions: every handled request
returns exactly one response envelope, with :class:`ApiError` members
mapped onto their wire codes and anything unexpected collapsed to
``internal``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.envelopes import (
    MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
    ApiError,
    BadSchemaError,
    ErrorResponse,
    ExecuteBulkRequest,
    ExecuteBulkResponse,
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
    PayloadTooLargeError,
    PingRequest,
    PingResponse,
    SpecRequest,
    SpecResponse,
    StreamChunkRequest,
    StreamChunkResponse,
    TelemetryRequest,
    TelemetryResponse,
    TensorPayload,
    UnknownBackendError,
    UnknownModelError,
    negotiate_version,
    parse_request,
)


#: Ops that flow through the service's batching scheduler.  Their one
#: dispatch path is :meth:`ApiHandler.begin` + ``finish``: the async server
#: drains them in an engine tick on its event loop, :meth:`ApiHandler.handle`
#: drains them on the calling thread.
SERVING_OPS = frozenset({"normalize", "normalize_bulk", "stream"})


class ApiHandler:
    """Dispatch parsed envelopes against one :class:`NormalizationService`.

    Parameters
    ----------
    service:
        The serving front door every ``normalize`` / ``spec`` / ``telemetry``
        request resolves through.  ``execute`` requests bypass it: they ship
        their own :class:`~repro.engine.spec.EngineSpec` and run on a
        handler-local engine cache.
    max_payload_elements:
        Upper bound on scalar elements per request tensor; larger payloads
        fail with ``payload_too_large`` before any decoding work happens.
    engine_cache_size:
        Number of (spec, affine, backend) engines the ``execute`` op keeps
        compiled between requests.
    schema_versions:
        The ``(min, max)`` schema-version range this handler advertises in
        hello/ping negotiation (defaults to the package range; tests inject
        narrowed or shifted ranges for the negotiation matrix).
    """

    DEFAULT_MAX_ELEMENTS = 4_000_000

    def __init__(
        self,
        service,
        max_payload_elements: int = DEFAULT_MAX_ELEMENTS,
        engine_cache_size: int = 32,
        schema_versions: Tuple[int, int] = (MIN_SCHEMA_VERSION, SCHEMA_VERSION),
    ):
        if max_payload_elements < 1:
            raise ValueError("max_payload_elements must be positive")
        if engine_cache_size < 1:
            raise ValueError("engine_cache_size must be positive")
        self.service = service
        self.max_payload_elements = max_payload_elements
        self.min_schema_version, self.max_schema_version = schema_versions
        #: key -> (engine, per-engine run lock).  The cache lock only guards
        #: the mapping itself; each engine runs under its own lock (its
        #: backend owns mutable scratch), so concurrent connections
        #: executing *different* specs never serialize on each other.
        self._engine_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._engine_cache_size = engine_cache_size
        self._cache_lock = threading.Lock()

    # -- entry point --------------------------------------------------------

    def handle(
        self, payload: Any, degrade_level: int = 0, tenant: Optional[str] = None
    ) -> Dict[str, Any]:
        """Handle one request envelope; always returns a response envelope.

        The response echoes the *request's* ``schema_version`` whenever it
        is one this handler speaks, so a client that negotiated down keeps
        receiving envelopes at its version.

        ``degrade_level`` is the server's current
        :class:`~repro.serving.degrade.DegradationLadder` level; serving
        ops run at that fidelity and the response's ``degradation`` field
        reports the level actually applied (execute ops ship their own
        spec and are never degraded -- the caller asked for exactly that
        computation).

        ``tenant`` is the authenticated tenant name of the connection this
        envelope arrived on (None = anonymous); serving ops carry it into
        the service so the cost ledger can attribute the batch's modelled
        cycles/energy per tenant.  It never affects the computation.

        Serving ops go through :meth:`begin`, then the service's ``wait``
        (which drains the queue on this thread), then ``finish`` -- the
        same path as the async server, which drains in an engine tick on
        its event loop and awaits instead.
        """
        op = payload.get("op") if isinstance(payload, dict) else None
        if isinstance(op, str) and op in SERVING_OPS:
            pendings, finish = self.begin(payload, degrade_level, tenant)
            self.service.wait(pendings)
            return finish()
        request_id, echo_version = self._preamble(payload)
        try:
            request = parse_request(payload)
        except ApiError as error:
            return self._stamp(
                ErrorResponse.from_exception(error, request_id).to_wire(), echo_version
            )
        try:
            return self._stamp(self._dispatch(request).to_wire(), echo_version)
        except BaseException as error:  # noqa: BLE001 -- one envelope per request
            if not isinstance(error, Exception):
                raise  # KeyboardInterrupt / SystemExit propagate to the server
            return self._stamp(
                ErrorResponse.from_exception(error, request.request_id).to_wire(),
                echo_version,
            )

    def _preamble(self, payload: Any) -> Tuple[Optional[int], Optional[int]]:
        """``(request_id, echo_version)`` salvaged from a raw envelope."""
        request_id = None
        echo_version = None
        if isinstance(payload, dict):
            request_id = payload.get("request_id")
            if isinstance(request_id, bool) or not isinstance(request_id, int):
                request_id = None
            version = payload.get("schema_version")
            if (
                not isinstance(version, bool)
                and isinstance(version, int)
                and self.min_schema_version <= version <= self.max_schema_version
            ):
                echo_version = version
        return request_id, echo_version

    @staticmethod
    def _stamp(response: Dict[str, Any], echo_version: Optional[int]) -> Dict[str, Any]:
        if echo_version is not None:
            response["schema_version"] = echo_version
        return response

    # -- async entry point ---------------------------------------------------

    def begin(
        self, payload: Any, degrade_level: int = 0, tenant: Optional[str] = None
    ):
        """Submit a serving op without blocking on its result.

        The one dispatch path of the ops in :data:`SERVING_OPS` (the ones
        that flow through the batching scheduler).  Validates and decodes
        the envelope, submits into the service, and returns
        ``(pendings, finish)``:

        * ``pendings`` -- the :class:`ResponseFuture` objects the request
          enqueued (empty when validation already failed);
        * ``finish()`` -- builds the response envelope; the caller must
          invoke it only once every pending future is done, after which it
          never blocks.

        Never raises: failures become error envelopes with the same
        taxonomy mapping as every other op.  Nothing drains the service's
        queue between ``begin`` and ``finish``; the caller does.
        :meth:`handle` calls the service's ``wait``, which drains on the
        calling thread.  The async server schedules an engine tick on its
        event loop and awaits the futures' done-callbacks.
        """
        request_id, echo_version = self._preamble(payload)
        try:
            request = parse_request(payload)
        except ApiError as error:
            envelope = self._stamp(
                ErrorResponse.from_exception(error, request_id).to_wire(), echo_version
            )
            return [], lambda: envelope
        try:
            if isinstance(request, NormalizeRequest):
                pendings, build = self._begin_normalize(request, degrade_level, tenant)
            elif isinstance(request, NormalizeBulkRequest):
                pendings, build = self._begin_bulk(request, degrade_level, tenant)
            elif isinstance(request, StreamChunkRequest):
                pendings, build = self._begin_stream(request, degrade_level, tenant)
            else:
                raise BadSchemaError(
                    f"op {getattr(request, 'op', '?')!r} is not a serving op; "
                    f"dispatch it through handle()"
                )
        except BaseException as error:  # noqa: BLE001 -- one envelope per request
            if not isinstance(error, Exception):
                raise
            envelope = self._stamp(
                ErrorResponse.from_exception(error, request.request_id).to_wire(),
                echo_version,
            )
            return [], lambda: envelope

        def finish() -> Dict[str, Any]:
            try:
                return self._stamp(build().to_wire(), echo_version)
            except BaseException as error:  # noqa: BLE001
                if not isinstance(error, Exception):
                    raise
                return self._stamp(
                    ErrorResponse.from_exception(error, request.request_id).to_wire(),
                    echo_version,
                )

        return pendings, finish

    def _dispatch(self, request):
        if isinstance(request, SpecRequest):
            return self._spec(request)
        if isinstance(request, ExecuteSpecRequest):
            return self._execute(request)
        if isinstance(request, ExecuteBulkRequest):
            return self._execute_bulk(request)
        if isinstance(request, HelloRequest):
            return self._hello(request)
        if isinstance(request, PingRequest):
            return self._ping(request)
        if isinstance(request, TelemetryRequest):
            return self._telemetry(request)
        raise BadSchemaError(f"unhandled request type {type(request).__name__}")

    # -- shared validation --------------------------------------------------

    def _check_backend(self, name: str) -> None:
        from repro.engine.registry import requires_connection, validate_backend_name

        try:
            validate_backend_name(name)
        except ValueError as error:
            raise UnknownBackendError(str(error)) from error
        if requires_connection(name):
            raise UnknownBackendError(
                f"backend {name!r} needs its own connection configuration and "
                f"cannot be served here (a server forwarding to itself would loop)"
            )

    def _check_model(self, name: str) -> None:
        try:
            self.service.registry.validate_model(name)
        except ValueError as error:
            raise UnknownModelError(str(error)) from error

    def _check_size(self, tensor: TensorPayload, what: str = "tensor") -> None:
        if tensor.num_elements > self.max_payload_elements:
            raise PayloadTooLargeError(
                f"{what} carries {tensor.num_elements} elements; this server "
                f"accepts at most {self.max_payload_elements} per request"
            )

    # -- ops ----------------------------------------------------------------

    @staticmethod
    def _build_normalize(
        request: NormalizeRequest, response
    ) -> NormalizeResponse:
        encoding = request.tensor.encoding
        return NormalizeResponse(
            request_id=request.request_id,
            tensor=TensorPayload.from_array(response.output, encoding),
            mean=TensorPayload.from_array(response.mean, encoding),
            isd=TensorPayload.from_array(response.isd, encoding),
            was_predicted=response.was_predicted,
            was_subsampled=response.was_subsampled,
            batch_size=response.batch_size,
            queue_wait=float(response.queue_wait),
            batch_latency=float(response.batch_latency),
            backend=response.key.backend,
            accelerator=response.key.accelerator,
            degradation=response.degradation,
        )

    def _decode_rows(self, tensor: TensorPayload, where: str) -> np.ndarray:
        array = tensor.to_array()
        if array.ndim not in (1, 2):
            raise BadSchemaError(
                f"{where} payload must be (hidden,) or (rows, hidden); "
                f"got shape {tuple(array.shape)}"
            )
        return array

    @staticmethod
    def _call_service(fn, *args, **kwargs):
        """Run one service call with the shared error-taxonomy mapping.

        Registries with custom loaders validate lazily: an unknown model
        surfaces as the loader's KeyError at execution time.
        """
        try:
            return fn(*args, **kwargs)
        except KeyError as error:
            raise UnknownModelError(str(error.args[0] if error.args else error)) from error
        except (ValueError, IndexError) as error:
            raise BadSchemaError(str(error)) from error

    def _service_submit(
        self, array: np.ndarray, request, context=None, degrade: int = 0, tenant=None
    ):
        return self._call_service(
            self.service.submit,
            array,
            request.model,
            layer_index=request.layer_index,
            dataset=request.dataset,
            reference=request.reference,
            backend=request.backend,
            accelerator=request.accelerator,
            context=context,
            degrade=degrade,
            tenant=tenant,
            deadline_ms=request.deadline_ms,
        )

    def _resolve(self, future):
        """A completed future's response, with the shared taxonomy mapping.

        ``result(0)`` never blocks (callers only invoke this after the
        done-callback fired); execution failures surface here and map onto
        the same :class:`ApiError` members as the synchronous path, so the
        async server's error envelopes are bit-identical to the in-process
        transport's.
        """
        return self._call_service(future.result, 0)

    def _begin_normalize(
        self,
        request: NormalizeRequest,
        degrade_level: int,
        tenant: Optional[str],
    ):
        self._check_backend(request.backend)
        self._check_model(request.model)
        self._check_size(request.tensor)
        array = self._decode_rows(request.tensor, "normalize")
        future = self._service_submit(
            array, request, degrade=degrade_level, tenant=tenant
        )
        return [future], lambda: self._build_normalize(
            request, self._resolve(future)
        )

    def _check_bulk_size(self, request: NormalizeBulkRequest) -> None:
        # Size-check the whole request (per tensor AND aggregate) before any
        # array is materialized: an oversized bulk must not cost the decode.
        total_elements = 0
        for index, tensor in enumerate(request.tensors):
            self._check_size(tensor, f"tensors[{index}]")
            total_elements += tensor.num_elements
        if total_elements > self.max_payload_elements:
            raise PayloadTooLargeError(
                f"bulk request carries {total_elements} elements across "
                f"{len(request.tensors)} tensors; this server accepts at most "
                f"{self.max_payload_elements} per request"
            )

    def _decode_bulk(self, request: NormalizeBulkRequest) -> List[np.ndarray]:
        return [
            self._decode_rows(tensor, f"normalize_bulk tensors[{index}]")
            for index, tensor in enumerate(request.tensors)
        ]

    def _build_bulk(
        self, request: NormalizeBulkRequest, responses
    ) -> NormalizeBulkResponse:
        encoding = request.tensors[0].encoding
        return NormalizeBulkResponse(
            request_id=request.request_id,
            results=tuple(
                self._wire_result(response, encoding) for response in responses
            ),
            backend=request.backend,
            accelerator=responses[0].key.accelerator if responses else request.accelerator,
        )

    def _begin_bulk(
        self,
        request: NormalizeBulkRequest,
        degrade_level: int,
        tenant: Optional[str],
    ):
        self._check_backend(request.backend)
        self._check_model(request.model)
        self._check_bulk_size(request)
        arrays = self._decode_bulk(request)
        futures = self._call_service(
            self.service.submit_many,
            arrays,
            request.model,
            layer_index=request.layer_index,
            dataset=request.dataset,
            reference=request.reference,
            backend=request.backend,
            accelerator=request.accelerator,
            degrade=degrade_level,
            tenant=tenant,
            deadline_ms=request.deadline_ms,
        )
        return list(futures), lambda: self._build_bulk(
            request, [self._resolve(future) for future in futures]
        )

    @staticmethod
    def _wire_result(response, encoding: str) -> NormalizeResult:
        return NormalizeResult(
            tensor=TensorPayload.from_array(response.output, encoding),
            mean=TensorPayload.from_array(response.mean, encoding),
            isd=TensorPayload.from_array(response.isd, encoding),
            was_predicted=response.was_predicted,
            was_subsampled=response.was_subsampled,
            batch_size=response.batch_size,
            queue_wait=float(response.queue_wait),
            batch_latency=float(response.batch_latency),
            degradation=response.degradation,
        )

    def _build_stream(
        self, request: StreamChunkRequest, response
    ) -> StreamChunkResponse:
        return StreamChunkResponse(
            request_id=request.request_id,
            stream_id=request.stream_id,
            seq=request.seq,
            final=request.final,
            result=self._wire_result(response, request.tensor.encoding),
            backend=response.key.backend,
            accelerator=response.key.accelerator,
        )

    def _begin_stream(
        self,
        request: StreamChunkRequest,
        degrade_level: int,
        tenant: Optional[str],
    ):
        from repro.llm.hooks import ActivationContext

        self._check_backend(request.backend)
        self._check_model(request.model)
        self._check_size(request.tensor)
        array = self._decode_rows(request.tensor, "stream")
        future = self._service_submit(
            array, request, context=ActivationContext(), degrade=degrade_level,
            tenant=tenant,
        )
        return [future], lambda: self._build_stream(request, self._resolve(future))

    def _spec(self, request: SpecRequest) -> SpecResponse:
        self._check_model(request.model)
        try:
            artifact = self.service.registry.get(request.model, request.dataset)
        except KeyError as error:
            raise UnknownModelError(str(error.args[0] if error.args else error)) from error
        try:
            layer = artifact.layer(request.layer_index, reference=request.reference)
        except IndexError as error:
            raise BadSchemaError(str(error)) from error
        plan = layer.plan
        return SpecResponse(
            request_id=request.request_id,
            spec=plan.spec.to_dict(),
            gamma=TensorPayload.from_array(plan.gamma),
            beta=TensorPayload.from_array(plan.beta),
            model=request.model,
            layer_index=request.layer_index,
            num_layers=artifact.num_layers,
        )

    def _execute(self, request: ExecuteSpecRequest) -> ExecuteSpecResponse:
        from repro.engine.spec import EngineSpec

        self._check_backend(request.backend)
        self._check_size(request.rows, "rows")
        try:
            spec = EngineSpec.from_dict(request.spec)
        except (TypeError, ValueError) as error:
            raise BadSchemaError(f"invalid engine spec: {error}") from error
        gamma = None if request.gamma is None else request.gamma.to_array()
        beta = None if request.beta is None else request.beta.to_array()
        rows = request.rows.to_array()
        segment_starts = (
            None
            if request.segment_starts is None
            else request.segment_starts.to_array().astype(np.int64, copy=False)
        )
        anchor_isd = None if request.anchor_isd is None else request.anchor_isd.to_array()
        engine, run_lock = self._engine_for(spec, request.backend, gamma, beta)
        try:
            with run_lock:
                output, mean, isd = engine.run(rows, segment_starts, anchor_isd)
        except ValueError as error:
            raise BadSchemaError(str(error)) from error
        return ExecuteSpecResponse(
            request_id=request.request_id,
            output=TensorPayload.from_array(output, request.rows.encoding),
            mean=TensorPayload.from_array(mean, request.rows.encoding),
            isd=TensorPayload.from_array(isd, request.rows.encoding),
            backend=request.backend,
        )

    def _execute_bulk(self, request: ExecuteBulkRequest) -> ExecuteBulkResponse:
        from repro.engine.spec import EngineSpec

        self._check_backend(request.backend)
        total_elements = 0
        for index, group in enumerate(request.groups):
            self._check_size(group.rows, f"groups[{index}].rows")
            total_elements += group.rows.num_elements
        if total_elements > self.max_payload_elements:
            raise PayloadTooLargeError(
                f"bulk execute carries {total_elements} elements across "
                f"{len(request.groups)} groups; this server accepts at most "
                f"{self.max_payload_elements} per request"
            )
        try:
            spec = EngineSpec.from_dict(request.spec)
        except (TypeError, ValueError) as error:
            raise BadSchemaError(f"invalid engine spec: {error}") from error
        gamma = None if request.gamma is None else request.gamma.to_array()
        beta = None if request.beta is None else request.beta.to_array()
        engine, run_lock = self._engine_for(spec, request.backend, gamma, beta)
        encoding = request.groups[0].rows.encoding
        # Decode every group before taking the engine lock and encode the
        # responses after releasing it: only engine.run needs the lock, so
        # connections sharing a cached engine never serialize on codec work.
        decoded = [
            (
                group.rows.to_array(),
                None
                if group.segment_starts is None
                else group.segment_starts.to_array().astype(np.int64, copy=False),
                None if group.anchor_isd is None else group.anchor_isd.to_array(),
            )
            for group in request.groups
        ]
        raw: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        try:
            # One lock acquisition for the whole bulk: the spec compiled
            # once, the backend's scratch stays warm across groups.
            with run_lock:
                for rows, segment_starts, anchor_isd in decoded:
                    raw.append(engine.run(rows, segment_starts, anchor_isd))
        except ValueError as error:
            raise BadSchemaError(str(error)) from error
        return ExecuteBulkResponse(
            request_id=request.request_id,
            results=tuple(
                ExecuteResult(
                    output=TensorPayload.from_array(output, encoding),
                    mean=TensorPayload.from_array(mean, encoding),
                    isd=TensorPayload.from_array(isd, encoding),
                )
                for output, mean, isd in raw
            ),
            backend=request.backend,
        )

    def _engine_for(self, spec, backend: str, gamma, beta):
        """LRU cache of compiled engines for the ``execute`` op.

        Keyed by the full spec JSON, the backend name and a digest of the
        affine parameters, so repeated remote-backend traffic pays the
        compile (and backend construction) once.  Returns
        ``(engine, run_lock)``; the lock serializes runs of *this* engine
        only (its backend owns mutable scratch).
        """
        digest = hashlib.sha256()
        for arr in (gamma, beta):
            digest.update(b"\x00" if arr is None else np.ascontiguousarray(arr).tobytes())
        key = (json.dumps(spec.to_dict(), sort_keys=True), backend, digest.hexdigest())
        with self._cache_lock:
            entry = self._engine_cache.get(key)
            if entry is not None:
                self._engine_cache.move_to_end(key)
                return entry
        from repro.engine.registry import build

        try:
            engine = build(spec, backend=backend, gamma=gamma, beta=beta)
        except ValueError as error:
            raise BadSchemaError(str(error)) from error
        entry = (engine, threading.Lock())
        with self._cache_lock:
            # A racing thread may have built the same engine; keep the
            # first one so its lock stays authoritative.
            entry = self._engine_cache.setdefault(key, entry)
            self._engine_cache.move_to_end(key)
            while len(self._engine_cache) > self._engine_cache_size:
                self._engine_cache.popitem(last=False)
        return entry

    def _hello(self, request: HelloRequest) -> HelloResponse:
        from repro.engine.registry import available_backends

        chosen = negotiate_version(
            request.min_schema_version,
            request.max_schema_version,
            self.min_schema_version,
            self.max_schema_version,
        )
        return HelloResponse(
            request_id=request.request_id,
            schema_version_chosen=chosen,
            min_schema_version=self.min_schema_version,
            max_schema_version=self.max_schema_version,
            backends=available_backends(),
        )

    def _ping(self, request: PingRequest) -> PingResponse:
        from repro.engine.registry import available_backends

        return PingResponse(
            request_id=request.request_id,
            backends=available_backends(),
            models=self.service.registry.known_model_names(),
            min_schema_version=self.min_schema_version,
            max_schema_version=self.max_schema_version,
        )

    def _telemetry(self, request: TelemetryRequest) -> TelemetryResponse:
        return TelemetryResponse(
            request_id=request.request_id,
            telemetry=self.service.telemetry.snapshot(),
            registry=self.service.registry.snapshot(),
        )
