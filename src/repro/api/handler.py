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

from typing import Any, Dict, Optional

import numpy as np

from repro.api.envelopes import (
    SCHEMA_VERSION,
    BadSchemaError,
    ErrorResponse,
    ExecuteBulkResponse,
    ExecuteResult,
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
from repro.engine.registry import (
    available_backends,
    requires_connection,
    validate_backend_name,
)


def _array(tensor: Optional[TensorPayload]) -> Optional[np.ndarray]:
    return None if tensor is None else tensor.to_array()


def _unbatched(op):
    """An op-table entry for an op that runs no kernel: no pendings, and
    ``op(self, request)`` runs in ``build``."""

    def begin_op(self, request, degrade_level, tenant):
        return [], lambda: op(self, request)

    return begin_op


class ApiHandler:
    """Dispatch parsed envelopes against one :class:`NormalizationService`.

    Parameters
    ----------
    service:
        The serving front door every request resolves through.  ``execute``
        requests ship their own :class:`~repro.engine.spec.EngineSpec` and
        go through the same batching scheduler as ``normalize``; the
        service compiles and caches their engines.
    max_payload_elements:
        Upper bound on scalar elements per request tensor; larger payloads
        fail with ``payload_too_large`` before any decoding work happens.
    """

    DEFAULT_MAX_ELEMENTS = 4_000_000

    def __init__(self, service, max_payload_elements: int = DEFAULT_MAX_ELEMENTS):
        if max_payload_elements < 1:
            raise ValueError("max_payload_elements must be positive")
        self.service = service
        self.max_payload_elements = max_payload_elements

    # -- entry points -------------------------------------------------------

    def handle(
        self, payload: Any, degrade_level: int = 0, tenant: Optional[str] = None
    ) -> Dict[str, Any]:
        """Handle one request envelope; always returns a response envelope.

        :meth:`begin`, then the service's ``wait`` (which drains the queue
        on this thread), then ``finish`` -- the path the async server takes
        too, except that it drains in an engine tick on its event loop and
        awaits instead.
        """
        pendings, finish = self.begin(payload, degrade_level, tenant)
        self.service.wait(pendings)
        return finish()

    def begin(
        self, payload: Any, degrade_level: int = 0, tenant: Optional[str] = None
    ):
        """Start one request envelope without blocking on the scheduler.

        The one dispatch path of every op in :data:`repro.api.envelopes.OPS`.
        Validates and decodes the envelope, submits serving ops into the
        service, and returns ``(pendings, finish)``:

        * ``pendings`` -- the :class:`ResponseFuture` objects the request
          enqueued (empty for the ops that run no kernel, and when
          validation already failed);
        * ``finish()`` -- builds the response envelope (running the whole
          op when it runs no kernel); the caller must invoke it only once
          every pending future is done, after which it never waits.

        Never raises: failures become error envelopes (see
        :meth:`error_envelope`).  Nothing drains the service's queue
        between ``begin`` and ``finish``; the caller does: :meth:`handle`
        calls the service's ``wait``, the async server schedules an engine
        tick.

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
        """
        try:
            request = parse_request(payload)
            pendings, build = self._OPS[request.op](self, request, degrade_level, tenant)
        except BaseException as error:  # noqa: BLE001 -- one envelope per request
            if not isinstance(error, Exception):
                raise  # KeyboardInterrupt / SystemExit propagate to the server
            envelope = self.error_envelope(payload, error)
            return [], lambda: envelope

        def finish() -> Dict[str, Any]:
            try:
                return build().to_wire()
            except BaseException as error:  # noqa: BLE001
                if not isinstance(error, Exception):
                    raise
                return self.error_envelope(payload, error)

        return pendings, finish

    def error_envelope(self, payload: Any, error: BaseException) -> Dict[str, Any]:
        """The error envelope answering ``payload`` with ``error``.

        Echoes the request's ``request_id``, so an error -- raised by an op
        or by a server gate before the handler -- demultiplexes exactly like
        a handled response.
        """
        request_id = payload.get("request_id") if isinstance(payload, dict) else None
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            request_id = None
        return ErrorResponse.from_exception(error, request_id).to_wire()

    # -- shared validation --------------------------------------------------

    @staticmethod
    def _check_servable(backend: str) -> None:
        """Refuse a backend that only forwards to a server."""
        if requires_connection(backend):
            raise UnknownBackendError(
                f"backend {backend!r} needs its own connection configuration and "
                f"cannot be served here (a server forwarding to itself would loop)"
            )

    def _submit(self, request, fn, *args, **kwargs):
        """Submit into the service, which validates the backend and model
        names once; a refusal that is one of those names fails typed."""
        try:
            return self._call_service(fn, *args, **kwargs)
        except BadSchemaError:
            try:
                validate_backend_name(request.backend)
            except ValueError as error:
                raise UnknownBackendError(str(error)) from error
            model = getattr(request, "model", None)
            if model is not None:
                self._check_model(model)
            raise

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
        return self._submit(
            request,
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
        self._check_servable(request.backend)
        self._check_size(request.tensor)
        array = self._decode_rows(request.tensor, "normalize")
        future = self._service_submit(
            array, request, degrade=degrade_level, tenant=tenant
        )
        return [future], lambda: self._build_normalize(
            request, self._resolve(future)
        )

    def _check_bulk_size(self, tensors, label: str) -> None:
        # Size-check the whole request (per tensor AND aggregate) before any
        # array is materialized: an oversized bulk must not cost the decode.
        total_elements = 0
        for index, tensor in enumerate(tensors):
            self._check_size(tensor, label.format(index))
            total_elements += tensor.num_elements
        if total_elements > self.max_payload_elements:
            raise PayloadTooLargeError(
                f"request carries {total_elements} elements across "
                f"{len(tensors)} tensors; this server accepts at most "
                f"{self.max_payload_elements} per request"
            )

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
        self._check_servable(request.backend)
        self._check_bulk_size(request.tensors, "tensors[{}]")
        arrays = [
            self._decode_rows(tensor, f"normalize_bulk tensors[{index}]")
            for index, tensor in enumerate(request.tensors)
        ]
        futures = self._submit(
            request,
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

        self._check_servable(request.backend)
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

    def _begin_execute(self, request, degrade_level: int, tenant: Optional[str]):
        """``execute`` and ``execute_bulk``: submit every row-group (an
        ``execute`` request is its own single group) into the service,
        which validates them all before queuing any."""
        from repro.engine.spec import EngineSpec

        self._check_servable(request.backend)
        bulk = request.op == "execute_bulk"
        groups = request.groups if bulk else (request,)
        self._check_bulk_size(
            [group.rows for group in groups], "groups[{}].rows" if bulk else "rows"
        )
        try:
            spec = EngineSpec.from_dict(request.spec)
        except (TypeError, ValueError) as error:
            raise BadSchemaError(f"invalid engine spec: {error}") from error
        futures = self._submit(
            request,
            self.service.submit_execute,
            spec,
            [
                (group.rows.to_array(), _array(group.segment_starts), _array(group.anchor_isd))
                for group in groups
            ],
            backend=request.backend,
            gamma=_array(request.gamma),
            beta=_array(request.beta),
            tenant=tenant,
            deadline_ms=request.deadline_ms,
        )
        encoding = groups[0].rows.encoding

        def build():
            results = tuple(
                ExecuteResult(
                    output=TensorPayload.from_array(response.output, encoding),
                    mean=TensorPayload.from_array(response.mean, encoding),
                    isd=TensorPayload.from_array(response.isd, encoding),
                )
                for response in map(self._resolve, futures)
            )
            if bulk:
                return ExecuteBulkResponse(
                    request_id=request.request_id, results=results, backend=request.backend
                )
            (result,) = results
            return ExecuteSpecResponse(
                request_id=request.request_id,
                output=result.output,
                mean=result.mean,
                isd=result.isd,
                backend=request.backend,
            )

        return futures, build

    def _hello(self, request: HelloRequest) -> HelloResponse:
        chosen = negotiate_version(
            request.min_schema_version, request.max_schema_version, SCHEMA_VERSION, SCHEMA_VERSION
        )
        return HelloResponse(
            request_id=request.request_id,
            schema_version_chosen=chosen,
            min_schema_version=SCHEMA_VERSION,
            max_schema_version=SCHEMA_VERSION,
            backends=available_backends(),
        )

    def _ping(self, request: PingRequest) -> PingResponse:
        return PingResponse(
            request_id=request.request_id,
            backends=available_backends(),
            models=self.service.registry.known_model_names(),
        )

    def _telemetry(self, request: TelemetryRequest) -> TelemetryResponse:
        return TelemetryResponse(
            request_id=request.request_id,
            telemetry=self.service.telemetry.snapshot(),
            registry=self.service.registry.snapshot(),
        )

    #: The op table: every op of :data:`repro.api.envelopes.OPS` ->
    #: ``(self, request, degrade_level, tenant) -> (pendings, build)``.
    #: The ops that run a kernel submit into the batching scheduler; the
    #: others return no pendings and run in ``build``.
    _OPS = {
        "normalize": _begin_normalize,
        "normalize_bulk": _begin_bulk,
        "stream": _begin_stream,
        "execute": _begin_execute,
        "execute_bulk": _begin_execute,
        "spec": _unbatched(_spec),
        "hello": _unbatched(_hello),
        "ping": _unbatched(_ping),
        "telemetry": _unbatched(_telemetry),
    }
