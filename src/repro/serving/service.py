"""`NormalizationService`: the serving front door.

Accepts single, bulk and streaming normalization requests, coalesces them
through the :class:`~repro.serving.batcher.ContinuousBatcher`, resolves each
batch against a :class:`~repro.serving.registry.CalibrationRegistry`
artifact, and executes the layer's compiled
:class:`~repro.engine.registry.Engine` on the backend the request selected
(``vectorized`` by default) -- one ndarray call per batch instead of one
per request.  Outputs are bit-identical to running every request alone
through the per-request layer regardless of backend (the golden-model
contract ``tests/test_serving.py`` / ``tests/test_engine.py`` enforce),
and telemetry tags every batch with the backend that ran it.

The service starts no thread.  Nothing runs until someone drains its
scheduler: :meth:`NormalizationService.wait` drains on the calling thread
(so ``normalize`` and friends are synchronous calls), and the async server
drains on its event loop.  A caller whose request another thread already
popped blocks in ``wait`` until that thread's batch resolves it.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.engine.registry import validate_backend_name
from repro.engine.spec import spec_for_layer
from repro.llm.hooks import ActivationContext, scatter_isd, stack_anchor_isds
from repro.numerics.kernels import KernelWorkspace
from repro.serving.degrade import MAX_LEVEL, degraded_spec
from repro.serving.batcher import (
    BatcherConfig,
    ContinuousBatcher,
    PendingRequest,
    ResponseFuture,
)
from repro.serving.registry import CalibrationRegistry
from repro.serving.request import NormRequest, NormResponse, RequestKey
from repro.serving.telemetry import ServingTelemetry


class NormalizationService:
    """Batched normalization serving runtime."""

    def __init__(
        self,
        registry: Optional[CalibrationRegistry] = None,
        config: Optional[BatcherConfig] = None,
        telemetry: Optional[ServingTelemetry] = None,
        aging_window: float = 0.020,
    ):
        # `is not None`, not truthiness: an empty registry has len() == 0.
        self.registry = registry if registry is not None else CalibrationRegistry()
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry()
        # Per-service scratch pool for the fused kernel.  Everything a
        # response keeps -- output rows, mean, isd -- lives in per-batch
        # result arrays, so pooled scratch can never leak into a response
        # across batches.  The execute lock serializes batch execution:
        # several threads may drain at once (the server's event loop and a
        # thread calling ``normalize``), and two batches sharing the
        # workspace mid-kernel would corrupt each other.
        self._workspace = KernelWorkspace()
        self._execute_lock = threading.Lock()
        # Engines compiled for degraded requests (forced subsampling /
        # forced skip fast path): the layer's own engine cache only knows
        # its calibrated spec, so degraded variants live here, keyed by
        # the full request key.  Guarded by the execute lock (the only
        # place the cache is read or written).
        self._degraded_engines = {}
        self._queue_clock = time.monotonic
        #: Optional per-batch cost-attribution hook
        #: ``(tenants, counts, cost_record) -> None`` called after a
        #: cost-modelling backend executed a micro-batch: ``tenants`` and
        #: ``counts`` are the per-request tenant names (None = anonymous)
        #: and row counts, in batch order, and ``cost_record`` is the
        #: batch's :class:`~repro.engine.backends.NormCostRecord`.  The
        #: tenancy ledger wires itself here (``haan-serve --tenants``) to
        #: split modelled cycles/energy across tenants exactly.
        self.cost_observer = None
        self.batcher = ContinuousBatcher(
            self._execute_batch,
            config,
            clock=self._queue_clock,
            aging_window=aging_window,
        )
        self.telemetry.attach_section("scheduler", self.batcher.snapshot)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the batcher: flush every queued request, refuse new ones.

        A post-close submit raises instead of queueing a request nothing
        will ever drain.
        """
        self.batcher.stop()

    def __enter__(self) -> "NormalizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request API -------------------------------------------------------

    def submit(
        self,
        payload: np.ndarray,
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        context: Optional[ActivationContext] = None,
        degrade: int = 0,
        tenant: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> ResponseFuture:
        """Enqueue one request; returns a future of :class:`NormResponse`.

        ``backend`` selects the execution backend per request
        (:func:`repro.engine.registry.available_backends` lists the valid
        names) and ``accelerator`` optionally pins a named
        :class:`AcceleratorConfig` for cost-modelling backends; requests
        only coalesce with requests sharing both.  ``degrade`` runs the
        request at a :mod:`~repro.serving.degrade` ladder level (the
        response is stamped with the level actually applied).  Unknown
        backend, model or accelerator names fail *here*, synchronously,
        with the registry contents in the message -- never deep inside
        the batch executor.  ``tenant`` names the account this request is
        metered against (attribution only; it never affects execution or
        batching).
        """
        key = RequestKey(
            model=model,
            layer_index=layer_index,
            dataset=dataset,
            reference=reference,
            backend=backend,
            accelerator=accelerator,
            degrade=degrade,
        )
        self._validate_key(key)
        return self.batcher.submit(
            NormRequest(
                key=key,
                payload=payload,
                context=context,
                tenant=tenant,
                deadline_ms=deadline_ms,
            )
        )

    def submit_many(
        self,
        payloads: Sequence[np.ndarray],
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        context: Optional[ActivationContext] = None,
        degrade: int = 0,
        tenant: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[ResponseFuture]:
        """Enqueue a burst of requests under one scheduler lock acquisition."""
        key = RequestKey(
            model=model,
            layer_index=layer_index,
            dataset=dataset,
            reference=reference,
            backend=backend,
            accelerator=accelerator,
            degrade=degrade,
        )
        self._validate_key(key)
        return self.batcher.submit_many(
            [
                NormRequest(
                    key=key,
                    payload=payload,
                    context=context,
                    tenant=tenant,
                    deadline_ms=deadline_ms,
                )
                for payload in payloads
            ]
        )

    def _validate_key(self, key: RequestKey) -> None:
        """Front-door name validation: backend, model, accelerator.

        Each check raises ``ValueError`` listing the registered names.
        Model validation is skipped when the registry's loadable set is
        unknowable (custom loaders); backend names always validate against
        the engine registry.
        """
        validate_backend_name(key.backend)
        self.registry.validate_model(key.model)
        if not 0 <= key.degrade <= MAX_LEVEL:
            raise ValueError(
                f"degrade level {key.degrade} out of range; the ladder has "
                f"levels 0..{MAX_LEVEL}"
            )
        if key.accelerator is not None:
            from repro.hardware.configs import resolve_accelerator_config

            resolve_accelerator_config(key.accelerator)

    def wait(self, futures: Iterable[ResponseFuture]) -> None:
        """Drain the queue on this thread, then block until every future
        is resolved (a future another thread popped resolves when that
        thread's batch does)."""
        self.batcher.drain_all()
        for future in futures:
            future.wait()

    def normalize(self, payload: np.ndarray, model: str, **kwargs) -> NormResponse:
        """Normalize one tensor synchronously."""
        future = self.submit(payload, model, **kwargs)
        self.wait((future,))
        return future.result()

    def normalize_many(
        self, payloads: Sequence[np.ndarray], model: str, **kwargs
    ) -> List[NormResponse]:
        """Normalize a bulk of independent tensors, coalesced into batches."""
        futures = self.submit_many(payloads, model, **kwargs)
        self.wait(futures)
        return [future.result() for future in futures]

    def stream(
        self,
        chunks: Iterable[np.ndarray],
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        context: Optional[ActivationContext] = None,
        degrade: int = 0,
        tenant: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Iterator[NormResponse]:
        """Normalize a stream of activation chunks, yielding results in order.

        By default every chunk gets its own fresh
        :class:`ActivationContext` (chunks are independent token groups, so
        cross-layer ISD state must stay per-chunk).  Pass ``context`` to
        share one across all chunks -- the batched equivalent of calling the
        layer sequentially with a shared context, which is only meaningful
        when the stream re-sends the *same* tokens through successive
        layers one chunk at a time: like the sequential per-request path, a
        later chunk's stored ISD overwrites an earlier chunk's.
        """
        futures = [
            self.submit(
                chunk,
                model,
                layer_index=layer_index,
                dataset=dataset,
                reference=reference,
                backend=backend,
                accelerator=accelerator,
                context=context if context is not None else ActivationContext(),
                degrade=degrade,
                tenant=tenant,
                deadline_ms=deadline_ms,
            )
            for chunk in chunks
        ]
        self.wait(futures)
        for future in futures:
            yield future.result()

    # -- batch execution ---------------------------------------------------

    def _execute_batch(
        self, key: RequestKey, batch: List[PendingRequest], total_rows: int
    ) -> None:
        """Resolve one batch against the registry and run the kernel."""
        with self._execute_lock:
            self._execute_batch_locked(key, batch, total_rows)

    def _degraded_engine(self, artifact, layer, key: RequestKey):
        """``(engine, applied_level)`` for a degraded request key.

        Degraded engines are compiled from the layer's calibrated spec with
        the ladder level's knobs forced (:func:`degraded_spec`) and cached
        per full key -- the layer's own engine cache only ever holds the
        calibrated spec.  Called under the execute lock.
        """
        cache_key = key
        cached = self._degraded_engines.get(cache_key)
        if cached is not None:
            return cached
        spec = spec_for_layer(layer)
        source = None
        if key.degrade >= 2 and spec.predictor_anchor_log_isd is None:
            # Borrow equation (3) coefficients from one of the artifact's
            # calibrated skip-range layers (any will do: the window is
            # re-anchored onto this layer by degraded_spec).
            for other in artifact.haan_layers:
                predictor = getattr(other, "predictor", None)
                if predictor is not None and predictor.covers(other.layer_index):
                    source = spec_for_layer(other)
                    break
        dspec, applied_level = degraded_spec(spec, key.degrade, predictor_source=source)
        if applied_level == 0:
            engine = layer.engine_for(key.backend, accelerator=key.accelerator)
        else:
            from repro.engine.registry import build

            kwargs = {}
            if key.accelerator is not None:
                from repro.hardware.configs import resolve_accelerator_config

                kwargs["accelerator_config"] = resolve_accelerator_config(key.accelerator)
            try:
                engine = build(
                    dspec,
                    backend=key.backend,
                    gamma=layer.gamma,
                    beta=layer.beta,
                    **kwargs,
                )
            except TypeError as error:
                raise ValueError(
                    f"backend {key.backend!r} does not accept an accelerator "
                    f"config; pick a cost-modelling backend (simulated*) "
                    f"or drop accelerator={key.accelerator!r}"
                ) from error
        self._degraded_engines[cache_key] = (engine, applied_level)
        return engine, applied_level

    def _execute_batch_locked(
        self, key: RequestKey, batch: List[PendingRequest], total_rows: int
    ) -> None:
        try:
            artifact = self.registry.get(key.model, key.dataset)
            layer = artifact.layer(key.layer_index, reference=key.reference)
            # The layer's compiled plan + the request's backend name resolve
            # through the engine registry; the name itself was validated at
            # submit() time, so failures here mean construction problems
            # (e.g. an accelerator selection on a cost-less backend).
            if key.degrade == 0:
                engine = layer.engine_for(key.backend, accelerator=key.accelerator)
                applied_level = 0
            else:
                engine, applied_level = self._degraded_engine(artifact, layer, key)
        except Exception as error:  # noqa: BLE001 -- fail the whole batch
            self.telemetry.observe_error()
            for pending in batch:
                pending.set_exception(error)
            return

        good: List[PendingRequest] = []
        rows_list: List[np.ndarray] = []
        for pending in batch:
            rows = pending.request.rows
            if rows.shape[1] != layer.hidden_size:
                total_rows -= rows.shape[0]
                pending.set_exception(
                    ValueError(
                        f"payload width {rows.shape[1]} does not match hidden "
                        f"size {layer.hidden_size} of {key.model}/{key.dataset} "
                        f"layer {key.layer_index}"
                    )
                )
            else:
                good.append(pending)
                rows_list.append(rows)
        if not good:
            return

        counts = [rows.shape[0] for rows in rows_list]
        contexts = [pending.request.context for pending in good]
        starts = np.cumsum([0] + counts[:-1])
        # Stack the request segments into pooled staging instead of
        # `np.concatenate`: the size-bucketed queues make batch shapes
        # recur, so steady-state serving re-fills the same buffer.  Only
        # the output matrix (owned by the responses) is allocated per batch.
        stacked = self._workspace.matrix("service.staging", total_rows, layer.hidden_size)
        np.concatenate(rows_list, axis=0, out=stacked)
        output = np.empty((total_rows, layer.hidden_size))
        spec = engine.spec
        anchor = None
        if spec.skipped:
            anchor = stack_anchor_isds(contexts, spec.predictor_anchor_layer, counts)

        released_at = self._queue_clock()
        start_time = time.perf_counter()
        try:
            output, mean, isd = engine.run(
                stacked, starts, anchor, workspace=self._workspace, out=output
            )
        except Exception as error:  # noqa: BLE001
            self.telemetry.observe_error()
            for pending in good:
                pending.set_exception(error)
            return
        batch_seconds = time.perf_counter() - start_time
        # Cost-modelling backends (`simulated` and its accelerator-pinned
        # variants) record one NormCostRecord per run; fold it into the
        # telemetry snapshot so `haan-serve --backend simulated` reports
        # modelled cycles/energy alongside wall clock.  Reading right after
        # the run under the execute lock ties the record to this batch.
        cost_record = getattr(engine.backend, "last_record", None)
        scatter_isd(contexts, layer.layer_index, isd, counts)

        # Path flags come from the compiled plan -- configuration, not
        # per-call mutable state: services sharing a registry may run the
        # same layer object concurrently.
        was_predicted, was_subsampled = engine.path_flags()
        queue_waits = [released_at - pending.enqueued_at for pending in good]
        batch_size = len(good)
        # Responses are disjoint row views of the batch arrays: a caller
        # mutating its own output can never touch a sibling's rows (the
        # cost is that a live response pins its batch's buffer).  The
        # statistics are additionally frozen read-only, and contexts store
        # copies (scatter_isd), so no response aliases cross-request or
        # cross-layer state.
        mean.flags.writeable = False
        isd.flags.writeable = False
        self.telemetry.count_served(batch_size, total_rows)
        offset = 0
        for pending, count, wait in zip(good, counts, queue_waits):
            segment = slice(offset, offset + count)
            offset += count
            request = pending.request
            pending.set_result(
                NormResponse(  # positional: field order of NormResponse
                    request.request_id,
                    key,
                    output[segment].reshape(request.payload.shape),
                    mean[segment],
                    isd[segment],
                    was_predicted,
                    was_subsampled,
                    batch_size,
                    wait,
                    batch_seconds,
                    applied_level,
                )
            )
        self.telemetry.observe_batch(
            num_requests=len(good),
            num_rows=int(stacked.shape[0]),
            queue_waits=queue_waits,
            batch_seconds=batch_seconds,
            rows_predicted=int(stacked.shape[0]) if was_predicted else 0,
            rows_subsampled=int(stacked.shape[0]) if was_subsampled else 0,
            backend=key.backend,
            cost=cost_record,
        )
        observer = self.cost_observer
        if observer is not None and cost_record is not None:
            # Per-tenant attribution of the batch's modelled cost.  The
            # observer receives the whole batch (tenant names and row
            # counts in batch order) so the split can be made *exact*:
            # summed per-tenant cycles/energy reproduce the record's
            # totals bit-for-bit, regardless of how requests shared the
            # batch.
            observer(
                [pending.request.tenant for pending in good], counts, cost_record
            )
