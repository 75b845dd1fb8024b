"""Tests of the batched normalization serving runtime.

The central contract is golden-model equivalence: every response produced
by the batched path must be bit-identical (``np.array_equal``, no
tolerance) to running the same payload alone through the per-request
:class:`~repro.core.haan_norm.HaanNormalization` pipeline.  The remaining
tests cover scheduler ordering and coalescing, the calibration registry's
LRU behaviour and the telemetry aggregates.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.calibration import CalibrationSettings
from repro.core.haan_norm import HaanNormalization
from repro.core.predictor import IsdPredictor
from repro.core.subsampling import (
    SubsamplePolicy,
    SubsampleSettings,
    batched_subsampled_statistics,
    select_subsample,
    subsample_indices,
    subsampled_statistics,
)
from repro.llm.hooks import ActivationContext, scatter_isd, stack_anchor_isds
from repro.llm.normalization import LayerNorm, RMSNorm
from repro.numerics.quantization import DataFormat, segmented_round_trip, storage_round_trip
from repro.serving import (
    BatcherConfig,
    CalibrationRegistry,
    LatencyHistogram,
    NormalizationService,
    ServingTelemetry,
    default_artifact_loader,
)
from repro.serving.batcher import size_class

HIDDEN = 64


def _base_layer(layer_index=5, rms=False, seed=0):
    rng = np.random.default_rng(seed)
    cls = RMSNorm if rms else LayerNorm
    return cls(
        hidden_size=HIDDEN,
        layer_index=layer_index,
        name=f"block.norm{layer_index}",
        gamma=1.0 + 0.1 * rng.standard_normal(HIDDEN),
        beta=0.05 * rng.standard_normal(HIDDEN),
    )


def _predictor():
    return IsdPredictor(anchor_layer=3, last_layer=8, decay=-0.05, anchor_log_isd=0.2)


def _tiny_loader(model_name, dataset):
    """Serving artifact for the tiny models with a fast calibration pass."""
    return default_artifact_loader(
        model_name,
        dataset,
        settings=CalibrationSettings(
            num_samples=4,
            max_seq_len=16,
            batch_size=2,
            window=2,
            min_start_fraction=0.3,
        ),
    )


@pytest.fixture(scope="module")
def registry():
    return CalibrationRegistry(loader=_tiny_loader)


@pytest.fixture()
def inline_service(registry):
    service = NormalizationService(
        registry=registry,
        config=BatcherConfig(max_batch_size=8),
    )
    yield service
    service.close()


# ---------------------------------------------------------------------------
# Batched kernels: bit-identity against the per-request reference
# ---------------------------------------------------------------------------

class TestBatchedKernel:
    @pytest.mark.parametrize("data_format", list(DataFormat))
    @pytest.mark.parametrize("rms", [False, True])
    def test_forward_batched_bit_identical(self, data_format, rms, rng):
        """Stacked segments match N independent single-request forwards."""
        layer = HaanNormalization(
            _base_layer(rms=rms),
            predictor=None,
            subsample=SubsampleSettings(24),
            data_format=data_format,
        )
        payloads = [rng.normal(0.5, 2.0, size=(n, HIDDEN)) for n in (1, 3, 1, 2)]
        reference = np.concatenate([layer(p) for p in payloads])
        starts = np.cumsum([0] + [p.shape[0] for p in payloads])[:-1]
        out, _, _ = layer.forward_batched(np.concatenate(payloads), starts)
        assert np.array_equal(out, reference)

    def test_int8_requires_per_segment_scales(self, rng):
        """A whole-stack INT8 round trip is NOT bit-identical -- the per-
        segment path exists precisely because quantization couples rows."""
        layer = HaanNormalization(_base_layer(), data_format=DataFormat.INT8)
        small = rng.normal(0.0, 0.1, size=(2, HIDDEN))
        large = rng.normal(0.0, 50.0, size=(2, HIDDEN))
        stacked = np.concatenate([small, large])
        per_segment = segmented_round_trip(stacked, np.array([0, 2]), DataFormat.INT8)
        whole_stack = storage_round_trip(stacked, DataFormat.INT8)
        assert not np.array_equal(per_segment, whole_stack)
        reference = np.concatenate([layer(small), layer(large)])
        out, _, _ = layer.forward_batched(stacked, np.array([0, 2]))
        assert np.array_equal(out, reference)

    def test_skipped_layer_with_mixed_anchors(self, rng):
        """Rows with context anchors use equation (3); rows without fall
        back to the calibration scalar -- exactly like the single path."""
        layer = HaanNormalization(
            _base_layer(layer_index=5),
            predictor=_predictor(),
            subsample=SubsampleSettings(16),
        )
        counts = [2, 1, 3]
        contexts = [ActivationContext(), None, ActivationContext()]
        contexts[0].store_isd(3, np.array([1.1, 1.3]))
        contexts[2].store_isd(3, np.array([0.9, 1.0, 1.2]))
        payloads = [rng.normal(size=(n, HIDDEN)) for n in counts]
        reference = np.concatenate(
            [layer(p, c) for p, c in zip(payloads, contexts)]
        )
        anchor = stack_anchor_isds(contexts, 3, counts)
        starts = np.cumsum([0] + counts)[:-1]
        out, _, isd = layer.forward_batched(np.concatenate(payloads), starts, anchor)
        assert np.array_equal(out, reference)
        scatter_isd(contexts, 5, isd, counts)
        assert contexts[0].isd_of(5).shape == (2,)

    def test_reference_layer_forward_batched(self, rng):
        layer = _base_layer()
        payloads = [rng.normal(size=(n, HIDDEN)) for n in (2, 3)]
        reference = np.concatenate([layer(p) for p in payloads])
        out, _, _ = layer.forward_batched(np.concatenate(payloads))
        assert np.array_equal(out, reference)

    def test_batched_subsampled_statistics_matches_per_segment(self, rng):
        settings = SubsampleSettings(16, SubsamplePolicy.STRIDED)
        segments = [rng.normal(size=(n, HIDDEN)) for n in (2, 4)]
        mean, isd = batched_subsampled_statistics(
            np.concatenate(segments), np.array([2, 4]), settings
        )
        ref = [subsampled_statistics(s, settings) for s in segments]
        assert np.array_equal(mean, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(isd, np.concatenate([r[1] for r in ref]))
        with pytest.raises(ValueError):
            batched_subsampled_statistics(
                np.concatenate(segments), np.array([2, 5]), settings
            )

    def test_subsample_indices_match_selection(self, rng):
        """The index helper must pick exactly the columns select_subsample reads."""
        rows = rng.normal(size=(3, HIDDEN))
        for policy in SubsamplePolicy:
            settings = SubsampleSettings(10, policy)
            indices = subsample_indices(HIDDEN, settings)
            assert indices.size == 10
            assert np.array_equal(rows[:, indices], select_subsample(rows, settings))


# ---------------------------------------------------------------------------
# Service: golden-model comparison through the full scheduler
# ---------------------------------------------------------------------------

class TestServiceGolden:
    def test_batched_service_bit_identical_to_single_requests(
        self, registry, inline_service, rng
    ):
        artifact = registry.get("tiny")
        for layer_index in range(artifact.num_layers):
            payloads = [rng.normal(size=(HIDDEN,)) for _ in range(13)]
            responses = inline_service.normalize_many(
                payloads, "tiny", layer_index=layer_index
            )
            layer = artifact.layer(layer_index)
            for payload, response in zip(payloads, responses):
                assert np.array_equal(response.output, layer(payload))
                assert response.output.shape == payload.shape

    def test_multi_row_payloads_and_reference_path(self, registry, inline_service, rng):
        artifact = registry.get("tiny")
        payloads = [rng.normal(size=(n, HIDDEN)) for n in (1, 4, 2, 8, 1)]
        responses = inline_service.normalize_many(
            payloads, "tiny", layer_index=0, reference=True
        )
        reference_layer = artifact.layer(0, reference=True)
        for payload, response in zip(payloads, responses):
            assert np.array_equal(response.output, reference_layer(payload))
        assert not isinstance(reference_layer, HaanNormalization)

    def test_stream_shares_context_across_chunks(self, registry, rng):
        """A stream's anchor-layer chunk feeds the skipped layer's predictor."""
        artifact = registry.get("tiny")
        anchor, last = artifact.config.skip_range
        skipped = min(anchor + 1, last)
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=4),
        )
        chunk = rng.normal(size=(3, HIDDEN))
        context = ActivationContext()
        list(service.stream([chunk], "tiny", layer_index=anchor, context=context))
        batched = service.normalize(
            chunk, "tiny", layer_index=skipped, context=context
        )
        ref_context = ActivationContext()
        artifact.layer(anchor)(chunk, ref_context)
        reference = artifact.layer(skipped)(chunk, ref_context)
        assert np.array_equal(batched.output, reference)
        assert batched.was_predicted
        service.close()

    def test_empty_payload_rejected_at_submission(self, inline_service):
        """A zero-row payload must never reach a micro-batch (it would
        corrupt the INT8 segment bookkeeping for co-batched requests)."""
        with pytest.raises(ValueError, match="non-empty"):
            inline_service.submit(np.empty((0, HIDDEN)), "tiny")
        with pytest.raises(ValueError, match="non-empty"):
            inline_service.submit(np.empty((0,)), "tiny")

    def test_wrong_width_payload_fails_only_that_request(self, inline_service, rng):
        futures = inline_service.submit_many(
            [rng.normal(size=(HIDDEN,)), rng.normal(size=(HIDDEN + 1,))], "tiny"
        )
        inline_service.batcher.drain_all()
        assert futures[0].result().output.shape == (HIDDEN,)
        with pytest.raises(ValueError, match="does not match hidden size"):
            futures[1].result()


class TestSubmitManyEdgeCases:
    """PR-6 hardening: empty bursts, single-row batches, bad dtypes."""

    def test_empty_burst_returns_no_futures(self, inline_service):
        assert inline_service.submit_many([], "tiny") == []
        assert inline_service.telemetry.snapshot()["requests_total"] == 0

    def test_single_row_batches_keep_vector_shape(self, inline_service, rng):
        payloads = [rng.normal(size=(HIDDEN,)) for _ in range(4)]
        responses = inline_service.normalize_many(payloads, "tiny")
        assert [r.output.shape for r in responses] == [(HIDDEN,)] * 4
        one_row = inline_service.normalize(rng.normal(size=(1, HIDDEN)), "tiny")
        assert one_row.output.shape == (1, HIDDEN)

    def test_mixed_dtype_payloads_rejected_before_enqueue(self, inline_service, rng):
        complex_payload = rng.normal(size=(2, HIDDEN)) + 1j
        with pytest.raises(ValueError, match="real-numeric"):
            inline_service.submit(complex_payload, "tiny")
        with pytest.raises(ValueError, match="real-numeric"):
            inline_service.submit_many(
                [rng.normal(size=(HIDDEN,)), complex_payload], "tiny"
            )
        with pytest.raises(ValueError, match="real-numeric"):
            inline_service.submit(np.array([["norm"] * HIDDEN]), "tiny")
        # The rejection happens at the front door: nothing was enqueued.
        assert inline_service.telemetry.snapshot()["requests_total"] == 0
        assert inline_service.telemetry.snapshot()["errors_total"] == 0


# ---------------------------------------------------------------------------
# Scheduler: ordering and coalescing
# ---------------------------------------------------------------------------

class TestScheduler:
    def test_fifo_order_within_bucket(self, registry, rng):
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=3),
        )
        payloads = [rng.normal(size=(HIDDEN,)) for _ in range(7)]
        futures = service.submit_many(payloads, "tiny", layer_index=0)
        executed = service.batcher.drain_once()
        assert executed == 3
        # Exactly the three oldest requests ran, in submission order.
        assert [f.done() for f in futures] == [True] * 3 + [False] * 4
        sizes = [f.result().batch_size for f in futures[:3]]
        assert sizes == [3, 3, 3]
        service.batcher.drain_all()
        ids = [f.result().request_id for f in futures]
        assert ids == sorted(ids)
        service.close()

    def test_size_classes_separate_small_and_large(self, registry, rng):
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=8),
        )
        small = service.submit(rng.normal(size=(HIDDEN,)), "tiny")
        large = service.submit(rng.normal(size=(32, HIDDEN)), "tiny")
        service.batcher.drain_all()
        # Different size classes never share a micro-batch.
        assert small.result().batch_size == 1
        assert large.result().batch_size == 1
        service.close()

    def test_size_class_rounds_rows_up_to_a_power_of_two(self):
        assert [size_class(n) for n in (0, 1, 2, 3, 4, 5, 17, 32)] == [
            1, 1, 2, 4, 4, 8, 32, 32,
        ]

    def test_max_batch_rows_caps_coalescing(self, registry, rng):
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=8, max_batch_rows=10),
        )
        futures = service.submit_many(
            [rng.normal(size=(4, HIDDEN)) for _ in range(4)], "tiny"
        )
        service.batcher.drain_once()
        assert [f.done() for f in futures] == [True, True, False, False]
        service.batcher.drain_all()
        service.close()

    def test_responses_do_not_alias_the_batch(self, registry, inline_service, rng):
        """Mutating one response must never corrupt a co-batched response."""
        payloads = [rng.normal(size=(HIDDEN,)) for _ in range(4)]
        responses = inline_service.normalize_many(payloads, "tiny", layer_index=0)
        expected = responses[1].output.copy()
        responses[0].output[:] = 0.0  # outputs are caller-owned copies
        assert np.array_equal(responses[1].output, expected)
        with pytest.raises(ValueError):  # statistics are frozen views
            responses[0].isd[:] = -1.0
        assert responses[1].batch_size == 4

    def test_requests_queued_behind_a_running_batch_coalesce(
        self, registry, rng, hold_engine
    ):
        """The engine tick is the trigger: work that arrives while a batch
        executes leaves together as the next batch."""
        service = NormalizationService(
            registry=registry, config=BatcherConfig(max_batch_size=8)
        )
        entered, release = hold_engine(service)
        stop = threading.Event()

        def drain():
            # The engine: drains whatever is queued, one batch per tick.
            while not stop.is_set():
                if not service.batcher.drain_once():
                    time.sleep(0.001)

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        try:
            first = service.submit(rng.normal(size=(HIDDEN,)), "tiny")
            assert entered.wait(timeout=10.0)
            queued = service.submit_many(
                [rng.normal(size=(HIDDEN,)) for _ in range(3)], "tiny"
            )
            assert not first.done() and not any(f.done() for f in queued)
            release.set()
            assert first.result(timeout=10.0).batch_size == 1
            assert [f.result(timeout=10.0).batch_size for f in queued] == [3, 3, 3]
        finally:
            stop.set()
            drainer.join(timeout=10.0)
        service.close()

    def test_inline_wait_drains_the_queue(self, registry, rng):
        service = NormalizationService(registry=registry)
        futures = service.submit_many(
            [rng.normal(size=(HIDDEN,)) for _ in range(3)], "tiny"
        )
        assert not any(f.done() for f in futures)
        service.wait(futures)
        assert all(f.done() for f in futures)
        assert service.batcher.pending_count == 0
        service.close()

    def test_response_is_counted_before_it_is_released(self, registry, rng):
        """Whoever holds a response can already see it in the telemetry
        totals: the counts land before the futures resolve."""
        service = NormalizationService(registry=registry)
        futures = service.submit_many(
            [rng.normal(size=(2, HIDDEN)) for _ in range(3)], "tiny"
        )
        seen = []
        for future in futures:
            future.add_done_callback(
                lambda _: seen.append(
                    (
                        service.telemetry.requests_total.value,
                        service.telemetry.rows_total.value,
                    )
                )
            )
        service.wait(futures)
        assert seen == [(3, 6)] * 3
        service.close()

    def test_submit_after_close_is_rejected(self, registry, rng):
        """A request racing shutdown must fail loudly, never hang."""
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=4),
        )
        service.normalize(rng.normal(size=(HIDDEN,)), "tiny")
        service.close()
        with pytest.raises(RuntimeError, match="stopped"):
            service.submit(rng.normal(size=(HIDDEN,)), "tiny")

    def test_threaded_concurrent_submitters(self, registry, rng):
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=16),
        )
        artifact = registry.get("tiny")
        layer = artifact.layer(0)
        errors = []

        def client(seed):
            local = np.random.default_rng(seed)
            for _ in range(10):
                payload = local.normal(size=(HIDDEN,))
                response = service.normalize(payload, "tiny", layer_index=0)
                if not np.array_equal(response.output, layer(payload)):
                    errors.append(seed)

        threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        assert not errors
        assert service.telemetry.requests_total.value == 40


# ---------------------------------------------------------------------------
# Calibration registry
# ---------------------------------------------------------------------------

class TestCalibrationRegistry:
    def test_artifact_cached_and_hit_counted(self):
        calls = []

        def loader(model, dataset):
            calls.append((model, dataset))
            return _tiny_loader(model, dataset)

        registry = CalibrationRegistry(loader=loader, capacity=2)
        first = registry.get("tiny")
        second = registry.get("tiny")
        assert first is second
        assert calls == [("tiny", "default")]
        assert registry.stats.hits == 1 and registry.stats.misses == 1

    def test_lru_eviction_order(self):
        def loader(model, dataset):
            return object()  # artifact contents irrelevant to eviction

        registry = CalibrationRegistry(loader=loader, capacity=2)
        a = registry.get("a")
        registry.get("b")
        registry.get("a")  # refresh a; b is now least recently used
        registry.get("c")  # evicts b
        assert ("a", "default") in registry and ("c", "default") in registry
        assert ("b", "default") not in registry
        assert registry.stats.evictions == 1
        assert registry.get("a") is a

    def test_distinct_datasets_are_distinct_entries(self):
        registry = CalibrationRegistry(loader=lambda m, d: (m, d), capacity=4)
        assert registry.get("tiny", "wiki") != registry.get("tiny", "ptb")
        assert len(registry) == 2

    def test_loader_failure_propagates_and_is_not_cached(self):
        attempts = []

        def loader(model, dataset):
            attempts.append(model)
            raise RuntimeError("calibration corpus unavailable")

        registry = CalibrationRegistry(loader=loader)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                registry.get("tiny")
        assert len(attempts) == 2 and len(registry) == 0


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

class TestTelemetry:
    def test_histogram_percentiles_bound_the_data(self):
        hist = LatencyHistogram()
        values = [1e-5, 2e-5, 5e-5, 1e-4, 1e-3, 1e-2]
        for value in values:
            hist.observe(value)
        assert hist.count == 6
        assert hist.percentile(50) >= 2e-5
        assert hist.percentile(99) >= 1e-2 * 0.99
        assert hist.percentile(100) >= max(values) * 0.99
        np.testing.assert_allclose(hist.mean, np.mean(values))

    def test_observe_many_matches_observe(self):
        loop, bulk = LatencyHistogram(), LatencyHistogram()
        values = np.abs(np.random.default_rng(0).normal(1e-3, 1e-3, size=200)) + 1e-7
        for value in values:
            loop.observe(value)
        bulk.observe_many(values)
        assert np.array_equal(loop.counts, bulk.counts)
        assert loop.count == bulk.count

    def test_service_telemetry_rates(self, registry, rng):
        telemetry = ServingTelemetry()
        service = NormalizationService(
            registry=registry,
            config=BatcherConfig(max_batch_size=4),
            telemetry=telemetry,
        )
        artifact = registry.get("tiny")
        anchor, last = artifact.config.skip_range
        skipped = min(anchor + 1, last)
        service.normalize_many(
            [rng.normal(size=(HIDDEN,)) for _ in range(8)], "tiny", layer_index=0
        )
        service.normalize_many(
            [rng.normal(size=(HIDDEN,)) for _ in range(8)], "tiny", layer_index=skipped
        )
        snap = telemetry.snapshot()
        assert snap["requests_total"] == 16
        assert snap["batches_total"] == 4
        assert snap["mean_batch_size"] == 4.0
        assert telemetry.skip_rate == 0.5  # the skipped-layer half
        assert telemetry.subsample_rate >= 0.5  # computed half subsamples
        assert snap["requests_per_second"] > 0
        assert "queue wait" in telemetry.format_table()
        service.close()

    def test_error_counted(self, registry):
        telemetry = ServingTelemetry()
        service = NormalizationService(
            registry=CalibrationRegistry(
                loader=lambda m, d: (_ for _ in ()).throw(RuntimeError("boom"))
            ),
            config=BatcherConfig(max_batch_size=2),
            telemetry=telemetry,
        )
        future = service.submit(np.zeros(HIDDEN), "tiny")
        service.batcher.drain_all()
        with pytest.raises(RuntimeError):
            future.result()
        assert telemetry.errors_total.value == 1
        service.close()
