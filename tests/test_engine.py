"""Cross-backend golden-equivalence suite for :mod:`repro.engine`.

The engine contract: every registered backend executes the *same*
:class:`~repro.engine.spec.EngineSpec` and their outputs are
interchangeable -- ``reference`` and ``vectorized`` are **bit-identical**
(exact comparisons, never tolerances, NaN positions and zero signs
included) across the full PR-2 edge sweep (every storage format, both norm
kinds, both subsample policies, skipped and computed layers, empty stacks,
NaN/inf payloads), and ``simulated`` matches ``reference`` numerics while
additionally emitting hardware cost records.

Also covered: spec compilation / serialization round trips, the registry's
unknown-backend error (it must list the registry contents), layer-level
engine delegation and cache invalidation, and per-request backend
selection through the serving service with backend-tagged telemetry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.predictor import IsdPredictor
from repro.core.subsampling import SubsamplePolicy, SubsampleSettings
from repro.engine.backends import (
    NormBackend,
    NormCostRecord,
    ReferenceBackend,
    SimulatedBackend,
    VectorizedBackend,
)
from repro.engine.plan import compile_plan
from repro.engine.registry import (
    available_backends,
    build,
    create_backend,
    local_backends,
    register_backend,
)
from repro.engine.spec import EngineSpec, compile_spec, spec_for_layer
from repro.llm.config import NormKind
from repro.llm.normalization import LayerNorm, RMSNorm, make_norm
from repro.numerics.quantization import DataFormat
from repro.serving import BatcherConfig, NormalizationService

HIDDEN = 96


def assert_same_floats(actual, expected) -> None:
    """Exact float equality: values, NaN positions and zero signs."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    nan_a, nan_e = np.isnan(actual), np.isnan(expected)
    assert np.array_equal(nan_a, nan_e)
    assert np.array_equal(actual[~nan_a], expected[~nan_e])
    assert np.array_equal(np.signbit(actual[~nan_a]), np.signbit(expected[~nan_e]))


def assert_results_equal(fast, golden) -> None:
    """Exact equality of two ``(output, mean, isd)`` triples."""
    for a, b in zip(fast, golden):
        assert_same_floats(a, b)


def make_haan_layer(
    rng,
    hidden=HIDDEN,
    kind=NormKind.LAYERNORM,
    data_format=DataFormat.INT8,
    subsample=SubsampleSettings(length=24),
    skipped=False,
    use_hardware_inv_sqrt=False,
):
    base = make_norm(kind, hidden, layer_index=3, name="test.norm")
    base.load_affine(rng.normal(1.0, 0.1, hidden), rng.normal(0.0, 0.1, hidden))
    predictor = None
    if skipped:
        predictor = IsdPredictor(anchor_layer=1, last_layer=5, decay=-0.05, anchor_log_isd=0.2)
    return HaanNormalization(
        base,
        predictor=predictor,
        subsample=subsample,
        data_format=data_format,
        use_hardware_inv_sqrt=use_hardware_inv_sqrt,
    )


# ---------------------------------------------------------------------------
# spec compilation and serialization
# ---------------------------------------------------------------------------


class TestEngineSpec:
    def test_roundtrips_through_dict(self):
        spec = EngineSpec(
            kind="layernorm",
            hidden_size=32,
            storage="int8",
            subsample_length=8,
            subsample_policy="strided",
            skipped=True,
            layer_index=4,
            predictor_anchor_layer=2,
            predictor_last_layer=6,
            predictor_decay=-0.04,
            predictor_anchor_log_isd=0.3,
        )
        payload = spec.to_dict()
        assert all(
            value is None or isinstance(value, (str, int, float, bool))
            for value in payload.values()
        )
        assert EngineSpec.from_dict(payload) == spec

    def test_spec_for_reference_layer(self):
        layer = LayerNorm(hidden_size=16, layer_index=2, name="ref", eps=1e-6)
        spec = spec_for_layer(layer)
        assert spec.kind == "layernorm"
        assert spec.storage is None  # exact layers never round-trip storage
        assert not spec.skipped
        assert spec.subsample_length is None
        assert spec.eps == 1e-6

    def test_spec_for_haan_layer(self):
        layer = make_haan_layer(np.random.default_rng(0), skipped=True)
        spec = spec_for_layer(layer)
        assert spec.storage == "int8"
        assert spec.skipped
        assert spec.subsample_length == 24
        assert spec.predictor_anchor_layer == 1
        assert spec.predictor_decay == -0.05

    def test_compile_spec_from_haan_config(self):
        config = HaanConfig(
            skip_range=(2, 6), subsample_length=128, data_format=DataFormat.FP16
        )
        predictor = IsdPredictor(anchor_layer=2, last_layer=6, decay=-0.1, anchor_log_isd=0.0)
        skipped = compile_spec(
            config, NormKind.RMSNORM, hidden_size=64, layer_index=4, predictor=predictor
        )
        assert skipped.skipped and skipped.is_rms and skipped.storage == "fp16"
        computed = compile_spec(config, NormKind.RMSNORM, hidden_size=64, layer_index=1)
        assert not computed.skipped
        # layer at the anchor itself is computed (it anchors the prediction)
        anchor = compile_spec(
            config, NormKind.RMSNORM, hidden_size=64, layer_index=2, predictor=predictor
        )
        assert not anchor.skipped

    def test_compile_spec_skipped_requires_predictor(self):
        config = HaanConfig(skip_range=(2, 6))
        with pytest.raises(ValueError, match="predictor"):
            compile_spec(config, NormKind.LAYERNORM, hidden_size=8, layer_index=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "batchnorm", "hidden_size": 8},
            {"kind": "layernorm", "hidden_size": 0},
            {"kind": "layernorm", "hidden_size": 8, "storage": "fp64"},
            {"kind": "layernorm", "hidden_size": 8, "subsample_length": 0},
            {"kind": "layernorm", "hidden_size": 8, "subsample_policy": "random"},
            {"kind": "layernorm", "hidden_size": 8, "skipped": True},
        ],
        ids=["kind", "hidden", "storage", "subsample", "policy", "skipped-no-predictor"],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EngineSpec(**kwargs)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_three_backends_registered(self):
        assert {"reference", "vectorized", "simulated"} <= set(available_backends())

    def test_unknown_backend_error_lists_registry(self):
        with pytest.raises(ValueError) as excinfo:
            create_backend("fpga-of-the-future")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_build_constructs_every_backend_from_one_spec(self):
        # local_backends(): the remote backend is registered but needs a
        # live server address, so zero-config sweeps exclude it.
        spec = EngineSpec(kind="layernorm", hidden_size=8, storage="fp16")
        engines = {name: build(spec, backend=name) for name in local_backends()}
        assert isinstance(engines["reference"].backend, ReferenceBackend)
        assert isinstance(engines["vectorized"].backend, VectorizedBackend)
        assert isinstance(engines["simulated"].backend, SimulatedBackend)
        rows = np.random.default_rng(1).normal(size=(4, 8))
        golden = engines["reference"].run(rows)
        for name, engine in engines.items():
            assert_results_equal(engine.run(rows), golden)

    def test_build_accepts_backend_instance_and_plan(self):
        spec = EngineSpec(kind="rmsnorm", hidden_size=8)
        backend = VectorizedBackend()
        plan = compile_plan(spec)
        engine = build(plan, backend=backend)
        assert engine.backend is backend and engine.plan is plan

    def test_custom_backend_registration(self):
        class EchoBackend(NormBackend):
            name = "echo-test"

            def run(self, plan, rows, segment_starts=None, anchor_isd=None,
                    workspace=None, out=None):
                arr = plan.check_rows(rows)
                zeros = np.zeros(arr.shape[0])
                return arr, zeros, zeros

        register_backend("echo-test", EchoBackend)
        try:
            assert "echo-test" in available_backends()
            engine = build(EngineSpec(kind="layernorm", hidden_size=4), backend="echo-test")
            rows = np.ones((2, 4))
            out, _, _ = engine.run(rows)
            assert np.array_equal(out, rows)
        finally:
            from repro.engine.registry import _FACTORIES

            _FACTORIES.pop("echo-test", None)


# ---------------------------------------------------------------------------
# cross-backend golden equivalence (the PR-2 edge sweep)
# ---------------------------------------------------------------------------


STORAGE_FORMATS = list(DataFormat)


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("data_format", STORAGE_FORMATS, ids=lambda f: f.value)
    @pytest.mark.parametrize("kind", [NormKind.LAYERNORM, NormKind.RMSNORM])
    @pytest.mark.parametrize(
        "subsample",
        [
            None,
            SubsampleSettings(length=24),
            SubsampleSettings(length=24, policy=SubsamplePolicy.STRIDED),
        ],
        ids=["full", "truncate", "strided"],
    )
    def test_reference_vs_vectorized_bit_identical(self, data_format, kind, subsample):
        rng = np.random.default_rng(43)
        layer = make_haan_layer(rng, kind=kind, data_format=data_format, subsample=subsample)
        stacked = rng.normal(0.0, 2.0, size=(13, HIDDEN))
        starts = np.array([0, 4, 5, 11])
        fast = layer.engine_for("vectorized").run(stacked, starts)
        golden = layer.engine_for("reference").run(stacked, starts)
        assert_results_equal(fast, golden)

    @pytest.mark.parametrize("data_format", STORAGE_FORMATS, ids=lambda f: f.value)
    def test_skipped_layer_with_mixed_anchors(self, data_format):
        rng = np.random.default_rng(47)
        layer = make_haan_layer(rng, data_format=data_format, skipped=True)
        stacked = rng.normal(size=(6, HIDDEN))
        anchor = np.array([2.0, 2.0, np.nan, 0.5, 0.5, 0.5])
        starts = np.array([0, 2, 3])
        fast = layer.engine_for("vectorized").run(stacked, starts, anchor)
        golden = layer.engine_for("reference").run(stacked, starts, anchor)
        assert_results_equal(fast, golden)

    def test_hardware_inv_sqrt_refinement(self):
        rng = np.random.default_rng(53)
        layer = make_haan_layer(rng, use_hardware_inv_sqrt=True)
        stacked = rng.normal(size=(5, HIDDEN))
        fast = layer.engine_for("vectorized").run(stacked)
        golden = layer.engine_for("reference").run(stacked)
        assert_results_equal(fast, golden)

    @pytest.mark.parametrize("data_format", STORAGE_FORMATS, ids=lambda f: f.value)
    def test_nan_and_inf_payloads(self, data_format):
        rng = np.random.default_rng(59)
        layer = make_haan_layer(rng, data_format=data_format, subsample=None)
        stacked = rng.normal(size=(8, HIDDEN))
        stacked[1, 3] = np.nan
        stacked[4, 0] = np.inf
        stacked[6, -1] = -np.inf
        starts = np.array([0, 2, 5])
        fast = layer.engine_for("vectorized").run(stacked, starts)
        golden = layer.engine_for("reference").run(stacked, starts)
        assert_results_equal(fast, golden)

    @pytest.mark.parametrize("data_format", STORAGE_FORMATS, ids=lambda f: f.value)
    def test_empty_stack(self, data_format):
        layer = make_haan_layer(
            np.random.default_rng(61), data_format=data_format, subsample=None
        )
        empty = np.empty((0, HIDDEN))
        for backend in local_backends():
            out, mean, isd = layer.engine_for(backend).run(empty)
            assert out.shape == (0, HIDDEN)
            assert mean.shape == (0,)
            assert isd.shape == (0,)

    @pytest.mark.parametrize("cls", [LayerNorm, RMSNorm], ids=["layernorm", "rmsnorm"])
    def test_exact_reference_layers_storage_none(self, cls):
        """Plain layers compile to storage=None: no round trip anywhere."""
        rng = np.random.default_rng(67)
        layer = cls(hidden_size=HIDDEN, layer_index=0, name="exact")
        layer.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
        assert layer.plan.spec.storage is None
        payloads = [rng.normal(size=(n, HIDDEN)) for n in (1, 3, 2)]
        stacked = np.concatenate(payloads)
        starts = np.array([0, 1, 4])
        fast = layer.engine_for("vectorized").run(stacked, starts)
        golden = layer.engine_for("reference").run(stacked, starts)
        assert_results_equal(fast, golden)
        # ... and both equal the per-request __call__ path exactly.
        expected = np.concatenate([layer(p) for p in payloads])
        assert np.array_equal(fast[0], expected)

    def test_vectorized_matches_per_request_calls(self):
        rng = np.random.default_rng(71)
        layer = make_haan_layer(rng)
        payloads = [rng.normal(size=(n, HIDDEN)) for n in (1, 3, 2)]
        starts = np.array([0, 1, 4])
        out, _, _ = layer.engine_for("vectorized").run(np.concatenate(payloads), starts)
        expected = np.concatenate([layer(p) for p in payloads])
        assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# simulated backend: reference numerics + cost records
# ---------------------------------------------------------------------------


class TestSimulatedBackend:
    def test_matches_reference_and_emits_costs(self):
        rng = np.random.default_rng(73)
        layer = make_haan_layer(rng)
        engine = layer.engine_for("simulated")
        stacked = rng.normal(size=(9, HIDDEN))
        starts = np.array([0, 4])
        result = engine.run(stacked, starts)
        assert_results_equal(result, layer.engine_for("reference").run(stacked, starts))
        record = engine.backend.last_record
        assert isinstance(record, NormCostRecord)
        assert record.num_rows == 9 and record.hidden_size == HIDDEN
        assert record.stats_cycles > 0 and record.isd_cycles > 0 and record.norm_cycles > 0
        assert record.total_cycles == (
            record.stats_cycles + record.isd_cycles + record.norm_cycles
        )
        assert record.latency_seconds > 0 and record.energy_nj > 0
        shares = record.stage_shares()
        assert shares["stats"] + shares["isd"] + shares["normalize"] == pytest.approx(1.0)

    def test_skipped_layer_costs_less_than_computed(self):
        rng = np.random.default_rng(79)
        computed = make_haan_layer(rng, subsample=None)
        skipped = make_haan_layer(rng, subsample=None, skipped=True)
        stacked = rng.normal(size=(16, HIDDEN))
        computed_engine = computed.engine_for("simulated")
        skipped_engine = skipped.engine_for("simulated")
        computed_engine.run(stacked)
        skipped_engine.run(stacked)
        assert (
            skipped_engine.backend.last_record.total_cycles
            < computed_engine.backend.last_record.total_cycles
        )
        assert skipped_engine.backend.last_record.skipped

    def test_record_accumulation_and_drain(self):
        rng = np.random.default_rng(83)
        layer = make_haan_layer(rng)
        engine = layer.engine_for("simulated")
        backend = engine.backend
        backend.pop_records()
        for _ in range(3):
            engine.run(rng.normal(size=(4, HIDDEN)))
        assert len(backend.records) == 3
        assert backend.total_cycles() == sum(r.total_cycles for r in backend.records)
        assert backend.total_energy_nj() > 0
        drained = backend.pop_records()
        assert len(drained) == 3 and len(backend.records) == 0
        # lifetime totals survive the drain
        assert backend.total_cycles() == sum(r.total_cycles for r in drained)
        assert backend.batches_recorded == 3

    def test_record_window_is_bounded(self):
        rng = np.random.default_rng(91)
        layer = make_haan_layer(rng, subsample=None)
        engine = layer.engine_for("simulated")
        backend = engine.backend
        backend.records = type(backend.records)(maxlen=2)
        for _ in range(5):
            engine.run(rng.normal(size=(2, HIDDEN)))
        assert len(backend.records) == 2  # window bounded...
        assert backend.batches_recorded == 5  # ...lifetime counters not

    def test_empty_stack_zero_cost(self):
        layer = make_haan_layer(np.random.default_rng(89), subsample=None)
        engine = layer.engine_for("simulated")
        engine.run(np.empty((0, HIDDEN)))
        record = engine.backend.last_record
        assert record.total_cycles == 0 and record.energy_nj == 0.0


# ---------------------------------------------------------------------------
# layer-level delegation
# ---------------------------------------------------------------------------


class TestLayerDelegation:
    def test_forward_batched_is_the_vectorized_engine(self):
        rng = np.random.default_rng(97)
        layer = make_haan_layer(rng)
        stacked = rng.normal(size=(7, HIDDEN))
        starts = np.array([0, 3])
        assert_results_equal(
            layer.forward_batched(stacked, starts),
            layer.engine_for("vectorized").run(stacked, starts),
        )
        assert_results_equal(
            layer.forward_batched_reference(stacked, starts),
            layer.engine_for("reference").run(stacked, starts),
        )

    def test_flags_follow_plan_after_batched_call(self):
        rng = np.random.default_rng(101)
        skipped = make_haan_layer(rng, skipped=True)
        assert not skipped._last_was_predicted()
        skipped.forward_batched(rng.normal(size=(3, HIDDEN)))
        assert skipped._last_was_predicted()
        computed = make_haan_layer(rng)
        computed.forward_batched(rng.normal(size=(3, HIDDEN)))
        assert not computed._last_was_predicted()
        assert computed._last_was_subsampled()

    def test_engines_are_cached_per_backend(self):
        layer = make_haan_layer(np.random.default_rng(103))
        assert layer.engine_for("vectorized") is layer.engine_for("vectorized")
        assert layer.engine_for("reference") is not layer.engine_for("vectorized")

    def test_load_affine_invalidates_compiled_plan(self):
        rng = np.random.default_rng(107)
        layer = make_haan_layer(rng)
        stacked = rng.normal(size=(4, HIDDEN))
        before = layer.forward_batched(stacked)[0].copy()
        old_plan = layer.plan
        layer.load_affine(np.full(HIDDEN, 2.0), np.zeros(HIDDEN))
        assert layer.plan is not old_plan
        after = layer.forward_batched(stacked)[0]
        assert not np.array_equal(before, after)
        # the recompiled plan matches a per-request call with the new affine
        assert np.array_equal(after, layer(stacked))

    def test_unknown_backend_via_layer_lists_registry(self):
        layer = make_haan_layer(np.random.default_rng(109))
        with pytest.raises(ValueError, match="vectorized"):
            layer.engine_for("warp-drive")


# ---------------------------------------------------------------------------
# serving integration: per-request backend selection
# ---------------------------------------------------------------------------


def _instant_loader(model_name, dataset):
    """Calibration-free artifact stub: one HAAN + one reference layer."""
    from repro.serving.registry import CalibrationArtifact

    rng = np.random.default_rng(11)
    base = LayerNorm(hidden_size=HIDDEN, layer_index=0, name="serve.norm")
    base.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
    haan = HaanNormalization(
        base,
        subsample=SubsampleSettings(length=16),
        data_format=DataFormat.INT8,
    )
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        model=None,
        config=HaanConfig(subsample_length=16, data_format=DataFormat.INT8),
        calibration=None,
        haan_layers=[haan],
        reference_layers=[base],
    )


class TestServingBackendSelection:
    def _service(self):
        from repro.serving import CalibrationRegistry

        return NormalizationService(
            registry=CalibrationRegistry(loader=_instant_loader),
            config=BatcherConfig(max_batch_size=8),
        )

    def test_every_backend_serves_bit_identical_responses(self):
        rng = np.random.default_rng(13)
        payloads = [rng.normal(size=(2, HIDDEN)) for _ in range(4)]
        outputs = {}
        for backend in local_backends():
            with self._service() as service:
                responses = service.normalize_many(payloads, "tiny", backend=backend)
                outputs[backend] = np.concatenate([r.output for r in responses])
        for backend, output in outputs.items():
            assert np.array_equal(output, outputs["reference"]), backend

    def test_telemetry_tags_batches_by_backend(self):
        rng = np.random.default_rng(17)
        payloads = [rng.normal(size=(1, HIDDEN)) for _ in range(3)]
        with self._service() as service:
            service.normalize_many(payloads, "tiny", backend="vectorized")
            service.normalize_many(payloads, "tiny", backend="simulated")
            snap = service.telemetry.snapshot()
        assert snap["backends"]["vectorized"]["requests"] == 3
        assert snap["backends"]["simulated"]["requests"] == 3
        assert "backend[simulated]" in service.telemetry.format_table()

    def test_backends_never_share_a_micro_batch(self):
        rng = np.random.default_rng(19)
        payloads = [rng.normal(size=(1, HIDDEN)) for _ in range(4)]
        with self._service() as service:
            for backend in ("vectorized", "reference"):
                service.submit_many(payloads, "tiny", backend=backend)
            service.batcher.drain_all()
            snap = service.telemetry.snapshot()
        assert snap["backends"]["vectorized"]["batches"] == 1
        assert snap["backends"]["reference"]["batches"] == 1

    def test_unknown_backend_fails_at_submit_with_registry_listing(self):
        # PR 4 moved name validation to the front door: submit() itself
        # raises (listing the registry) instead of failing the future deep
        # inside the batch executor.
        with self._service() as service:
            with pytest.raises(ValueError, match="vectorized"):
                service.submit(np.ones(HIDDEN), "tiny", backend="abacus")
            assert service.telemetry.snapshot()["errors_total"] == 0


# ---------------------------------------------------------------------------
# the engine experiment
# ---------------------------------------------------------------------------


class TestEngineExperiment:
    def test_runs_over_registered_backends(self):
        from repro.eval.experiments import run_experiment

        result = run_experiment(
            "engine", hidden=32, rows_per_request=2, requests=3, repeats=1
        )
        swept = {row[0] for row in result.rows}
        assert swept == set(local_backends())
        # golden contract: every backend deviates by exactly zero
        assert all(row[3] == "0.0e+00" for row in result.rows)
        simulated = result.metadata["details"]["simulated:computed"]
        assert simulated["cost_record"] is not None
        assert simulated["stage_shares"]["stats"] > 0


# ---------------------------------------------------------------------------
# run_many edge cases (PR 6): empty batches, single-row groups, bad dtypes
# ---------------------------------------------------------------------------


class TestRunManyEdgeCases:
    def _engine(self, backend="vectorized"):
        return build(EngineSpec(kind="layernorm", hidden_size=8), backend=backend)

    def test_empty_batch_list_is_a_noop(self):
        for name in local_backends():
            assert self._engine(name).run_many([]) == []

    def test_single_row_groups_match_per_group_run(self):
        rng = np.random.default_rng(23)
        engine = self._engine()
        groups = [(rng.normal(size=(1, 8)), None, None) for _ in range(5)]
        bulk = engine.run_many(groups)
        assert len(bulk) == 5
        for (rows, _, _), triple in zip(groups, bulk):
            assert_results_equal(triple, engine.run(rows))

    @pytest.mark.parametrize(
        "bad_rows",
        [
            np.ones((2, 8), dtype=np.complex128),
            np.array([[1 + 2j] * 8, [3.0] * 8]),  # mixed real/complex upcasts
            np.array([[object()] * 8], dtype=object),
            np.array([["a"] * 8]),
        ],
        ids=["complex", "mixed-complex", "object", "string"],
    )
    def test_non_real_dtypes_rejected_with_typed_error(self, bad_rows):
        engine = self._engine()
        with pytest.raises(ValueError, match="real-numeric"):
            engine.run(bad_rows)
        with pytest.raises(ValueError, match="real-numeric"):
            engine.run_many([(bad_rows, None, None)])

    def test_integer_and_bool_rows_still_coerce(self):
        engine = self._engine()
        ints = np.arange(16, dtype=np.int32).reshape(2, 8)
        golden = engine.run(np.asarray(ints, dtype=np.float64))
        assert_results_equal(engine.run(ints), golden)
        bools = np.ones((1, 8), dtype=bool)
        assert engine.run(bools)[0].shape == (1, 8)
