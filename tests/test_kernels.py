"""Golden-equivalence suite: vectorized kernels vs the scalar references.

Every kernel in :mod:`repro.numerics.kernels` must be **bit-identical** to
the retained reference implementation it replaces.  These tests therefore
never use tolerances for codec / fixed-point comparisons: raw codes are
compared with exact integer equality and decoded/normalized values with
exact float equality (NaN positions and signs included).

Coverage follows the kernel inventory:

* minifloat encode/decode -- exhaustive over **all** codes of every format
  (256 for the FP8 formats, 65536 for bfloat16), plus rounding-tie
  midpoints, subnormals, NaN/inf edge codes, signed zeros and overflow.
* fixed-point multiply/shift/sum -- randomized products across format
  pairs including negative shifts and the chunked wide-format sum.
* rounding modes -- all four modes against the pre-kernel formula.
* rowwise statistics and the fused normalization -- every HAAN
  configuration axis (storage format x norm kind x subsample policy x
  skipped/computed x hardware inv-sqrt) against
  ``forward_batched_reference``, with empty and one-element-row stacks.
* the serving workspace -- buffer reuse never changes results.
* the telemetry latency reservoir -- bounded memory, exact window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.haan_norm import HaanNormalization
from repro.core.predictor import IsdPredictor
from repro.core.subsampling import SubsamplePolicy, SubsampleSettings, subsampled_statistics
from repro.llm.config import NormKind
from repro.llm.normalization import LayerNorm, RMSNorm, make_norm
from repro.numerics import kernels
from repro.numerics.fixedpoint import FixedPointFormat, FixedPointValue
from repro.numerics.minifloat import BFLOAT16, E4M3, E5M2
from repro.numerics.quantization import DataFormat, segmented_round_trip
from repro.serving.telemetry import LatencyReservoir

FORMATS = [E4M3, E5M2, BFLOAT16]


def assert_same_floats(actual: np.ndarray, expected: np.ndarray) -> None:
    """Exact float equality: values, NaN positions and zero signs."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    nan_a, nan_e = np.isnan(actual), np.isnan(expected)
    assert np.array_equal(nan_a, nan_e)
    assert np.array_equal(actual[~nan_a], expected[~nan_e])
    assert np.array_equal(np.signbit(actual[~nan_a]), np.signbit(expected[~nan_e]))


# ---------------------------------------------------------------------------
# minifloat codec
# ---------------------------------------------------------------------------


class TestMinifloatKernels:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_decode_exhaustive_all_codes(self, fmt):
        codes = np.arange(fmt.num_codes)
        assert_same_floats(fmt.decode(codes), fmt.decode_reference(codes))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_encode_all_representable_values(self, fmt):
        values = fmt.all_values()
        finite = values[np.isfinite(values)]
        assert np.array_equal(fmt.encode(finite), fmt.encode_reference(finite))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_encode_rounding_tie_midpoints(self, fmt):
        values = fmt.all_values()
        finite = np.sort(values[np.isfinite(values)])
        midpoints = (finite[:-1] + finite[1:]) / 2.0
        assert np.array_equal(fmt.encode(midpoints), fmt.encode_reference(midpoints))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_encode_special_and_edge_values(self, fmt):
        edges = np.array(
            [
                0.0,
                -0.0,
                np.nan,
                np.inf,
                -np.inf,
                fmt.max_finite,
                -fmt.max_finite,
                np.nextafter(fmt.max_finite, np.inf),
                fmt.max_finite * 2.0,
                fmt.min_normal,
                -fmt.min_normal,
                fmt.min_subnormal,
                fmt.min_subnormal / 2.0,
                -fmt.min_subnormal / 3.0,
                fmt.min_subnormal * 1.5,
            ]
        )
        assert np.array_equal(fmt.encode(edges), fmt.encode_reference(edges))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_encode_randomized_sweep(self, fmt):
        rng = np.random.default_rng(2024)
        values = np.concatenate(
            [
                rng.normal(0.0, fmt.max_finite / 3.0, 4000),
                rng.normal(0.0, 1.0, 4000),
                rng.normal(0.0, fmt.min_normal, 4000),
                rng.uniform(-fmt.min_subnormal * 8, fmt.min_subnormal * 8, 2000),
            ]
        )
        assert np.array_equal(fmt.encode(values), fmt.encode_reference(values))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_round_trip_idempotent(self, fmt):
        values = fmt.all_values()
        finite = values[np.isfinite(values)]
        assert_same_floats(fmt.round_trip(finite), finite)

    def test_encode_preserves_shape_and_scalar(self):
        codes = E4M3.encode([[1.0, -2.5], [0.25, 448.0]])
        assert codes.shape == (2, 2)
        assert int(E4M3.encode(1.0)) == E4M3._encode_scalar(1.0)

    def test_all_values_cached_and_read_only(self):
        first = E5M2.all_values()
        assert first is E5M2.all_values()  # cached object, not recomputed
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


class TestFixedPointKernels:
    PAIRS = [
        ((8, 24), (8, 24), (16, 16)),  # positive shift
        ((16, 16), (16, 16), (16, 16)),
        ((12, 20), (9, 23), (12, 20)),
        ((8, 2), (8, 2), (4, 8)),  # negative shift (left realignment)
        ((2, 1), (2, 1), (2, 2)),  # zero shift
    ]

    @pytest.mark.parametrize("fa,fb,fo", PAIRS)
    def test_multiply_matches_reference(self, fa, fb, fo):
        rng = np.random.default_rng(7)
        fmt_a, fmt_b, fmt_o = (FixedPointFormat(*f) for f in (fa, fb, fo))
        a = FixedPointValue(fmt_a, rng.integers(fmt_a.min_code, fmt_a.max_code + 1, 2048))
        b = FixedPointValue(fmt_b, rng.integers(fmt_b.min_code, fmt_b.max_code + 1, 2048))
        fast = a.multiply(b, fmt_o)
        golden = a.multiply_reference(b, fmt_o)
        assert np.array_equal(fast.codes, golden.codes)

    def test_multiply_extreme_codes(self):
        fmt = FixedPointFormat(16, 16)
        extremes = np.array([fmt.min_code, fmt.min_code, fmt.max_code, fmt.max_code, 0, -1, 1])
        other = np.array([fmt.min_code, fmt.max_code, fmt.max_code, fmt.min_code, 1, -1, -1])
        a = FixedPointValue(fmt, extremes)
        b = FixedPointValue(fmt, other)
        assert np.array_equal(a.multiply(b).codes, a.multiply_reference(b).codes)

    def test_multiply_scalar_and_mean_still_exact(self):
        fmt = FixedPointFormat.accumulator()
        value = FixedPointValue.from_real(fmt, np.linspace(-5.0, 5.0, 33))
        assert value.mean().to_real() == pytest.approx(np.mean(fmt.quantize(np.linspace(-5.0, 5.0, 33))), abs=fmt.scale * 2)

    def test_sum_matches_reference(self):
        rng = np.random.default_rng(11)
        fmt = FixedPointFormat(16, 16)
        value = FixedPointValue(fmt, rng.integers(fmt.min_code, fmt.max_code + 1, 4096))
        assert np.array_equal(value.sum().codes, value.sum_reference().codes)

    def test_sum_saturates_like_reference(self):
        fmt = FixedPointFormat(4, 4)
        value = FixedPointValue(fmt, np.full(1000, fmt.max_code))
        assert np.array_equal(value.sum().codes, value.sum_reference().codes)
        assert int(value.sum().codes) == fmt.max_code

    def test_sum_wide_format_chunked_path(self):
        # Worst-case bound n * 2**(total_bits-1) exceeds int64: the kernel
        # must fall back to chunked exact accumulation, never overflow.
        rng = np.random.default_rng(13)
        fmt = FixedPointFormat(40, 22, saturate=True)
        codes = rng.integers(fmt.min_code // 2, fmt.max_code // 2, 50_000)
        value = FixedPointValue(fmt, codes)
        assert kernels.exact_code_sum(codes, fmt.total_bits) == int(np.sum(codes, dtype=object))
        assert np.array_equal(value.sum().codes, value.sum_reference().codes)

    def test_exact_code_sum_empty(self):
        assert kernels.exact_code_sum(np.array([], dtype=np.int64), 32) == 0


# ---------------------------------------------------------------------------
# rowwise statistics
# ---------------------------------------------------------------------------


class TestRowwiseStatistics:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (16, 129), (64, 64)])
    def test_variance_matches_ndarray_var(self, shape):
        rng = np.random.default_rng(17)
        x = rng.normal(size=shape) * rng.lognormal(0, 2, size=shape)
        assert np.array_equal(kernels.rowwise_variance(x), x.var(axis=1))

    def test_variance_on_strided_views(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(8, 256))
        for view in (x[:, ::3], x[:, ::7][:, :20], x[:, 1::2]):
            assert np.array_equal(kernels.rowwise_variance(view), view.var(axis=1))

    def test_mean_square_matches_reference(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(12, 96))
        assert np.array_equal(
            kernels.rowwise_mean_square(x), np.mean(np.square(x), axis=1)
        )

    def test_inv_sqrt_stat_matches_formula(self):
        rng = np.random.default_rng(29)
        var = rng.uniform(0.0, 4.0, 256)
        eps = 1e-5
        expected = 1.0 / np.sqrt(var + eps)
        assert np.array_equal(kernels.inv_sqrt_stat(var.copy(), eps), expected)

    def test_normalize_affine_matches_chain(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(9, 33))
        mean = rows.mean(axis=1)
        isd = 1.0 / rows.std(axis=1)
        gamma = rng.normal(size=33)
        beta = rng.normal(size=33)
        expected = (rows - mean[:, None]) * isd[:, None] * gamma[None, :] + beta[None, :]
        assert np.array_equal(
            kernels.normalize_affine(rows, mean, isd, gamma, beta), expected
        )

    def test_normalize_affine_out_does_not_touch_input(self):
        rng = np.random.default_rng(37)
        rows = rng.normal(size=(4, 8))
        snapshot = rows.copy()
        out = np.empty_like(rows)
        result = kernels.normalize_affine(
            rows, rows.mean(axis=1), np.ones(4), np.ones(8), np.zeros(8), out=out
        )
        assert result is out
        assert np.array_equal(rows, snapshot)

    def test_subsampled_statistics_workspace_identical(self):
        rng = np.random.default_rng(41)
        rows = rng.normal(size=(10, 128))
        settings = SubsampleSettings(length=32, policy=SubsamplePolicy.STRIDED)
        ws = kernels.KernelWorkspace()
        for kind in (NormKind.LAYERNORM, NormKind.RMSNORM):
            base_mean, base_isd = subsampled_statistics(rows, settings, kind=kind)
            ws_mean, ws_isd = subsampled_statistics(rows, settings, kind=kind, workspace=ws)
            assert np.array_equal(base_mean, ws_mean)
            assert np.array_equal(base_isd, ws_isd)


# ---------------------------------------------------------------------------
# fused HAAN normalization
# ---------------------------------------------------------------------------


def make_haan_layer(
    rng,
    hidden=96,
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
        predictor = IsdPredictor(
            anchor_layer=1, last_layer=5, decay=-0.05, anchor_log_isd=0.2
        )
    return HaanNormalization(
        base,
        predictor=predictor,
        subsample=subsample,
        data_format=data_format,
        use_hardware_inv_sqrt=use_hardware_inv_sqrt,
    )


class TestFusedNormalization:
    @pytest.mark.parametrize("data_format", list(DataFormat), ids=lambda f: f.value)
    @pytest.mark.parametrize("kind", [NormKind.LAYERNORM, NormKind.RMSNORM])
    @pytest.mark.parametrize(
        "subsample",
        [None, SubsampleSettings(length=24), SubsampleSettings(length=24, policy=SubsamplePolicy.STRIDED)],
        ids=["full", "truncate", "strided"],
    )
    def test_fused_matches_reference(self, data_format, kind, subsample):
        rng = np.random.default_rng(43)
        layer = make_haan_layer(rng, kind=kind, data_format=data_format, subsample=subsample)
        stacked = rng.normal(0.0, 2.0, size=(13, 96))
        starts = np.array([0, 4, 5, 11])
        fused = layer.forward_batched(stacked, starts)
        reference = layer.forward_batched_reference(stacked, starts)
        for fast, golden in zip(fused, reference):
            assert np.array_equal(fast, golden)

    def test_fused_skipped_layer_matches_reference(self):
        rng = np.random.default_rng(47)
        layer = make_haan_layer(rng, skipped=True)
        stacked = rng.normal(size=(6, 96))
        anchor = np.array([2.0, 2.0, np.nan, 0.5, 0.5, 0.5])
        starts = np.array([0, 2, 3])
        fused = layer.forward_batched(stacked, starts, anchor)
        reference = layer.forward_batched_reference(stacked, starts, anchor)
        for fast, golden in zip(fused, reference):
            assert np.array_equal(fast, golden)
        assert layer._last_was_predicted()

    @pytest.mark.parametrize("skipped", [False, True], ids=["computed", "skipped"])
    @pytest.mark.parametrize("data_format", list(DataFormat), ids=lambda f: f.value)
    def test_rms_special_values_byte_identical(self, data_format, skipped):
        """The RMSNorm affine skips subtracting its all-zero mean: -0.0,
        +-inf and NaN payloads still come out byte for byte as the
        reference backend's, on the computed and the predicted path."""
        rng = np.random.default_rng(101)
        hidden = 16
        # beta = -0.0 keeps the sign of a zero product visible in the output.
        base = RMSNorm(
            hidden, layer_index=3, name="test.rms",
            gamma=rng.uniform(0.5, 1.5, hidden), beta=np.full(hidden, -0.0),
        )
        predictor = (
            IsdPredictor(anchor_layer=1, last_layer=5, decay=-0.05, anchor_log_isd=0.2)
            if skipped
            else None
        )
        layer = HaanNormalization(base, predictor=predictor, data_format=data_format)
        nan_payload = np.array([0x7FF81234_00000000], dtype=np.uint64).view(np.float64)[0]
        negative_nan = np.array([0xFFF85678_00000000], dtype=np.uint64).view(np.float64)[0]
        rows = rng.normal(size=(5, hidden))
        rows[0, ::2] = -0.0
        rows[1, :] = -0.0
        rows[2, 3], rows[2, 5] = np.inf, -np.inf
        rows[3, 7] = nan_payload
        rows[4, 1] = negative_nan
        anchor = np.array([1.5, 0.7, np.nan, 2.0, 0.9]) if skipped else None
        starts = np.arange(5)  # one request per row: INT8 scales each alone
        with np.errstate(invalid="ignore", divide="ignore"):
            fused = layer.forward_batched(rows, starts, anchor)
            reference = layer.forward_batched_reference(rows, starts, anchor)
        assert layer.plan.spec.is_rms and layer.plan.spec.skipped is skipped
        for fast, golden in zip(fused, reference):
            assert fast.tobytes() == golden.tobytes()
        out = fused[0]
        assert np.signbit(out[1]).all() and (out[1] == 0.0).all()
        if data_format is DataFormat.FP32 and skipped:
            # The storage round trip keeps these payload bits; the affine
            # must too.
            assert np.isinf(out[2, 3]) and np.isinf(out[2, 5])
            assert out[3, 7].tobytes() == nan_payload.tobytes()

    def test_fused_hardware_inv_sqrt_matches_reference(self):
        rng = np.random.default_rng(53)
        layer = make_haan_layer(rng, use_hardware_inv_sqrt=True)
        stacked = rng.normal(size=(5, 96))
        fused = layer.forward_batched(stacked)
        reference = layer.forward_batched_reference(stacked)
        for fast, golden in zip(fused, reference):
            assert np.array_equal(fast, golden)

    def test_fused_matches_per_request_calls(self):
        rng = np.random.default_rng(59)
        layer = make_haan_layer(rng)
        payloads = [rng.normal(size=(n, 96)) for n in (1, 3, 2)]
        starts = np.array([0, 1, 4])
        out, _, _ = layer.forward_batched(np.concatenate(payloads), starts)
        expected = np.concatenate([layer(p) for p in payloads])
        assert np.array_equal(out, expected)

    def test_fused_single_row_and_one_element_rows(self):
        rng = np.random.default_rng(61)
        # hidden == 1: variance collapses to 0, ISD to 1/sqrt(eps).
        base = LayerNorm(hidden_size=1, layer_index=0, name="tiny")
        layer = HaanNormalization(base, subsample=SubsampleSettings(length=4))
        rows = rng.normal(size=(3, 1))
        fused = layer.forward_batched(rows)
        reference = layer.forward_batched_reference(rows)
        for fast, golden in zip(fused, reference):
            assert np.array_equal(fast, golden)

    def test_fused_empty_stack(self):
        layer = make_haan_layer(np.random.default_rng(67), subsample=None)
        empty = np.empty((0, 96))
        out, mean, isd = layer.forward_batched(empty)
        assert out.shape == (0, 96)
        assert mean.shape == (0,)
        assert isd.shape == (0,)

    def test_fused_workspace_reuse_is_stable(self):
        rng = np.random.default_rng(71)
        layer = make_haan_layer(rng)
        ws = kernels.KernelWorkspace()
        for rows in (17, 4, 17, 32):
            stacked = rng.normal(size=(rows, 96))
            pooled = layer.forward_batched(stacked, workspace=ws)
            fresh = layer.forward_batched(stacked)
            for fast, golden in zip(pooled, fresh):
                assert np.array_equal(fast, golden)

    def test_fused_out_buffer_is_used(self):
        rng = np.random.default_rng(73)
        layer = make_haan_layer(rng)
        stacked = rng.normal(size=(7, 96))
        out = np.empty((7, 96))
        result, _, _ = layer.forward_batched(stacked, out=out)
        assert result is out

    def test_fused_does_not_mutate_input(self):
        rng = np.random.default_rng(79)
        layer = make_haan_layer(rng)
        stacked = rng.normal(size=(7, 96))
        snapshot = stacked.copy()
        layer.forward_batched(stacked, workspace=kernels.KernelWorkspace())
        assert np.array_equal(stacked, snapshot)

    def test_fused_validates_segments_like_reference(self):
        rng = np.random.default_rng(83)
        layer = make_haan_layer(rng)
        stacked = rng.normal(size=(6, 96))
        with pytest.raises(ValueError):
            layer.forward_batched(stacked, np.array([1, 3]))
        with pytest.raises(ValueError):
            layer.forward_batched(stacked, np.array([0, 9]))

    def test_reference_base_layer_out_and_workspace(self):
        rng = np.random.default_rng(89)
        layer = RMSNorm(hidden_size=32, layer_index=0, name="ref")
        rows = rng.normal(size=(5, 32))
        out = np.empty((5, 32))
        pooled, mean, isd = layer.forward_batched(rows, workspace=kernels.KernelWorkspace(), out=out)
        assert pooled is out
        direct = layer(rows)
        assert np.array_equal(pooled, direct)

    @pytest.mark.parametrize("data_format", list(DataFormat), ids=lambda f: f.value)
    def test_segmented_round_trip_out_param(self, data_format):
        rng = np.random.default_rng(97)
        stacked = rng.normal(size=(9, 40))
        starts = np.array([0, 3, 4])
        baseline = segmented_round_trip(stacked, starts, data_format)
        out = np.empty_like(stacked)
        pooled = segmented_round_trip(stacked, starts, data_format, out=out)
        assert pooled is out
        assert np.array_equal(baseline, pooled)

    def test_segmented_round_trip_out_param_empty(self):
        empty = np.empty((0, 16))
        out = np.empty((0, 16))
        assert segmented_round_trip(empty, None, DataFormat.INT8, out=out) is out


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------


class TestKernelWorkspace:
    def test_buffers_are_reused_at_steady_state(self):
        ws = kernels.KernelWorkspace()
        a = ws.matrix("x", 100, 64)
        b = ws.matrix("x", 90, 64)
        assert a.base is b.base  # same pooled capacity buffer
        assert b.shape == (90, 64)

    def test_buffers_grow_to_power_of_two(self):
        ws = kernels.KernelWorkspace()
        ws.matrix("x", 100, 64)
        grown = ws.matrix("x", 300, 64)
        assert grown.base.shape[0] == 512
        again = ws.matrix("x", 100, 64)
        assert again.base is grown.base

    def test_distinct_names_and_dtypes_do_not_collide(self):
        ws = kernels.KernelWorkspace()
        a = ws.matrix("a", 16, 8)
        b = ws.matrix("b", 16, 8)
        c = ws.matrix("a", 16, 8, dtype=np.float32)
        assert a.base is not b.base
        assert c.dtype == np.float32
        v = ws.vector("a", 16)
        assert v.shape == (16,)

    def test_nbytes_and_clear(self):
        ws = kernels.KernelWorkspace()
        ws.matrix("x", 64, 64)
        assert ws.nbytes > 0
        ws.clear()
        assert ws.nbytes == 0


# ---------------------------------------------------------------------------
# telemetry latency reservoir
# ---------------------------------------------------------------------------


class TestLatencyReservoir:
    def test_memory_is_bounded(self):
        reservoir = LatencyReservoir(capacity=16)
        for i in range(10_000):
            reservoir.observe(float(i))
        assert reservoir.count == 16
        assert reservoir.capacity == 16
        # Only the newest window survives.
        assert np.array_equal(np.sort(reservoir.values()), np.arange(9984.0, 10_000.0))

    def test_observe_many_wraps_ring(self):
        reservoir = LatencyReservoir(capacity=8)
        reservoir.observe_many(np.arange(5.0))
        reservoir.observe_many(np.arange(5.0, 11.0))  # wraps past the end
        assert reservoir.count == 8
        assert np.array_equal(np.sort(reservoir.values()), np.arange(3.0, 11.0))

    def test_observe_many_larger_than_capacity(self):
        reservoir = LatencyReservoir(capacity=4)
        reservoir.observe_many(np.arange(100.0))
        assert np.array_equal(np.sort(reservoir.values()), np.arange(96.0, 100.0))

    def test_exact_percentiles(self):
        reservoir = LatencyReservoir(capacity=128)
        samples = np.linspace(0.001, 0.128, 128)
        reservoir.observe_many(samples)
        assert reservoir.percentile(50) == pytest.approx(np.percentile(samples, 50))
        assert reservoir.percentile(99) == pytest.approx(np.percentile(samples, 99))
        snap = reservoir.snapshot()
        assert snap["count"] == 128
        assert snap["max"] == pytest.approx(0.128)

    def test_empty_reservoir(self):
        reservoir = LatencyReservoir()
        assert reservoir.percentile(99) == 0.0
        assert reservoir.snapshot()["count"] == 0
