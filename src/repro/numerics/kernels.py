"""Vectorized, allocation-lean kernels for the bit-level numerics.

The scalar implementations in :mod:`repro.numerics.minifloat` and
:mod:`repro.numerics.fixedpoint` are the *golden models*: one value at a
time, written to read like the paper.  This module provides the fast paths
that the serving runtime and the benchmarks actually execute:

* :func:`minifloat_encode` / :func:`minifloat_decode` -- whole-array integer
  bit-twiddling replacements for the per-element ``_encode_scalar`` /
  ``decode_code`` loops.
* :func:`fixed_point_multiply_codes` / :func:`exact_code_sum` -- ``int64``
  array arithmetic replacing the Python-``int`` shift loops and the
  ``dtype=object`` reductions.
* :func:`round_codes` -- the vectorized rounding modes with optional
  in-place output.
* :func:`rowwise_mean` / :func:`rowwise_variance` /
  :func:`rowwise_mean_square` /
  :func:`inv_sqrt_stat` / :func:`normalize_affine` -- per-row statistic and
  affine kernels that mirror the exact NumPy operation sequence of the
  reference layers (so results are bit-identical) while writing into
  caller-provided buffers.
* :func:`haan_normalize_rows` -- the fused single-pass HAAN normalization:
  storage round trip, (subsampled) statistics, optional ISD refinement and
  the affine transform, all through one :class:`KernelWorkspace` of
  preallocated scratch buffers.

Every kernel is **bit-identical** to the scalar/reference path it replaces;
``tests/test_kernels.py`` sweeps the equivalence exhaustively (all codes of
every minifloat format, randomized fixed-point products, full normalization
outputs) with exact comparisons, never tolerances.

This module deliberately imports nothing from the rest of the package so
every other ``repro`` module may depend on it without cycles; format
objects are duck-typed (only their public attributes are read).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "KernelWorkspace",
    "minifloat_encode",
    "minifloat_decode",
    "fixed_point_multiply_codes",
    "exact_code_sum",
    "round_codes",
    "int8_segment_scales",
    "int8_round_trip_rows",
    "float_round_trip_rows",
    "rowwise_mean",
    "rowwise_variance",
    "rowwise_mean_square",
    "inv_sqrt_stat",
    "normalize_affine",
    "haan_normalize_rows",
]

#: Symmetric INT8 clipping bound (matches ``Quantizer.INT8_MAX``).
INT8_MAX = 127

#: Tie tolerance of the scalar minifloat encoder's round-half-to-even
#: correction (mirrored exactly so the kernels stay bit-identical).
_TIE_EPSILON = 1e-12


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------


class KernelWorkspace:
    """Reusable scratch-buffer pool for the fused kernels.

    Buffers are keyed by ``(name, columns, dtype)`` and their row capacity
    grows to the next power of two, so a steady stream of similarly-sized
    micro-batches (the size-bucketed queues of the serving scheduler) hits
    the same buffers over and over: steady-state serving performs no large
    scratch allocations.

    The workspace is **not** thread-safe: one workspace belongs to one
    executor (the serving service runs one batch at a time, under its
    execute lock, on whichever thread drains it).  Buffers hand out *views*; their
    contents are only valid until the next request for the same name.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    @staticmethod
    def _capacity(rows: int) -> int:
        """Row capacity: the next power of two at or above ``rows``."""
        return 1 << max(0, int(rows - 1).bit_length()) if rows > 0 else 1

    def matrix(self, name: str, rows: int, cols: int, dtype=np.float64) -> np.ndarray:
        """A ``(rows, cols)`` scratch view backed by a pooled buffer."""
        key = (name, int(cols), np.dtype(dtype).str)
        capacity = self._capacity(rows)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < capacity:
            buffer = np.empty((capacity, int(cols)), dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:rows]

    def vector(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """A ``(size,)`` scratch view backed by a pooled buffer."""
        key = (name, -1, np.dtype(dtype).str)
        capacity = self._capacity(size)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < capacity:
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Drop every pooled buffer."""
        self._buffers.clear()


def _scratch_matrix(
    workspace: Optional[KernelWorkspace], name: str, rows: int, cols: int, dtype=np.float64
) -> np.ndarray:
    """Workspace matrix when pooled, a fresh allocation otherwise."""
    if workspace is not None:
        return workspace.matrix(name, rows, cols, dtype)
    return np.empty((rows, cols), dtype=dtype)


# ---------------------------------------------------------------------------
# minifloat codec
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _max_finite_fields(fmt) -> Tuple[int, int]:
    """(exponent field, mantissa field) of the format's largest finite value.

    Computed once per format through the scalar golden model, so saturation
    can never drift from the reference encoder.
    """
    return fmt._fields_of(fmt.max_finite)


def minifloat_encode(values, fmt) -> np.ndarray:
    """Vectorized minifloat encoder, bit-identical to ``_encode_scalar``.

    Mirrors the scalar control flow branch by branch on whole arrays: NaN
    maps to the format's NaN code, infinities either encode (IEEE formats)
    or saturate (E4M3-style), finite overflow saturates to max finite, and
    round-to-nearest-even -- including the scalar encoder's explicit
    half-tie correction with its ``1e-12`` tolerance -- applies elsewhere.
    """
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.reshape(-1)
    total_bits = fmt.total_bits
    mantissa_bits = fmt.mantissa_bits
    bias = fmt.bias
    max_exponent = fmt.max_exponent_field
    mantissa_scale = 1 << mantissa_bits
    max_finite = fmt.max_finite
    max_exp_field, max_man_field = _max_finite_fields(fmt)

    sign = np.signbit(flat).astype(np.int64)
    magnitude = np.abs(flat)
    nan_mask = np.isnan(flat)
    inf_mask = np.isinf(magnitude)
    over_mask = inf_mask | (magnitude > max_finite)
    zero_mask = magnitude == 0.0
    special = nan_mask | over_mask | zero_mask

    # `_fields_of` vectorized; special lanes run on a 1.0 placeholder and
    # are overwritten below.
    m = np.where(special, 1.0, magnitude)
    unbiased = np.floor(np.log2(m)).astype(np.int64)
    np.maximum(unbiased, 1 - bias, out=unbiased)
    scaled = m / np.ldexp(1.0, unbiased)

    # Subnormal branch: no implicit leading one.
    sub_mask = (unbiased == 1 - bias) & (scaled < 1.0)
    frac = scaled * mantissa_scale
    sub_mantissa = np.round(frac)
    tie = np.abs(frac - np.floor(frac) - 0.5) < _TIE_EPSILON
    sub_mantissa = np.where(tie, 2.0 * np.round(frac / 2.0), sub_mantissa).astype(np.int64)
    sub_carry = sub_mantissa >= mantissa_scale  # rounded up into min normal
    sub_exponent = sub_carry.astype(np.int64)
    sub_mantissa = np.where(sub_carry, 0, sub_mantissa)

    # Normal branch.
    mantissa_exact = (scaled - 1.0) * mantissa_scale
    mantissa = np.round(mantissa_exact)
    tie = np.abs(mantissa_exact - np.floor(mantissa_exact) - 0.5) < _TIE_EPSILON
    mantissa = np.where(tie, 2.0 * np.round(mantissa_exact / 2.0), mantissa).astype(np.int64)
    exponent = unbiased + bias
    carry = mantissa >= mantissa_scale
    mantissa = np.where(carry, 0, mantissa)
    exponent = exponent + carry
    if fmt.ieee_special_values:
        rounded_over = exponent >= max_exponent
    else:
        rounded_over = exponent > max_exponent
    exponent = np.where(rounded_over, max_exp_field, exponent)
    mantissa = np.where(rounded_over, max_man_field, mantissa)
    if not fmt.ieee_special_values:
        # Avoid the NaN code in the top exponent row; stay at max finite.
        collide = (exponent == max_exponent) & (mantissa == mantissa_scale - 1)
        mantissa = mantissa - collide

    exp_field = np.where(sub_mask, sub_exponent, exponent)
    man_field = np.where(sub_mask, sub_mantissa, mantissa)
    codes = (sign << (total_bits - 1)) | (exp_field << mantissa_bits) | man_field

    codes = np.where(zero_mask, sign << (total_bits - 1), codes)
    saturate_code = (
        (sign << (total_bits - 1)) | (max_exp_field << mantissa_bits) | max_man_field
    )
    if fmt.ieee_special_values:
        inf_code = (sign << (total_bits - 1)) | (max_exponent << mantissa_bits)
        saturate_code = np.where(inf_mask, inf_code, saturate_code)
    codes = np.where(over_mask, saturate_code, codes)
    codes = np.where(nan_mask, fmt._nan_code(), codes)
    return codes.reshape(arr.shape)


def minifloat_decode(codes, fmt) -> np.ndarray:
    """Vectorized minifloat decoder, bit-identical to ``decode_code``."""
    arr = np.asarray(codes, dtype=np.int64)
    flat = arr.reshape(-1) & (fmt.num_codes - 1)
    total_bits = fmt.total_bits
    mantissa_bits = fmt.mantissa_bits
    bias = fmt.bias
    max_exponent = fmt.max_exponent_field
    mantissa_scale = 1 << mantissa_bits

    sign = np.where(flat >> (total_bits - 1) != 0, -1.0, 1.0)
    exponent = (flat >> mantissa_bits) & max_exponent
    mantissa = flat & (mantissa_scale - 1)

    fraction = mantissa.astype(np.float64) * 2.0 ** (-mantissa_bits)
    normal = sign * (1.0 + fraction) * np.ldexp(1.0, exponent - bias)
    subnormal = sign * mantissa * 2.0 ** (1 - bias - mantissa_bits)
    values = np.where(exponent == 0, subnormal, normal)

    top = exponent == max_exponent
    if fmt.ieee_special_values:
        values = np.where(top, sign * np.inf, values)
        values = np.where(top & (mantissa != 0), np.nan, values)
    else:
        values = np.where(top & (mantissa == mantissa_scale - 1), np.nan, values)
    return values.reshape(arr.shape)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def fixed_point_multiply_codes(
    a_codes: np.ndarray, b_codes: np.ndarray, shift: int
) -> np.ndarray:
    """Exact code product followed by the binary-point realignment shift.

    Returns float64 raw codes ready for saturation, matching the reference
    Python-``int`` path bit for bit.  The caller guarantees the product fits
    ``int64`` (true whenever the operand formats total at most 64 bits: the
    magnitudes are below ``2**(ta-1)`` and ``2**(tb-1)``).

    * ``shift > 0``: NumPy's ``>>`` on ``int64`` is an arithmetic shift,
      identical to Python's floor-shifting ``int >> n``; the subsequent
      float64 conversion rounds to nearest even exactly like ``float(int)``.
    * ``shift < 0``: scaling the float64 product by ``2**-shift`` is exact
      (power-of-two scaling preserves the significand), so it equals
      converting the exactly shifted integer.
    """
    product = a_codes * b_codes
    if shift > 0:
        return (product >> shift).astype(np.float64)
    if shift < 0:
        return product.astype(np.float64) * float(1 << (-shift))
    return product.astype(np.float64)


def exact_code_sum(codes: np.ndarray, total_bits: int) -> int:
    """Exact integer sum of raw codes without ``dtype=object`` arrays.

    The explicit overflow check: with every code bounded by
    ``2**(total_bits-1)`` in magnitude, a straight ``int64`` reduction is
    provably exact when ``n * 2**(total_bits-1) < 2**63``.  Wider inputs
    fall back to chunked ``int64`` partial sums combined in Python integers
    -- still exact, never an object-dtype array.
    """
    flat = np.asarray(codes, dtype=np.int64).reshape(-1)
    n = int(flat.size)
    if n == 0:
        return 0
    bound = 1 << (total_bits - 1)
    if n * bound < (1 << 63):
        return int(np.sum(flat, dtype=np.int64))
    chunk = max(1, (1 << 62) // bound)
    return sum(
        int(np.sum(flat[start : start + chunk], dtype=np.int64))
        for start in range(0, n, chunk)
    )


# ---------------------------------------------------------------------------
# rounding modes
# ---------------------------------------------------------------------------


def round_codes(
    scaled: np.ndarray,
    mode: str,
    rng: Optional[np.random.Generator] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized rounding of pre-scaled values to integer codes.

    ``mode`` is the :class:`~repro.numerics.rounding.RoundingMode` value
    string; results are float64 codes, bit-identical to the mode's
    reference formula.  ``out`` may alias ``scaled``.
    """
    scaled = np.asarray(scaled, dtype=np.float64)
    if mode == "nearest-even":
        return np.rint(scaled, out=out)
    if mode == "truncate":
        return np.floor(scaled, out=out)
    if mode == "toward-zero":
        return np.trunc(scaled, out=out)
    if mode == "stochastic":
        generator = rng if rng is not None else np.random.default_rng(0)
        floor = np.floor(scaled)
        fraction = scaled - floor
        draws = generator.random(size=scaled.shape)
        up = draws < fraction
        if out is None:
            return floor + up
        np.add(floor, up, out=out)
        return out
    raise ValueError(f"unknown rounding mode: {mode!r}")


# ---------------------------------------------------------------------------
# storage round trips
# ---------------------------------------------------------------------------


def int8_segment_scales(
    rows: np.ndarray,
    segment_starts: Optional[np.ndarray],
    workspace: Optional[KernelWorkspace] = None,
) -> np.ndarray:
    """Per-row INT8 scale column of stacked request segments.

    Mirrors the scale computation of
    :func:`repro.numerics.quantization.segmented_round_trip` exactly,
    including its validation of the segment bookkeeping; ``workspace``
    pools the elementwise ``abs`` scratch.
    """
    if segment_starts is None:
        starts = np.array([0], dtype=np.int64)
    else:
        starts = np.asarray(segment_starts, dtype=np.int64)
    if starts.size == 0 or starts[0] != 0 or np.any(np.diff(starts) <= 0):
        raise ValueError("segment_starts must begin at 0 and be strictly increasing")
    if starts[-1] >= rows.shape[0]:
        raise ValueError("segment_starts reaches past the stacked rows")
    magnitude = _scratch_matrix(workspace, "kernels.abs", rows.shape[0], rows.shape[1])
    np.abs(rows, out=magnitude)
    row_max = np.maximum.reduce(magnitude, axis=1)
    segment_max = np.maximum.reduceat(row_max, starts)
    scales = np.where(segment_max == 0.0, 1.0, segment_max / INT8_MAX)
    lengths = np.diff(np.append(starts, rows.shape[0]))
    return np.repeat(scales, lengths)[:, None]


def int8_round_trip_rows(
    rows: np.ndarray,
    row_scale: np.ndarray,
    out: Optional[np.ndarray] = None,
    int8_max: int = INT8_MAX,
) -> np.ndarray:
    """Symmetric INT8 round trip with a per-row scale, into ``out``.

    The operation sequence (divide, round, clip, rescale) matches the
    reference `segmented_round_trip` term by term, so results are
    bit-identical; ``out`` just removes the intermediate allocations.
    """
    if out is None:
        out = np.empty_like(rows)
    np.divide(rows, row_scale, out=out)
    np.rint(out, out=out)
    np.clip(out, -int8_max, int8_max, out=out)
    np.multiply(out, row_scale, out=out)
    return out


def float_round_trip_rows(
    rows: np.ndarray,
    storage_dtype,
    out: Optional[np.ndarray] = None,
    workspace: Optional[KernelWorkspace] = None,
) -> np.ndarray:
    """Round rows through a narrow float dtype (FP16/FP32 storage).

    Uses the same C casts as ``astype`` (so it is bit-identical to
    ``rows.astype(dtype).astype(float64)``) but stages through a pooled
    low-precision buffer instead of allocating two arrays.
    """
    if out is None:
        out = np.empty_like(rows)
    low = _scratch_matrix(
        workspace, "kernels.low_precision", rows.shape[0], rows.shape[1], storage_dtype
    )
    np.copyto(low, rows, casting="unsafe")
    np.copyto(out, low, casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# per-row statistics (exact mirrors of the NumPy reference reductions)
# ---------------------------------------------------------------------------


def rowwise_mean(rows: np.ndarray) -> np.ndarray:
    """Per-row mean of float64 rows, bit-identical to ``rows.mean(axis=1)``.

    Calls what NumPy's ``_methods._mean`` calls for float64 (a sum
    reduction, then a true divide by the count in place) without its
    Python wrappers.
    """
    mean = np.add.reduce(rows, axis=1)
    np.true_divide(mean, rows.shape[1], out=mean)
    return mean


def rowwise_variance(
    rows: np.ndarray,
    workspace: Optional[KernelWorkspace] = None,
    name: str = "kernels.variance",
    mean: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row population variance, bit-identical to ``rows.var(axis=1)``.

    Replicates NumPy's ``_methods._var`` operation sequence (mean, broadcast
    subtract, in-place square, sum, true divide) with the intermediate
    deviation matrix drawn from the workspace.  ``mean`` is
    :func:`rowwise_mean` of these same ``rows`` when the caller already
    has it.
    """
    n, width = rows.shape
    if mean is None:
        mean = rowwise_mean(rows)
    deviation = _scratch_matrix(workspace, name, n, width)
    np.subtract(rows, mean[:, None], out=deviation)
    np.multiply(deviation, deviation, out=deviation)
    variance = np.add.reduce(deviation, axis=1)
    np.true_divide(variance, width, out=variance)
    return variance


def rowwise_mean_square(
    rows: np.ndarray,
    workspace: Optional[KernelWorkspace] = None,
    name: str = "kernels.mean_square",
) -> np.ndarray:
    """Per-row mean square, bit-identical to ``np.mean(np.square(x), axis=1)``."""
    n, width = rows.shape
    squared = _scratch_matrix(workspace, name, n, width)
    np.square(rows, out=squared)
    return rowwise_mean(squared)


def inv_sqrt_stat(spread: np.ndarray, eps: float) -> np.ndarray:
    """ISD from a spread statistic: ``1/sqrt(spread + eps)``, in place."""
    np.add(spread, eps, out=spread)
    np.sqrt(spread, out=spread)
    np.divide(1.0, spread, out=spread)
    return spread


def normalize_affine(
    rows: np.ndarray,
    mean: Optional[np.ndarray],
    isd: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(rows - mean) * isd * gamma + beta`` without intermediate arrays.

    The in-place chain applies the exact operation order of the reference
    layers, so outputs are bit-identical; only the four temporaries vanish.
    ``mean=None`` stands for an all-zero mean (RMSNorm) and skips the
    subtraction: ``x - 0.0`` is ``x`` bit for bit, ``-0.0``, infinities and
    NaN payloads included.
    """
    if out is None:
        out = np.empty_like(rows)
    if mean is None:
        np.multiply(rows, isd[:, None], out=out)
    else:
        np.subtract(rows, mean[:, None], out=out)
        np.multiply(out, isd[:, None], out=out)
    np.multiply(out, gamma[None, :], out=out)
    np.add(out, beta[None, :], out=out)
    return out


# ---------------------------------------------------------------------------
# fused HAAN normalization
# ---------------------------------------------------------------------------


def _subsample_view(rows: np.ndarray, length: int, policy: str) -> np.ndarray:
    """The subsampled view, mirroring ``select_subsample`` exactly."""
    hidden = rows.shape[1]
    clamped = min(length, hidden)
    if policy == "truncate":
        return rows[:, :clamped]
    stride = max(1, hidden // clamped)
    return rows[:, ::stride][:, :clamped]


def haan_normalize_rows(
    rows: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    *,
    storage: Optional[str] = "fp32",
    segment_starts: Optional[np.ndarray] = None,
    rms: bool = False,
    eps: float = 1e-5,
    subsample_length: Optional[int] = None,
    subsample_policy: str = "truncate",
    subsample_mean: bool = True,
    predicted_isd: Optional[np.ndarray] = None,
    refine_isd: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    workspace: Optional[KernelWorkspace] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused HAAN normalization over stacked request rows.

    One call performs the storage round trip (per-segment INT8 calibration
    or FP16/FP32 rounding), the per-row statistics (predicted, subsampled
    or exact), the optional ISD refinement hook, and the affine transform,
    touching only workspace scratch plus the ``out`` / ``mean`` / ``isd``
    result arrays.  Bit-identical to the unfused pipeline
    (:meth:`HaanNormalization.forward_batched_reference`); the golden
    equivalence suite compares the two with exact equality.

    Parameters mirror an :class:`~repro.engine.spec.EngineSpec` as plain
    values (``storage`` is a :class:`DataFormat` value string, or ``None``
    to bypass the round trip entirely -- the exact reference layers; ``rms``
    selects the RMSNorm statistics; ``predicted_isd`` carries the per-row
    ISD of a skipped layer).  Returns ``(out, mean, isd)``; ``mean`` and
    ``isd`` are freshly allocated (they outlive the workspace in serving
    responses).
    """
    arr = np.asarray(rows, dtype=np.float64)
    n, hidden = arr.shape
    if out is None:
        out = np.empty((n, hidden))

    # 1. storage round trip into pooled scratch (never mutates the input).
    #    With ``storage=None`` the statistics and the affine transform read
    #    the input directly; nothing is copied and nothing is rounded.
    if storage is None:
        quantized = arr
    else:
        quantized = _scratch_matrix(workspace, "kernels.quantized", n, hidden)
        if storage == "int8" and arr.size > 0:
            row_scale = int8_segment_scales(arr, segment_starts, workspace=workspace)
            int8_round_trip_rows(arr, row_scale, out=quantized)
        elif storage == "fp16":
            float_round_trip_rows(arr, np.float16, out=quantized, workspace=workspace)
        elif storage == "fp32":
            float_round_trip_rows(arr, np.float32, out=quantized, workspace=workspace)
        elif storage == "int8":  # empty stack: nothing to calibrate
            pass
        else:
            raise ValueError(f"unknown storage format: {storage!r}")

    # 2. per-row statistics.  A variance centred on the rows the mean was
    #    taken over reuses that mean: it is the same reduction.
    if predicted_isd is not None:
        isd = np.asarray(predicted_isd, dtype=np.float64)
        if rms:
            mean = np.zeros(n)
        elif subsample_length is not None and subsample_mean:
            mean = rowwise_mean(quantized[:, : min(subsample_length, hidden)])
        else:
            mean = rowwise_mean(quantized)
    elif subsample_length is not None:
        sub = _subsample_view(quantized, subsample_length, subsample_policy)
        if rms:
            mean = np.zeros(n)
            isd = inv_sqrt_stat(rowwise_mean_square(sub, workspace), eps)
        elif subsample_mean:
            mean = rowwise_mean(sub)
            isd = inv_sqrt_stat(rowwise_variance(sub, workspace, mean=mean), eps)
        else:
            mean = rowwise_mean(quantized)
            isd = inv_sqrt_stat(rowwise_variance(sub, workspace), eps)
        if refine_isd is not None:
            isd = refine_isd(isd)
    else:
        if rms:
            mean = np.zeros(n)
            isd = inv_sqrt_stat(rowwise_mean_square(quantized, workspace), eps)
        else:
            mean = rowwise_mean(quantized)
            isd = inv_sqrt_stat(rowwise_variance(quantized, workspace, mean=mean), eps)
        if refine_isd is not None:
            isd = refine_isd(isd)

    # 3. affine transform straight into the output buffer; RMSNorm's mean is
    #    all zeros, so its subtraction is skipped.
    normalize_affine(quantized, None if rms else mean, isd, gamma, beta, out=out)
    return out, mean, isd
