"""Batched normalization serving runtime (the online counterpart of `core`).

The offline reproduction runs HAAN one request at a time; this package
turns it into a serving system:

* :class:`~repro.serving.service.NormalizationService` -- front door for
  single, bulk and streaming normalization requests.
* :class:`~repro.serving.batcher.ContinuousBatcher` -- continuous
  batching (engine-tick release, earliest-deadline-first with an aging
  bound, FIFO size-bucketed queues) coalescing requests into single
  vectorized kernel calls.
* :class:`~repro.serving.registry.CalibrationRegistry` -- LRU cache of
  calibrated artifacts so Algorithm 1 never runs in the request path.
* :mod:`~repro.serving.telemetry` -- latency histograms, skip/subsample
  rate counters and throughput gauges, surfaced by the ``haan-serve`` CLI.
* :mod:`~repro.serving.throughput` -- micro-batched vs per-request-loop
  throughput measurement backing ``benchmarks/bench_serving_throughput.py``.

The batched path is bit-identical to the per-request
:class:`~repro.core.haan_norm.HaanNormalization` pipeline; the golden-model
tests in ``tests/test_serving.py`` enforce that contract.
"""

from repro.serving.batcher import BatcherConfig, ContinuousBatcher, PendingRequest
from repro.serving.registry import (
    CalibrationArtifact,
    CalibrationRegistry,
    RegistryStats,
    default_artifact_loader,
    default_calibration_settings,
)
from repro.serving.request import NormRequest, NormResponse, RequestKey
from repro.serving.service import NormalizationService
from repro.serving.telemetry import Counter, LatencyHistogram, ServingTelemetry
from repro.serving.throughput import ThroughputPoint, measure_serving_throughput

__all__ = [
    "BatcherConfig",
    "ContinuousBatcher",
    "PendingRequest",
    "CalibrationArtifact",
    "CalibrationRegistry",
    "RegistryStats",
    "default_artifact_loader",
    "default_calibration_settings",
    "NormRequest",
    "NormResponse",
    "RequestKey",
    "NormalizationService",
    "Counter",
    "LatencyHistogram",
    "ServingTelemetry",
    "ThroughputPoint",
    "measure_serving_throughput",
]
