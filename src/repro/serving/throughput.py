"""Throughput measurement: micro-batched serving vs a per-request loop.

The per-request baseline calls the HAAN layer once per request -- exactly
what the offline experiments do.  The batched path pushes the same requests
through an inline :class:`~repro.serving.service.NormalizationService`
(queueing, coalescing, telemetry and response splitting included), so the
reported speedup is end-to-end honest, not a kernel-only number.  Inline
mode is used so thread wakeup jitter never pollutes the timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.serving.batcher import BatcherConfig
from repro.serving.registry import ArtifactLoader, CalibrationRegistry
from repro.serving.service import NormalizationService


@dataclass(frozen=True)
class ThroughputPoint:
    """Requests/sec of both paths at one micro-batch size."""

    batch_size: int
    requests: int
    loop_seconds: float
    batched_seconds: float

    @property
    def loop_rps(self) -> float:
        """Requests/sec of the per-request loop."""
        return self.requests / self.loop_seconds if self.loop_seconds > 0 else 0.0

    @property
    def batched_rps(self) -> float:
        """Requests/sec of the micro-batched service."""
        return self.requests / self.batched_seconds if self.batched_seconds > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Batched over per-request throughput ratio."""
        return self.batched_rps / self.loop_rps if self.loop_rps > 0 else 0.0


def measure_serving_throughput(
    model: str = "tiny",
    batch_sizes: Sequence[int] = (1, 8, 32, 128),
    layer_index: int = 0,
    rows_per_request: int = 1,
    requests: int = 256,
    repeats: int = 3,
    seed: int = 0,
    dataset: str = "default",
    backend: str = "vectorized",
    loader: Optional[ArtifactLoader] = None,
) -> List[ThroughputPoint]:
    """Measure both paths over identical request sets.

    For each micro-batch size the same ``requests`` payloads are timed
    through (a) a Python loop of single-request layer calls and (b) the
    inline service configured with that ``max_batch_size``.  Each
    measurement repeats ``repeats`` times and keeps the fastest run (the
    standard microbenchmark policy); one warmup run absorbs lazy
    allocations.  The registry is shared across points, so calibration runs
    once and every timed run hits the artifact cache.
    """
    registry = CalibrationRegistry(loader=loader)
    artifact = registry.get(model, dataset)
    layer = artifact.layer(layer_index)
    rng = np.random.default_rng(seed)
    payloads = [
        rng.normal(0.0, 1.0, size=(rows_per_request, artifact.hidden_size))
        for _ in range(requests)
    ]

    points: List[ThroughputPoint] = []
    for batch_size in batch_sizes:
        # The loop baseline is re-measured interleaved with every batched
        # measurement (not hoisted out): alternating the two paths exposes
        # them to the same CPU frequency / thermal window, which keeps the
        # reported ratio stable run to run.
        loop_seconds, batched_seconds = _interleaved_best_of(
            repeats,
            lambda: _run_loop(layer, payloads),
            lambda: _run_service(
                registry, model, dataset, layer_index, batch_size, payloads, backend
            ),
        )
        points.append(
            ThroughputPoint(
                batch_size=batch_size,
                requests=requests,
                loop_seconds=loop_seconds,
                batched_seconds=batched_seconds,
            )
        )
    return points


def _interleaved_best_of(repeats: int, run_a, run_b) -> tuple:
    """Fastest wall-clock time of each path, measured alternately.

    One warmup of each absorbs lazy allocations; the fastest of ``repeats``
    alternating measurements is kept per path (the standard microbenchmark
    policy).
    """
    run_a()
    run_b()
    times_a: List[float] = []
    times_b: List[float] = []
    for _ in range(max(1, repeats)):
        times_a.append(_timed(run_a))
        times_b.append(_timed(run_b))
    return min(times_a), min(times_b)


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _run_loop(layer, payloads) -> None:
    for payload in payloads:
        layer(payload)


def _run_service(
    registry, model, dataset, layer_index, batch_size, payloads, backend="vectorized"
) -> None:
    service = NormalizationService(
        registry=registry,
        config=BatcherConfig(max_batch_size=batch_size),
        threaded=False,
    )
    futures = service.submit_many(
        payloads, model, layer_index=layer_index, dataset=dataset, backend=backend
    )
    service.batcher.drain_all()
    for future in futures:
        future.result()
