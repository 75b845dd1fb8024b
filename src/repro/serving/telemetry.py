"""Serving telemetry: latency histograms, rate counters, throughput gauges.

Everything is in-process and lock-protected; the CLI renders
:meth:`ServingTelemetry.format_table` after a run and tests assert on
:meth:`ServingTelemetry.snapshot`.  Histograms use log-spaced buckets (the
Prometheus idiom for latency) so tail percentiles stay resolvable across
six decades without per-observation storage.  Per batch,
:meth:`ServingTelemetry.observe_batch` only buffers the latencies; they are
folded into the histograms in bulk when a buffer fills and before every
read, with results equal to folding each batch as it came.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.utils.tables import format_table


class LatencyHistogram:
    """Fixed log-spaced-bucket histogram of durations in seconds."""

    def __init__(
        self,
        lower: float = 1e-6,
        upper: float = 10.0,
        buckets_per_decade: int = 5,
    ):
        if not 0 < lower < upper:
            raise ValueError("need 0 < lower < upper")
        decades = np.log10(upper / lower)
        num_edges = int(np.ceil(decades * buckets_per_decade)) + 1
        #: Upper bounds of the finite buckets; one overflow bucket follows.
        self.edges = lower * np.power(10.0, np.arange(num_edges) / buckets_per_decade)
        self.counts = np.zeros(num_edges + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0
        self.max_value = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        value = float(seconds)
        index = int(np.searchsorted(self.edges, value, side="left"))
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if value > self.max_value:
            self.max_value = value

    def observe_many(self, seconds: np.ndarray) -> None:
        """Record a batch of durations in one vectorized pass."""
        values = np.asarray(seconds, dtype=np.float64)
        if values.size:
            self.fold(values, np.array([values.sum()]))

    def fold(self, values: np.ndarray, totals: np.ndarray) -> None:
        """Record many durations at once.  ``totals`` are the amounts the
        running total grows by, added one after another in order, so it
        matches the ``observe`` / ``observe_many`` calls they stand for."""
        if values.size:
            indices = np.searchsorted(self.edges, values, side="left")
            self.counts += np.bincount(indices, minlength=self.counts.size)
            self.count += int(values.size)
            # fmax skips NaN, as the one-at-a-time comparison does.
            self.max_value = max(self.max_value, float(np.fmax.reduce(values)))
        if totals.size:
            self.total = float(np.add.accumulate(np.concatenate(([self.total], totals)))[-1])

    @property
    def mean(self) -> float:
        """Mean of the recorded durations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the ``p``-th percentile.

        Histogram percentiles are bucket-resolution estimates: the true
        value lies at or below the returned bound.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = np.ceil(self.count * p / 100.0)
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, max(rank, 1)))
        if index >= self.edges.size:
            return self.max_value
        return float(self.edges[index])

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics for reporting."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max_value,
        }

    def prometheus_export(self) -> Dict[str, object]:
        """Cumulative buckets in Prometheus histogram shape.

        ``buckets`` is a list of ``(le, cumulative_count)`` pairs whose
        ``le`` values are the finite upper bounds (rendered as strings)
        plus the terminal ``"+Inf"`` overflow bucket -- exactly what a
        ``_bucket{le="..."}`` family needs, straight from the log-spaced
        counts this histogram already keeps.
        """
        cumulative = np.cumsum(self.counts)
        buckets: list = [
            (f"{float(edge):.9g}", int(total))
            for edge, total in zip(self.edges, cumulative[:-1])
        ]
        buckets.append(("+Inf", int(cumulative[-1])))
        return {"buckets": buckets, "sum": self.total, "count": self.count}


class LatencyReservoir:
    """Bounded ring buffer of the most recent raw latency samples.

    The histograms above are the unbounded-horizon aggregate: fixed memory,
    but bucket-resolution percentiles.  The reservoir complements them with
    *exact* percentiles over a recent window while staying strictly
    bounded -- a long-running ``haan-serve`` session holds at most
    ``capacity`` float64 samples per reservoir, never an ever-growing
    sample list.  Older samples are overwritten ring-style.
    """

    __slots__ = ("_samples", "_next", "_filled")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("reservoir capacity must be at least 1")
        self._samples = np.zeros(capacity, dtype=np.float64)
        self._next = 0
        self._filled = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples (the memory bound)."""
        return int(self._samples.size)

    @property
    def count(self) -> int:
        """Number of samples currently in the window."""
        return self._filled

    def observe(self, seconds: float) -> None:
        """Record one duration, evicting the oldest once full."""
        samples = self._samples
        samples[self._next] = seconds
        self._next = (self._next + 1) % samples.size
        if self._filled < samples.size:
            self._filled += 1

    def observe_many(self, seconds: np.ndarray) -> None:
        """Record a batch of durations in one vectorized ring write."""
        values = np.asarray(seconds, dtype=np.float64).reshape(-1)
        capacity = self._samples.size
        if values.size >= capacity:
            # Only the newest `capacity` samples survive anyway.
            self._samples[:] = values[-capacity:]
            self._next = 0
            self._filled = capacity
            return
        first = min(values.size, capacity - self._next)
        self._samples[self._next : self._next + first] = values[:first]
        remainder = values.size - first
        if remainder:
            self._samples[:remainder] = values[first:]
        self._next = (self._next + values.size) % capacity
        self._filled = min(self._filled + values.size, capacity)

    def values(self) -> np.ndarray:
        """Copy of the retained window (unordered)."""
        return self._samples[: self._filled].copy()

    def percentile(self, p: float) -> float:
        """Exact ``p``-th percentile of the retained window (0 when empty)."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self._filled == 0:
            return 0.0
        return float(np.percentile(self._samples[: self._filled], p))

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics of the recent window."""
        window = self._samples[: self._filled]
        return {
            "count": self._filled,
            "capacity": self.capacity,
            "p50": float(np.percentile(window, 50)) if self._filled else 0.0,
            "p99": float(np.percentile(window, 99)) if self._filled else 0.0,
            "max": float(np.max(window)) if self._filled else 0.0,
        }


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


#: Batches, and queue waits (one per request), that
#: :meth:`ServingTelemetry.observe_batch` buffers between folds.
BATCH_RING = 1024
WAIT_RING = 8192


class ServingTelemetry:
    """Aggregated metrics of one :class:`NormalizationService` instance.

    Tracks request/row/batch counts, the share of rows served by the
    predicted-ISD (skip) and subsampled paths, queue-wait and kernel-latency
    histograms, the micro-batch size distribution, and wall-clock
    throughput over the observed window.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sample_capacity: int = 4096,
    ):
        self._lock = threading.Lock()
        self._clock = clock
        self.requests_total = Counter()
        self.rows_total = Counter()
        self.batches_total = Counter()
        self.rows_predicted = Counter()
        self.rows_subsampled = Counter()
        self.errors_total = Counter()
        #: Per-backend request / row / batch counters, keyed by the engine
        #: registry name that executed each micro-batch.
        self.backend_counts: Dict[str, Dict[str, int]] = {}
        #: Modelled hardware cost aggregates, fed by the NormCostRecords
        #: the simulated backends emit (zero until a costed batch runs).
        self.cost_batches = 0
        self.cost_rows = 0
        self.cost_cycles = 0
        self.cost_energy_nj = 0.0
        #: Per accelerator-config cost breakdown, keyed by config name
        #: (haan-v1, sole, ...), so a mixed-accelerator session stays
        #: attributable.
        self.cost_by_config: Dict[str, Dict[str, float]] = {}
        self.queue_wait = LatencyHistogram()
        self.batch_latency = LatencyHistogram()
        #: Bounded raw-sample windows (exact recent percentiles at fixed
        #: memory; `sample_capacity` caps what a long-running session holds).
        self.recent_queue_wait = LatencyReservoir(sample_capacity)
        self.recent_batch_latency = LatencyReservoir(sample_capacity)
        self.max_batch_size = 0
        self._first_at: Optional[float] = None
        self._last_at: Optional[float] = None
        #: Latencies observed since the last fold: each batch's kernel time
        #: and the sum of its queue waits, and the waits back to back.
        self._batch_seconds = np.zeros(BATCH_RING)
        self._wait_sums = np.zeros(BATCH_RING)
        self._waits = np.zeros(WAIT_RING)
        self._batch_fill = 0
        self._wait_fill = 0
        #: External snapshot sections (name -> provider), e.g. the wire
        #: server's pipelining gauges.  Providers run outside the lock.
        self._sections: Dict[str, Callable[[], Dict[str, object]]] = {}

    def attach_section(
        self, name: str, provider: Callable[[], Dict[str, object]]
    ) -> None:
        """Merge ``provider()`` into every snapshot under key ``name``.

        Lets the transport layer (e.g. :class:`~repro.api.aserver.AsyncNormServer`)
        surface its pipelining/pool gauges next to the serving metrics
        without the telemetry module knowing about sockets.  Re-attaching a
        name replaces the provider (a restarted server re-registers).
        """
        if name in ("requests_total", "rows_total"):  # guard core keys
            raise ValueError(f"section name {name!r} collides with a core metric")
        self._sections[name] = provider

    # -- recording ---------------------------------------------------------

    def count_served(self, num_requests: int, num_rows: int) -> None:
        """Count one executed batch's requests and rows.

        The service calls this *before* it resolves the batch's futures, so
        a client that already holds its response never reads a telemetry
        snapshot that misses it; the rest of the batch is folded in by
        :meth:`observe_batch` afterwards, off the response's critical path.
        """
        with self._lock:
            self.requests_total.increment(num_requests)
            self.rows_total.increment(num_rows)

    def observe_batch(
        self,
        num_requests: int,
        num_rows: int,
        queue_waits: np.ndarray,
        batch_seconds: float,
        rows_predicted: int,
        rows_subsampled: int,
        backend: str = "vectorized",
        cost=None,
    ) -> None:
        """Fold one executed batch into the aggregates (bar the totals).

        ``requests_total`` / ``rows_total`` are counted by
        :meth:`count_served` before the batch's responses are released.

        ``cost`` is the batch's
        :class:`~repro.engine.backends.NormCostRecord` when a cost-modelling
        backend executed it (None otherwise); modelled cycles and energy
        aggregate next to the wall-clock metrics.

        The latencies wait in the buffers until the next fold.
        """
        now = self._clock()
        waits = len(queue_waits)
        if waits == 1:
            wait_sum = queue_waits[0]  # exactly what the sum of one value is
        else:
            wait_sum = np.add.reduce(np.asarray(queue_waits, dtype=np.float64))
        with self._lock:
            if self._first_at is None:
                self._first_at = now - batch_seconds
            self._last_at = now
            self.batches_total.increment()
            per_backend = self.backend_counts.setdefault(
                backend, {"requests": 0, "rows": 0, "batches": 0}
            )
            per_backend["requests"] += num_requests
            per_backend["rows"] += num_rows
            per_backend["batches"] += 1
            if cost is not None:
                self.cost_batches += 1
                self.cost_rows += cost.num_rows
                self.cost_cycles += cost.total_cycles
                self.cost_energy_nj += cost.energy_nj
                per_config = self.cost_by_config.setdefault(
                    cost.config_name,
                    {"batches": 0, "rows": 0, "cycles": 0, "energy_nj": 0.0},
                )
                per_config["batches"] += 1
                per_config["rows"] += cost.num_rows
                per_config["cycles"] += cost.total_cycles
                per_config["energy_nj"] += cost.energy_nj
            self.rows_predicted.increment(rows_predicted)
            self.rows_subsampled.increment(rows_subsampled)
            if num_requests > self.max_batch_size:
                self.max_batch_size = num_requests
            if self._batch_fill == BATCH_RING or self._wait_fill + waits > WAIT_RING:
                self._fold_locked()
            self._batch_seconds[self._batch_fill] = batch_seconds
            self._wait_sums[self._batch_fill] = wait_sum
            self._batch_fill += 1
            if waits > WAIT_RING:  # more waits than the buffer holds
                values = np.asarray(queue_waits, dtype=np.float64)
                self.queue_wait.fold(values, values[:0])
                self.recent_queue_wait.observe_many(values)
            else:
                self._waits[self._wait_fill : self._wait_fill + waits] = queue_waits
                self._wait_fill += waits

    def _fold_locked(self) -> None:
        """Fold the buffered latencies into the histograms and reservoirs."""
        seconds = self._batch_seconds[: self._batch_fill]
        waits = self._waits[: self._wait_fill]
        self.batch_latency.fold(seconds, seconds)
        self.queue_wait.fold(waits, self._wait_sums[: self._batch_fill])
        self.recent_batch_latency.observe_many(seconds)
        self.recent_queue_wait.observe_many(waits)
        self._batch_fill = self._wait_fill = 0

    def observe_error(self) -> None:
        """Record one failed batch."""
        with self._lock:
            self.errors_total.increment()

    def histogram_export(self) -> Dict[str, Dict[str, object]]:
        """Bucketed latency families for the Prometheus ``/metrics`` endpoint."""
        with self._lock:
            self._fold_locked()
            return {
                "queue_wait": self.queue_wait.prometheus_export(),
                "batch_latency": self.batch_latency.prometheus_export(),
            }

    # -- derived gauges ----------------------------------------------------

    @property
    def skip_rate(self) -> float:
        """Fraction of rows whose ISD was predicted rather than computed."""
        total = self.rows_total.value
        return self.rows_predicted.value / total if total else 0.0

    @property
    def subsample_rate(self) -> float:
        """Fraction of rows whose statistics used the subsampled estimator."""
        total = self.rows_total.value
        return self.rows_subsampled.value / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests coalesced per micro-batch."""
        batches = self.batches_total.value
        return self.requests_total.value / batches if batches else 0.0

    def observed_window(self) -> float:
        """Wall-clock span (seconds) between the first and last batch."""
        if self._first_at is None or self._last_at is None:
            return 0.0
        return max(self._last_at - self._first_at, 0.0)

    def requests_per_second(self) -> float:
        """Request throughput over the observed window."""
        window = self.observed_window()
        return self.requests_total.value / window if window > 0 else 0.0

    def rows_per_second(self) -> float:
        """Row (token) throughput over the observed window."""
        window = self.observed_window()
        return self.rows_total.value / window if window > 0 else 0.0

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """All aggregates as one plain dictionary."""
        # Section providers run outside the lock (a provider may itself
        # take locks, e.g. the wire server's connection registry).
        sections = {name: provider() for name, provider in self._sections.items()}
        with self._lock:
            self._fold_locked()
            sections.update({
                "requests_total": self.requests_total.value,
                "rows_total": self.rows_total.value,
                "batches_total": self.batches_total.value,
                "errors_total": self.errors_total.value,
                "mean_batch_size": self.mean_batch_size,
                "max_batch_size": self.max_batch_size,
                "skip_rate": self.skip_rate,
                "subsample_rate": self.subsample_rate,
                "backends": {
                    name: dict(counts) for name, counts in self.backend_counts.items()
                },
                "modelled_cost": {
                    "batches": self.cost_batches,
                    "rows": self.cost_rows,
                    "total_cycles": self.cost_cycles,
                    "energy_nj": self.cost_energy_nj,
                    "by_config": {
                        name: dict(counts)
                        for name, counts in self.cost_by_config.items()
                    },
                },
                "requests_per_second": self.requests_per_second(),
                "rows_per_second": self.rows_per_second(),
                "queue_wait": self.queue_wait.snapshot(),
                "batch_latency": self.batch_latency.snapshot(),
                "recent_queue_wait": self.recent_queue_wait.snapshot(),
                "recent_batch_latency": self.recent_batch_latency.snapshot(),
            })
            return sections

    def format_table(self) -> str:
        """Aligned plain-text rendering (the ``haan-serve`` summary)."""
        snap = self.snapshot()
        rows = [
            ["requests", f"{snap['requests_total']}"],
            ["rows (tokens)", f"{snap['rows_total']}"],
            ["micro-batches", f"{snap['batches_total']}"],
            ["errors", f"{snap['errors_total']}"],
            ["mean batch size", f"{snap['mean_batch_size']:.2f}"],
            ["skip rate", f"{100.0 * snap['skip_rate']:.1f}%"],
            ["subsample rate", f"{100.0 * snap['subsample_rate']:.1f}%"],
            ["requests/sec", f"{snap['requests_per_second']:.0f}"],
            ["rows/sec", f"{snap['rows_per_second']:.0f}"],
            ["queue wait p50/p99", _format_pair(snap["queue_wait"])],
            ["batch latency p50/p99", _format_pair(snap["batch_latency"])],
            ["recent queue wait p50/p99", _format_pair(snap["recent_queue_wait"])],
            ["recent batch latency p50/p99", _format_pair(snap["recent_batch_latency"])],
        ]
        for name in sorted(snap["backends"]):
            counts = snap["backends"][name]
            rows.append(
                [
                    f"backend[{name}]",
                    f"{counts['requests']} req / {counts['rows']} rows / "
                    f"{counts['batches']} batches",
                ]
            )
        wire = snap.get("wire")
        if isinstance(wire, dict) and wire.get("frames_received"):
            rows.append(
                [
                    "wire pipelining",
                    f"{wire['frames_received']} frames / "
                    f"{wire['connections_total']} conns / "
                    f"peak inflight {wire['peak_inflight']}",
                ]
            )
            rows.append(
                [
                    "wire pool",
                    f"max inflight {wire['max_inflight']} per conn",
                ]
            )
            # Per-connection gauges arrived with the fleet tier; older
            # frozen snapshots may lack them, so render only when present.
            if "backpressure_waits" in wire:
                rows.append(
                    [
                        "wire backpressure",
                        f"{wire['backpressure_waits']} reader stalls / "
                        f"inflight now {wire.get('inflight_current', 0)}",
                    ]
                )
            # Codec gauges arrived with the binary wire format; older
            # frozen snapshots may predate them.
            if "bytes_received" in wire:
                rows.append(
                    [
                        "wire codec",
                        f"{wire['bytes_received']} B in / "
                        f"{wire['bytes_sent']} B out / "
                        f"{wire.get('frames_binary', 0)} binary + "
                        f"{wire.get('frames_json', 0)} json frames",
                    ]
                )
            for conn in wire.get("per_connection", []):
                codec_suffix = ""
                if "encoding" in conn:
                    codec_suffix = (
                        f" / {conn['encoding']} "
                        f"{conn.get('bytes_in', 0)}B>{conn.get('bytes_out', 0)}B"
                    )
                rows.append(
                    [
                        f"wire conn[{conn['id']}]",
                        f"{conn['frames']} frames / inflight {conn['inflight']} "
                        f"(peak {conn['peak_inflight']}) / "
                        f"{conn['backpressure_waits']} stalls"
                        f"{codec_suffix}",
                    ]
                )
        cost = snap["modelled_cost"]
        if cost["batches"]:
            rows.append(["modelled cycles", f"{cost['total_cycles']}"])
            rows.append(["modelled energy", f"{cost['energy_nj'] / 1e3:.2f} uJ"])
            for name in sorted(cost["by_config"]):
                per_config = cost["by_config"][name]
                rows.append(
                    [
                        f"cost[{name}]",
                        f"{per_config['cycles']} cycles / "
                        f"{per_config['energy_nj']:.0f} nJ / "
                        f"{per_config['rows']} rows",
                    ]
                )
        return format_table(["metric", "value"], rows, title="haan-serve telemetry")


def _format_pair(hist_snapshot: Dict[str, float]) -> str:
    """Render a histogram's p50/p99 pair in microseconds."""
    return (
        f"{1e6 * hist_snapshot['p50']:.0f}us / {1e6 * hist_snapshot['p99']:.0f}us"
    )
