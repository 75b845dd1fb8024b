"""Overload goodput: admission-control shedding vs. accept-everything.

Acceptance target of the robustness tier (ISSUE 7): at **2x** a server's
frame capacity, goodput -- responses that arrive within their deadline
budget, per second of wall clock -- with load shedding enabled must reach
at least **1.5x** the goodput of the same server accepting everything.

The mechanism under test is the pre-decode
:class:`~repro.api.admission.AdmissionController`: with a queue bound
sized to the deadline budget, work that cannot plausibly finish in time
fails in microseconds with a typed ``OverloadedError`` (``retry_after_ms``
attached) instead of failing slowly at its deadline, so the requests the
server *does* accept still finish in budget.  Without the bound every
request is admitted, the queue grows past the deadline horizon, and
almost nothing useful comes back -- the classic goodput collapse.

The server shape is deliberately *capacity-bound*, not CPU-bound: every
request runs on a benchmark-local backend (:mod:`row_cost_backend`) that
is the ``vectorized`` kernel plus a ``ROW_MS`` sleep per batch row, so the
engine serves ``1 / ROW_MS`` rows/sec and capacity is
``1 / (ROW_MS * ROWS)`` requests/sec (50/s) on any host that fits the real
work inside that time; a single-core CI runner measures admission policy,
not numpy.

Results are written to a machine-readable ``BENCH_7.json``.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_overload.py --output BENCH_7.json

or under pytest (``python -m pytest bench_overload.py -q -s``); the
environment knob ``HAAN_BENCH_OVERLOAD_SECONDS`` scales the offered-load
window.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import ApiError, OverloadedError
from repro.engine.backends import VectorizedBackend
from repro.serving.batcher import BatcherConfig
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService
from row_cost_backend import register_row_cost

#: Acceptance floor asserted by this benchmark (and by the CI job).
OVERLOAD_GOODPUT_FLOOR = 1.5

#: Capacity-bound server shape: ``1 / (ROW_MS * ROWS)`` requests/sec.
ROW_MS = 10.0
ROWS = 2
MAX_BATCH = 64
CAPACITY_RPS = 1000.0 / (ROW_MS * ROWS)
BACKEND = "overload-row-cost"

#: Offered load is this multiple of capacity (the ISSUE's "2x" point).
OVERLOAD_FACTOR = 2.0

#: A response is *goodput* only if it lands within this budget.
DEADLINE_MS = 250.0

MODEL = "tiny"


def _seconds() -> float:
    try:
        return max(1.0, float(os.environ.get("HAAN_BENCH_OVERLOAD_SECONDS", 3.0)))
    except ValueError:
        return 3.0


def _serve(registry: CalibrationRegistry, max_queue_depth: int) -> AsyncNormServer:
    """One capacity-bound server over a child of the shared registry."""
    service = NormalizationService(
        registry=CalibrationRegistry(loader=lambda m, d: registry.get(m, d)),
        config=BatcherConfig(max_batch_size=MAX_BATCH),
    )
    server = AsyncNormServer(
        service,
        max_inflight=4096,  # the queue must build server-side, not as TCP backpressure
        max_queue_depth=max_queue_depth,
    ).start()
    server._bench_service = service  # closed together in _drive's finally
    return server


def _drive(
    registry: CalibrationRegistry,
    max_queue_depth: int,
    deadline_on_wire: bool,
    seconds: float,
    seed: int,
) -> Dict[str, object]:
    """Open-loop traffic at ``OVERLOAD_FACTOR``x capacity against one server.

    Requests are paced on the client's clock (send time ``i / rate``
    regardless of completions), which is what makes overload real: a
    closed loop would slow down with the server and never overload it.
    """
    rate = CAPACITY_RPS * OVERLOAD_FACTOR
    total = max(8, int(round(rate * seconds)))
    rng = np.random.default_rng(seed)
    server = _serve(registry, max_queue_depth)
    try:
        artifact = registry.get(MODEL, "default")
        layer = artifact.layer(0)
        golden = layer.engine_for("reference")
        payloads = [
            rng.normal(0.0, 1.0, size=(ROWS, artifact.hidden_size))
            for _ in range(total)
        ]
        deadline = DEADLINE_MS if deadline_on_wire else None

        with NormClient.connect(server.host, server.port, timeout=120.0) as client:
            client.wait_until_ready(timeout=30.0)
            # Warm the path (connection, engine cache) outside the timed window.
            client.normalize(payloads[0], MODEL, backend=BACKEND)

            good = 0
            late = 0
            shed = 0
            shed_latencies: List[float] = []
            mismatches = 0
            missing_retry_after = 0
            other: List[str] = []

            # Responses come back FIFO on the pipelined connection; a
            # concurrent drainer stamps each at *arrival*.  Stamping in a
            # post-send loop instead would charge every response the full
            # send window and call the whole run late.
            pending: "queue.Queue" = queue.Queue()

            def _drain() -> None:
                nonlocal good, late, shed, mismatches, missing_retry_after
                while True:
                    item = pending.get()
                    if item is None:
                        return
                    index, sent, handle = item
                    try:
                        result = handle.result()
                    except OverloadedError as error:
                        shed += 1
                        shed_latencies.append(
                            (time.perf_counter() - sent) * 1000.0
                        )
                        if error.retry_after_ms is None:
                            missing_retry_after += 1
                        continue
                    except ApiError as error:
                        other.append(f"[{error.code}] {error}")
                        continue
                    latency_ms = (time.perf_counter() - sent) * 1000.0
                    if latency_ms <= DEADLINE_MS:
                        good += 1
                    else:
                        late += 1
                    expected = golden.run(
                        np.asarray(payloads[index], dtype=np.float64)
                    )[0]
                    if not np.array_equal(
                        result.output, expected.reshape(result.output.shape)
                    ):
                        mismatches += 1

            drainer = threading.Thread(target=_drain, daemon=True)
            drainer.start()
            begin = time.perf_counter()
            for index, payload in enumerate(payloads):
                slot = begin + index / rate
                delay = slot - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                handle = client.submit_normalize(
                    payload, MODEL, backend=BACKEND, deadline_ms=deadline
                )
                pending.put((index, sent, handle))
            pending.put(None)
            drainer.join()
            elapsed = time.perf_counter() - begin
        admission = server.admission.snapshot()
    finally:
        server.close()
        server._bench_service.close()

    return {
        "max_queue_depth": max_queue_depth,
        "deadline_on_wire": deadline_on_wire,
        "requests": total,
        "offered_rps": round(rate, 1),
        "elapsed_seconds": round(elapsed, 3),
        "good": good,
        "late": late,
        "shed": shed,
        "goodput_rps": round(good / elapsed, 2),
        "shed_latency_ms_max": (
            round(max(shed_latencies), 3) if shed_latencies else None
        ),
        "missing_retry_after": missing_retry_after,
        "golden_mismatches": mismatches,
        "other_failures": other,
        "admission": admission,
    }


def bench_overload(seconds: Optional[float] = None, seed: int = 0) -> Dict[str, object]:
    """Goodput at 2x capacity, with and without admission control."""
    seconds = seconds or _seconds()
    register_row_cost(BACKEND, VectorizedBackend, ROW_MS / 1000.0)
    # One parent registry: Algorithm 1 runs once, both runs reuse it.
    registry = CalibrationRegistry()
    registry.get(MODEL, "default")

    # Queue bound sized to the deadline budget: work beyond
    # deadline / per-frame service time cannot finish in time anyway.
    per_frame = ROW_MS * ROWS
    bounded_depth = max(2, int(DEADLINE_MS / per_frame) // 2)

    with_shedding = _drive(
        registry, bounded_depth, deadline_on_wire=True, seconds=seconds, seed=seed
    )
    # "Without": the bound is effectively infinite and no deadline rides
    # the wire, so the admission controller admits everything -- lateness
    # is judged client-side against the same budget.
    without_shedding = _drive(
        registry, 10**6, deadline_on_wire=False, seconds=seconds, seed=seed
    )

    ratio = with_shedding["goodput_rps"] / max(without_shedding["goodput_rps"], 1e-9)
    return {
        "capacity_rps": round(CAPACITY_RPS, 1),
        "overload_factor": OVERLOAD_FACTOR,
        "deadline_ms": DEADLINE_MS,
        "seconds": seconds,
        "server": {
            "row_ms": ROW_MS,
            "rows_per_request": ROWS,
            "max_batch_size": MAX_BATCH,
            "bounded_queue_depth": bounded_depth,
        },
        "with_shedding": with_shedding,
        "without_shedding": without_shedding,
        "goodput_ratio": round(ratio, 2),
        "floor": OVERLOAD_GOODPUT_FLOOR,
    }


def _healthy(result: Dict[str, object]) -> bool:
    shed_run = result["with_shedding"]
    return (
        result["goodput_ratio"] >= OVERLOAD_GOODPUT_FLOOR
        and shed_run["golden_mismatches"] == 0
        and result["without_shedding"]["golden_mismatches"] == 0
        and shed_run["missing_retry_after"] == 0
        and shed_run["shed"] > 0
    )


def _report(result: Dict[str, object]) -> None:
    print(
        f"offered {result['with_shedding']['offered_rps']} req/s "
        f"({result['overload_factor']}x the ~{result['capacity_rps']} req/s "
        f"capacity), deadline budget {result['deadline_ms']} ms"
    )
    for label in ("with_shedding", "without_shedding"):
        row = result[label]
        print(
            f"  {label.replace('_', ' '):17s}: goodput {row['goodput_rps']:7.2f} req/s  "
            f"({row['good']} good / {row['late']} late / {row['shed']} shed "
            f"of {row['requests']} in {row['elapsed_seconds']}s)"
        )
    print(
        f"goodput ratio: {result['goodput_ratio']:.2f}x  "
        f"(floor {result['floor']:.1f}x)"
    )
    shed_run = result["with_shedding"]
    if shed_run["shed"]:
        print(
            f"slowest shed: {shed_run['shed_latency_ms_max']} ms; "
            f"accepted responses bit-identical="
            f"{shed_run['golden_mismatches'] == 0}"
        )


def test_overload_goodput():
    """Pytest entry point asserting the acceptance floor."""
    result = bench_overload()
    print()
    _report(result)
    assert result["with_shedding"]["shed"] > 0, result["with_shedding"]
    assert result["with_shedding"]["golden_mismatches"] == 0
    assert result["with_shedding"]["missing_retry_after"] == 0
    assert result["goodput_ratio"] >= OVERLOAD_GOODPUT_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="write BENCH_7.json here")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    result = bench_overload(seconds=args.seconds)
    _report(result)
    payload = {
        "bench": "BENCH_7",
        "pr": 7,
        "description": "overload goodput: admission-control shedding vs accept-everything at 2x capacity",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "results": {"overload": result},
    }
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if _healthy(result) else 1


if __name__ == "__main__":
    sys.exit(main())
