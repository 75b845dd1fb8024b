"""Fleet scaling: multi-client req/s against 1 / 2 / 4 server replicas.

Acceptance target of the fleet tier (ISSUE 6): bulk requests/sec against
**4 replicas** must reach at least **2.5x** the single-replica rate on the
same host, and every fleet path must stay **bit-identical** to a single
server -- including with one replica SIGKILLed mid-run.

Each replica is one ``haan-serve --listen`` process whose one asyncio
event-loop thread runs every op, the kernels included.  A serving frame
never waits on a timer -- the loop drains whatever is queued every engine
tick -- so a replica is *CPU-bound*: it sustains about one core's worth of
codec, event-loop and kernel work (~400-700 bulk frames/sec of this
workload on a 2-vCPU Xeon VM).  Each benchmark client drives its own calibration dataset, so the
consistent-hash ring spreads the keys across the fleet and N replicas add
up to N cores of serving capacity.  The speedup therefore needs at least
as many free cores as replicas, on top of the cores the eight client
threads use: a host with fewer cores measures its own core count, not the
router.

Results are written to a machine-readable ``BENCH_6.json``.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py --output BENCH_6.json

or under pytest (``python -m pytest bench_fleet.py -q -s``); the
environment knob ``HAAN_BENCH_FLEET_FRAMES`` scales the per-client frame
count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.client import NormClient
from repro.fleet.ring import HashRing
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.transport import FleetTransport

#: Acceptance floor asserted by this benchmark (and by the CI job).
FLEET_BULK_SPEEDUP_FLOOR = 2.5
REPLICA_COUNTS = (1, 2, 4)

MAX_BATCH = 64

CLIENTS = 8
BULK_ITEMS = 8
PIPELINE_DEPTH = 8

#: Each client drives its own calibration dataset; the artifact cache must
#: hold the whole working set or cold recalibration (not admission capacity)
#: dominates the single-replica baseline.
REGISTRY_CAPACITY = CLIENTS + 2


def _frames() -> int:
    try:
        return max(8, int(os.environ.get("HAAN_BENCH_FLEET_FRAMES", 20)))
    except ValueError:
        return 20


def _run_clients(worker, count: int = CLIENTS) -> float:
    """Run ``worker(index)`` on ``count`` threads; wall clock of the whole set."""
    barrier = threading.Barrier(count + 1)
    errors: List[BaseException] = []

    def _wrapped(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=_wrapped, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def _balanced_datasets(addresses: Sequence[str], count: int = CLIENTS) -> List[str]:
    """Pick ``count`` dataset names the hash ring spreads evenly.

    The fleet routes a bulk frame by its ``(model, dataset, accelerator)``
    key; with only ``CLIENTS`` live keys the multinomial placement over
    ephemeral-port replica names is lumpy, and the wall clock of the run is
    set by whichever replica drew the most keys.  Real deployments carry
    enough keys for the ring to even out, so the benchmark recovers that
    regime deterministically: probe candidate names against the same ring
    the transport builds and keep ``count / len(addresses)`` per replica.
    """
    ring = HashRing(list(addresses))  # same vnodes default as FleetTransport
    quota = -(-count // len(addresses))  # ceil: always fillable
    owned: Dict[str, int] = {address: 0 for address in addresses}
    chosen: List[str] = []
    candidate = 0
    while len(chosen) < count:
        name = f"bench-{candidate}"
        candidate += 1
        owner = ring.primary(("tiny", name, None))
        if owned[owner] >= quota:
            continue
        owned[owner] += 1
        chosen.append(name)
    return chosen


def _measure_fleet(
    addresses: Sequence[str],
    datasets: Sequence[str],
    payload_sets: Dict[int, List[np.ndarray]],
    frames: int,
) -> Dict[str, float]:
    """Pipelined and bulk req/s of CLIENTS concurrent clients on one fleet."""
    clients = [
        NormClient(
            FleetTransport(list(addresses), timeout=120.0, hedge=False, scatter=False)
        )
        for _ in range(CLIENTS)
    ]
    try:
        for client in clients:
            client.wait_until_ready(timeout=60.0)

        def _warmup(index: int) -> None:
            # Calibrates every client's dataset on its ring owner and opens
            # the pooled connections before any timed section.
            clients[index].normalize_bulk(
                payload_sets[index][:BULK_ITEMS], "tiny", dataset=datasets[index]
            )

        def _pipelined(index: int) -> None:
            clients[index].normalize_many(
                payload_sets[index],
                "tiny",
                depth=PIPELINE_DEPTH,
                dataset=datasets[index],
            )

        def _bulk(index: int) -> None:
            payloads = payload_sets[index]
            client = clients[index]
            for offset in range(0, len(payloads), BULK_ITEMS):
                client.normalize_bulk(
                    payloads[offset : offset + BULK_ITEMS],
                    "tiny",
                    dataset=datasets[index],
                )

        _run_clients(_warmup)
        timings = {}
        total = CLIENTS * frames * BULK_ITEMS
        timings["pipelined_seconds"] = _run_clients(_pipelined)
        timings["bulk_seconds"] = _run_clients(_bulk)
        timings["pipelined_rps"] = total / timings["pipelined_seconds"]
        timings["bulk_rps"] = total / timings["bulk_seconds"]
        timings["bulk_frames_per_second"] = (
            CLIENTS * frames / timings["bulk_seconds"]
        )
        return timings
    finally:
        for client in clients:
            client.close()


def _check_parity(
    addresses: Sequence[str], dataset: str, supervisor: FleetSupervisor
) -> Dict[str, object]:
    """Bit-identity of scatter-gather vs the served spec, incl. a mid-run kill."""
    rng = np.random.default_rng(99)
    with NormClient.connect_fleet(list(addresses), timeout=60.0) as client:
        client.wait_until_ready(timeout=60.0)
        served = client.fetch_spec("tiny", dataset=dataset)
        from repro.engine.registry import build

        engine = build(
            served.spec, backend="reference", gamma=served.gamma, beta=served.beta
        )
        payloads = [
            rng.normal(size=(2, served.hidden_size)) for _ in range(4 * len(addresses))
        ]

        def _mismatches(results) -> int:
            count = 0
            for payload, result in zip(payloads, results):
                expected = engine.run(payload)[0]
                if not np.array_equal(result.output, expected):
                    count += 1
            return count

        before = _mismatches(
            client.normalize_bulk(payloads, "tiny", dataset=dataset)
        )
        killed = None
        if len(addresses) > 1:
            victim = supervisor.replica(0)
            killed = victim.address
            victim.kill()
        after = _mismatches(
            client.normalize_bulk(payloads, "tiny", dataset=dataset)
        )
        stats = client.transport.stats()
    return {
        "checked": 2 * len(payloads),
        "mismatches_before_kill": before,
        "mismatches_after_kill": after,
        "killed_replica": killed,
        "bit_identical": before == 0 and after == 0,
        "scatter_requests": stats["scatter_requests"],
        "scatter_retries": stats["scatter_retries"],
    }


def bench_fleet(frames: Optional[int] = None, seed: int = 0) -> Dict[str, object]:
    """Measure fleet req/s at 1/2/4 replicas plus the scatter parity check."""
    frames = frames or _frames()
    rng = np.random.default_rng(seed)
    # Tiny model, hidden size 64; payloads are shared across replica counts.
    payload_sets = {
        index: [rng.normal(size=(1, 64)) for _ in range(frames * BULK_ITEMS)]
        for index in range(CLIENTS)
    }

    scaling: Dict[str, Dict[str, float]] = {}
    parity: Dict[str, object] = {}
    for count in REPLICA_COUNTS:
        with FleetSupervisor(
            count,
            restart=False,
            model="tiny",
            max_batch_size=MAX_BATCH,
            registry_capacity=REGISTRY_CAPACITY,
        ) as supervisor:
            addresses = supervisor.start()
            datasets = _balanced_datasets(addresses)
            scaling[str(count)] = _measure_fleet(addresses, datasets, payload_sets, frames)
            if count == max(REPLICA_COUNTS):
                parity = _check_parity(addresses, datasets[0], supervisor)

    one, top = scaling[str(REPLICA_COUNTS[0])], scaling[str(max(REPLICA_COUNTS))]
    return {
        "frames_per_client": frames,
        "clients": CLIENTS,
        "bulk_items": BULK_ITEMS,
        "pipeline_depth": PIPELINE_DEPTH,
        "cpu_count": os.cpu_count(),
        "replica_config": {
            "max_batch_size": MAX_BATCH,
            "registry_capacity": REGISTRY_CAPACITY,
        },
        "scaling": scaling,
        "bulk_speedup": top["bulk_rps"] / one["bulk_rps"],
        "pipelined_speedup": top["pipelined_rps"] / one["pipelined_rps"],
        "parity": parity,
        "floor": FLEET_BULK_SPEEDUP_FLOOR,
    }


def _report(result: Dict[str, object]) -> None:
    print(
        f"clients: {result['clients']} x {result['frames_per_client']} frames "
        f"x {result['bulk_items']} items on {result['cpu_count']} CPU(s)"
    )
    for count, row in result["scaling"].items():
        print(
            f"  {count} replica(s): bulk {row['bulk_rps']:8.0f} req/s "
            f"({row['bulk_frames_per_second']:6.0f} frames/s)   "
            f"pipelined {row['pipelined_rps']:8.0f} req/s"
        )
    print(
        f"bulk speedup ({max(REPLICA_COUNTS)} vs 1 replicas): "
        f"{result['bulk_speedup']:.2f}x  (floor {result['floor']:.1f}x)"
    )
    print(f"pipelined speedup: {result['pipelined_speedup']:.2f}x")
    parity = result["parity"]
    print(
        f"scatter parity: {parity['checked']} response(s), "
        f"bit-identical={parity['bit_identical']} "
        f"(killed {parity['killed_replica']} mid-run, "
        f"{parity['scatter_retries']} slice(s) retried)"
    )


def test_fleet_scaling():
    """Pytest entry point asserting the acceptance floors."""
    result = bench_fleet()
    print()
    _report(result)
    assert result["parity"]["bit_identical"], result["parity"]
    assert result["bulk_speedup"] >= FLEET_BULK_SPEEDUP_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="write BENCH_6.json here")
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args(argv)

    result = bench_fleet(frames=args.frames)
    _report(result)
    payload = {
        "bench": "BENCH_6",
        "pr": 6,
        "description": "fleet scaling: multi-client req/s at 1/2/4 replicas",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "results": {"fleet": result},
    }
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    ok = (
        result["parity"]["bit_identical"]
        and result["bulk_speedup"] >= FLEET_BULK_SPEEDUP_FLOOR
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
