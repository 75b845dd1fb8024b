"""Mixed request sizes: a 1-row lock-step client beside a bulk client.

The server runs its engine tick on its one event-loop thread, so a kernel
holds the loop for its whole duration: a 1-row request that arrives while
a 16 x 64-row bulk frame executes is read, gated and answered only when
that kernel returns.  This script measures what that costs a small
client, against a ``haan-serve --listen`` child serving llama-7b:

* ``small_alone`` -- one 1-row lock-step ``normalize`` client, alone;
* ``small_beside_bulk`` -- the same client while a second process drives
  lock-step ``normalize_bulk`` frames of 16 x 64-row tensors rotating over
  every layer (the shape of perfbench's ``prefill-bulk`` workload);
* ``shed_beside_bulk`` -- the round trip of a request the pre-decode gate
  sheds (an infeasible ``deadline_ms``), beside the same bulk client.

Each phase reports p50 / p99 / mean round-trip latency.  Every small
response is checked bit-for-bit (output, mean, ISD) against the
``reference`` backend built from the served spec, and every shed probe
must fail with the typed ``overloaded`` error.  There is no latency
floor: the script exits 1 only on a failed, untyped or non-bit-identical
response.  Runs standalone::

    PYTHONPATH=src python benchmarks/bench_mixed_sizes.py --output mixed.json

``--seconds`` (or ``HAAN_BENCH_MIXED_SECONDS``, default 5) sets each
phase's length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.api.client import NormClient
from repro.api.envelopes import OverloadedError
from repro.api.retry import RetryPolicy
from repro.engine.registry import build
from repro.fleet.supervisor import ReplicaProcess

MODEL = "llama-7b"
SMALL_LAYER = 1
BULK_TENSORS = 16
BULK_ROWS = 64
#: A budget no request can meet: the gate sheds it before any decode.
SHED_DEADLINE_MS = 0.0005


def _seconds() -> float:
    try:
        return max(0.5, float(os.environ.get("HAAN_BENCH_MIXED_SECONDS", 5.0)))
    except ValueError:
        return 5.0


def _summary(latencies: List[float]) -> Dict[str, float]:
    ms = 1e3 * np.asarray(latencies)
    return {
        "requests": int(ms.size),
        "p50_ms": float(np.percentile(ms, 50)),
        "p99_ms": float(np.percentile(ms, 99)),
        "mean_ms": float(ms.mean()),
    }


def _host_port(address: str):
    host, port = address.rsplit(":", 1)
    return host, int(port)


# -- the bulk client (a child process of this script) --------------------------


def bulk_client(address: str, seed: int) -> int:
    """Lock-step ``normalize_bulk`` frames until stdin closes.

    Prints ``ready`` after its first frame and one JSON summary line at
    the end; exits 1 if any frame failed.
    """
    rng = np.random.default_rng(seed)
    host, port = _host_port(address)
    frames = failed = 0
    started = time.perf_counter()
    with NormClient.connect(host, port, timeout=60.0) as client:
        client.wait_until_ready()
        served = client.fetch_spec(MODEL, layer_index=0)
        hidden = served.spec.hidden_size
        pool = [
            [rng.normal(0.0, 1.0, (BULK_ROWS, hidden)) for _ in range(BULK_TENSORS)]
            for _ in range(4)
        ]
        while True:
            try:
                client.normalize_bulk(
                    pool[frames % len(pool)], MODEL,
                    layer_index=frames % served.num_layers,
                )
            except Exception:  # noqa: BLE001 -- counted, reported at the end
                failed += 1
            frames += 1
            if frames == 1:
                print("ready", flush=True)
            if select.select([sys.stdin], [], [], 0)[0]:
                break  # the parent closed our stdin
    elapsed = time.perf_counter() - started
    print(json.dumps({
        "frames": frames,
        "failed": failed,
        "rows_per_s": frames * BULK_TENSORS * BULK_ROWS / elapsed,
    }), flush=True)
    return 1 if failed else 0


def _start_bulk_client(address: str, seed: int) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, __file__, "--bulk-client", address, "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    if line.strip() != "ready":
        process.kill()
        raise RuntimeError(f"bulk client failed to start: {line!r}")
    return process


def _stop_bulk_client(process: subprocess.Popen) -> Dict[str, object]:
    process.stdin.close()
    out = process.stdout.read()
    summary = json.loads(out.strip().splitlines()[-1])
    summary["exit_code"] = process.wait(timeout=60.0)
    return summary


# -- the measured clients ------------------------------------------------------


class SmallClient:
    """1-row lock-step ``normalize`` requests, golden-checked."""

    def __init__(self, client: NormClient, seed: int):
        self.client = client
        served = client.fetch_spec(MODEL, layer_index=SMALL_LAYER)
        engine = build(served.spec, backend="reference", gamma=served.gamma, beta=served.beta)
        rng = np.random.default_rng(seed)
        self.payloads = [
            rng.normal(0.0, 1.0, (1, served.spec.hidden_size)) * rng.uniform(0.5, 4.0)
            for _ in range(64)
        ]
        self.golden = [engine.run(payload) for payload in self.payloads]
        self.failures: List[str] = []

    def run(self, seconds: float) -> List[float]:
        latencies = []
        index = 0
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            payload = self.payloads[index % len(self.payloads)]
            sent = time.perf_counter()
            try:
                result = self.client.normalize(payload, MODEL, layer_index=SMALL_LAYER)
            except Exception as error:  # noqa: BLE001 -- counted, reported
                self.failures.append(repr(error))
                continue
            latencies.append(time.perf_counter() - sent)
            output, mean, isd = self.golden[index % len(self.payloads)]
            if not (
                np.array_equal(result.output, output)
                and np.array_equal(result.mean, mean)
                and np.array_equal(result.isd, isd)
            ):
                self.failures.append(f"request {index} not bit-identical")
            index += 1
        return latencies

    def run_shed(self, client: NormClient, seconds: float) -> List[float]:
        """Round trips of requests the gate must shed."""
        latencies = []
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            sent = time.perf_counter()
            try:
                client.normalize(
                    self.payloads[0], MODEL, layer_index=SMALL_LAYER,
                    deadline_ms=SHED_DEADLINE_MS,
                )
            except OverloadedError:
                latencies.append(time.perf_counter() - sent)
                continue
            except Exception as error:  # noqa: BLE001 -- counted, reported
                self.failures.append(f"shed probe: {error!r}")
                continue
            self.failures.append("shed probe was served")
        return latencies


def bench_mixed_sizes(seconds: Optional[float] = None, seed: int = 0) -> Dict[str, object]:
    """Small-client latency alone and beside a bulk client, plus shed time."""
    seconds = seconds or _seconds()
    child = ReplicaProcess(model=MODEL, startup_timeout=120.0)
    bulk: Optional[Dict[str, object]] = None
    try:
        host, port = _host_port(child.start())
        with NormClient.connect(host, port, timeout=30.0) as client, NormClient.connect(
            host, port, timeout=30.0, retry_policy=RetryPolicy(max_attempts=1)
        ) as probe:
            client.wait_until_ready()
            small = SmallClient(client, seed)
            small.run(min(1.0, seconds))  # warm-up: caches, engine compile
            phases = {"small_alone": _summary(small.run(seconds))}
            process = _start_bulk_client(f"{host}:{port}", seed + 1)
            try:
                phases["small_beside_bulk"] = _summary(small.run(seconds))
                phases["shed_beside_bulk"] = _summary(small.run_shed(probe, seconds))
            finally:
                bulk = _stop_bulk_client(process)
    finally:
        child.stop()
    return {
        "model": MODEL,
        "bulk_frame": f"{BULK_TENSORS} x {BULK_ROWS} rows",
        "seconds_per_phase": seconds,
        "phases": phases,
        "bulk_client": bulk,
        "failures": small.failures,
        "correct": not small.failures and bulk["failed"] == 0 and bulk["exit_code"] == 0,
    }


def _report(result: Dict[str, object]) -> None:
    print(
        f"{result['model']}: 1-row lock-step client beside {result['bulk_frame']} "
        f"normalize_bulk frames, {result['seconds_per_phase']:g} s per phase"
    )
    for name, phase in result["phases"].items():
        print(
            f"  {name:>18}: p50 {phase['p50_ms']:7.3f} ms  p99 {phase['p99_ms']:7.3f} ms  "
            f"mean {phase['mean_ms']:7.3f} ms  (n={phase['requests']})"
        )
    bulk = result["bulk_client"]
    print(f"  bulk client: {bulk['frames']} frames, {bulk['rows_per_s']:.0f} rows/s")
    print(f"  every response correct: {result['correct']}")
    for failure in result["failures"][:10]:
        print(f"    {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=None, help="length of each phase")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, help="write the result JSON here")
    parser.add_argument("--bulk-client", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.bulk_client is not None:
        return bulk_client(args.bulk_client, args.seed)

    result = bench_mixed_sizes(seconds=args.seconds, seed=args.seed)
    _report(result)
    if args.output:
        payload = {
            "bench": "bench_mixed_sizes",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "results": result,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
