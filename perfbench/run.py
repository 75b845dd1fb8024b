"""The repository's serving benchmark: one command, two closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload decode-lockstep --seed 1 --seconds 36 --trace 0

It starts ``haan-serve --listen`` (default flags, code unchanged) as a
child process, pins it and this load generator to one CPU (see :func:`placement`),
drives it through one ``NormClient`` connection, checks every response
bit-for-bit against the ``reference`` backend, and prints each metric by
name with its unit and sample count.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, from three server instances
measured one after the other (``--seconds`` split between them).
``--trace 1`` reports the per-layer metrics: one untraced instance (set-up
split, wire and scheduler counters, response fields) and one traced
instance (:mod:`traced_server`), both live, measured in alternating
windows of ``--seconds / 8`` each.  See
``perfbench/README.md`` for every metric's definition and predictions.

The exit code is 0 only when every request succeeded and every response
was bit-identical; it is 2 when the directory holds no ``src/repro`` to
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import traceback
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

import procfs
from measure import SLICE_REQUESTS, SLICE_S, percentile, slice_mean, uncovered_time
from server import ServerProcess
from tracing import SpanStore, install_client
from workloads import WORKLOADS, Loop

ROOT = os.getcwd()
WARMUP_S = 1.0
INSTANCES = 3
#: Untraced/traced window pairs of a traced run.
ROUNDS = 4
OUT_DIR = ".perfbench_runs"

#: name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "rows_per_s": "rows/s",
    "server_cpu_us_per_row": "us",
    "client_cpu_us_per_row": "us",
    "server_rss_mb": "MiB",
}

#: name -> unit of the per-layer metrics (``--trace 1``).
PER_LAYER = {
    "setup.import_s": "s",
    "setup.calibrate_s": "s",
    "setup.ready_s": "s",
    "api.client.encode_us": "us",
    "api.client.decode_us": "us",
    "api.server.loop_cpu_us_per_req": "us",
    "api.server.executor_cpu_us_per_req": "us",
    "api.server.executor_hops_per_req": "count",
    "api.server.ctx_switches_per_req": "count",
    "api.server.handler_us": "us",
    "api.codec.decode_us_per_frame": "us",
    "api.codec.encode_us_per_frame": "us",
    "wire.bytes_per_row": "bytes",
    "serving.queue_wait_us": "us",
    "serving.batch_requests": "count",
    "serving.scheduler_cpu_us_per_req": "us",
    "serving.telemetry_us_per_batch": "us",
    "serving.registry_hit_rate": "frac",
    "engine.run_us_per_row": "us",
    "engine.busy_frac": "frac",
    "engine.predicted_row_frac": "frac",
    "trace.overhead_pct": "%",
    "trace.unattributed_us_per_req": "us",
}

Metrics = Dict[str, Tuple[float, int]]  # name -> (value, sample count)


def placement(allowed: List[int]) -> Optional[Set[int]]:
    """The one CPU, out of the ``allowed`` ones, that the server and the
    load generator share, or ``None`` (unpinned) when only one is allowed.

    The server's threads then never hand the GIL across CPUs.  In a
    lock-step loop the generator is blocked through every round trip, so a
    CPU of its own would add only cross-CPU wake-ups: on a 2-vCPU VM the
    disjoint placement drew 1-16 % host steal against under 3 % shared,
    and its decode-lockstep p90 ranged 3.1-6.5 ms against 2.5-2.6 ms.
    """
    return {allowed[1]} if len(allowed) >= 2 else None


def _cpu_list(cpus: Optional[Set[int]]) -> Optional[str]:
    return None if cpus is None else ",".join(str(c) for c in sorted(cpus))


# -- end-to-end (--trace 0) ----------------------------------------------------


def run_end_to_end(loop, seconds: float, server_cpus, record: dict) -> Metrics:
    samples, setups, rss = [], [], []
    for _ in range(INSTANCES):
        with ServerProcess(ROOT, loop.workload.model, server_cpus) as server:
            if not loop.expected:
                loop.build_golden(server.client)
            loop.run(server.client, WARMUP_S)
            samples.append(loop.run(server.client, seconds / INSTANCES, server.pid))
            rss.append(procfs.peak_rss_mib(server.pid))
            setups.append(server.setup.total_s)
    slices = [piece for sample in samples for piece in sample.slices]
    requests = sum(piece.requests for piece in slices)
    rows = sum(piece.rows for piece in slices)
    record["steal"] = [round(s.steal, 5) for s in samples]
    record["slices"] = len(slices)

    def over_slices(metric) -> float:
        return slice_mean(slices, metric)

    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "p50_ms": (over_slices(lambda p: percentile(p.latencies_s, 50)) * 1e3, requests),
        "p90_ms": (over_slices(lambda p: percentile(p.latencies_s, 90)) * 1e3, requests),
        "rows_per_s": (over_slices(lambda p: p.rows_per_s), rows),
        "server_cpu_us_per_row": (over_slices(lambda p: p.server_cpu_us_per_row), rows),
        "client_cpu_us_per_row": (over_slices(lambda p: p.client_cpu_us_per_row), rows),
        "server_rss_mb": (statistics.median(rss), len(rss)),
    }


# -- per-layer (--trace 1) -----------------------------------------------------


def _workload_connection(telemetry: dict) -> dict:
    """The wire entry of the connection that carried the most frames."""
    connections = telemetry["telemetry"]["wire"]["per_connection"]
    return max(connections, key=lambda c: c["frames"])


def run_per_layer(loop, seconds: float, server_cpus, record: dict) -> Metrics:
    """An untraced and a traced server, both live, measured in alternating
    windows, so host drift hits both alike and ``trace.overhead_pct`` is a
    median over :data:`ROUNDS` adjacent pairs of windows."""
    from repro.api.client import NormClient

    window_s = seconds / (2 * ROUNDS)
    metrics: Metrics = {}
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    trace_path = os.path.join(ROOT, OUT_DIR, f"trace-{os.getpid()}.json")
    store = SpanStore()
    plain_runs, traced_runs = [], []
    try:
        with ServerProcess(ROOT, loop.workload.model, server_cpus) as plain, ServerProcess(
            ROOT, loop.workload.model, server_cpus, traced=True, trace_out=trace_path
        ) as traced, NormClient.connect("127.0.0.1", plain.port) as control:
            loop.build_golden(plain.client)
            loop.run(plain.client, WARMUP_S)
            loop.run(traced.client, WARMUP_S)
            before = control.telemetry()
            for _ in range(ROUNDS):
                plain_runs.append(loop.run(plain.client, window_s, plain.pid))
                traced.mark()
                patcher = install_client(store)
                try:
                    traced_runs.append(loop.run(traced.client, window_s, traced.pid))
                finally:
                    patcher.undo()
                traced.mark()
            after = control.telemetry()
            setup = plain.setup
        with open(trace_path) as handle:
            trace = json.load(handle)
    finally:
        if os.path.exists(trace_path):
            os.remove(trace_path)

    # Untraced: set-up split, wire/registry counters, response fields.
    metrics["setup.import_s"] = (setup.import_s, 1)
    metrics["setup.calibrate_s"] = (setup.calibrate_s, 1)
    metrics["setup.ready_s"] = (setup.ready_s, 1)
    wire_after = _workload_connection(after)
    wire_before = next(
        c for c in before["telemetry"]["wire"]["per_connection"]
        if c["id"] == wire_after["id"]
    )
    # Frames, not window rows: the requests drained after each window are
    # on the wire too.
    wire_bytes = sum(wire_after[k] - wire_before[k] for k in ("bytes_in", "bytes_out"))
    wire_rows = (wire_after["frames"] - wire_before["frames"]) * loop.workload.rows_per_request
    metrics["wire.bytes_per_row"] = (wire_bytes / wire_rows, wire_rows)
    waits = [w for run in plain_runs for w in run.queue_waits_s]
    metrics["serving.queue_wait_us"] = (statistics.median(waits) * 1e6, len(waits))
    sizes = [b for run in plain_runs for b in run.batch_sizes]
    metrics["serving.batch_requests"] = (statistics.fmean(sizes), len(sizes))
    hits = after["registry"]["hits"] - before["registry"]["hits"]
    misses = after["registry"]["misses"] - before["registry"]["misses"]
    metrics["serving.registry_hit_rate"] = (hits / max(1, hits + misses), hits + misses)
    rows = sum(run.window.rows for run in plain_runs)
    predicted = sum(run.rows_predicted for run in plain_runs)
    metrics["engine.predicted_row_frac"] = (predicted / rows, rows)

    # Traced: spans of both sides inside the traced windows, thread counters
    # between the marks that bracket each of them.
    intervals = [run.interval for run in traced_runs]
    spans = [
        span for span in store.spans + [tuple(s) for s in trace["spans"]]
        if any(low <= span[1] and span[2] <= high for low, high in intervals)
    ]
    requests = sum(run.window.requests for run in traced_runs)
    total: Counter = Counter()
    count: Counter = Counter()
    span_rows: Counter = Counter()
    for name, start, end, _rid, nrows in spans:
        total[name] += end - start
        count[name] += 1
        span_rows[name] += nrows
    marks = trace["marks"]

    def thread_delta(prefix: str, key: str = "cpu_s") -> float:
        return sum(
            stats[key] - first["threads"].get(name, {}).get(key, 0)
            for first, last in zip(marks[0::2], marks[1::2])
            for name, stats in last["threads"].items()
            if name.startswith(prefix)
        )

    per_request = {
        "api.client.encode_us": total["client.encode"] * 1e6,
        "api.client.decode_us": total["client.decode"] * 1e6,
        "api.server.loop_cpu_us_per_req": thread_delta("haan-async-server") * 1e6,
        "api.server.executor_cpu_us_per_req": thread_delta("haan-async-worker") * 1e6,
        "api.server.executor_hops_per_req": count["executor.submit"],
        "api.server.ctx_switches_per_req": thread_delta("", "voluntary_switches"),
        "api.server.handler_us": total["handler"] * 1e6,
        "api.codec.decode_us_per_frame": total["codec.decode"] * 1e6,
        "api.codec.encode_us_per_frame": total["codec.encode"] * 1e6,
        "serving.scheduler_cpu_us_per_req": thread_delta("haan-continuous-batcher") * 1e6,
        "trace.unattributed_us_per_req": uncovered_time(
            [root for run in traced_runs for root in run.roots], [(s[1], s[2]) for s in spans]
        ) * 1e6,
    }
    for name, value in per_request.items():
        metrics[name] = (value / requests, requests)
    batches, engine_rows = count["telemetry"], span_rows["engine"]
    metrics["serving.telemetry_us_per_batch"] = (
        total["telemetry"] / max(1, batches) * 1e6, batches
    )
    metrics["engine.run_us_per_row"] = (total["engine"] / max(1, engine_rows) * 1e6, engine_rows)
    busy = sum(run.window.busy_s for run in traced_runs)
    metrics["engine.busy_frac"] = (total["engine"] / busy, count["engine"])
    overheads = [
        (p.window.rows_per_s - t.window.rows_per_s) / p.window.rows_per_s * 100.0
        for p, t in zip(plain_runs, traced_runs)
    ]
    metrics["trace.overhead_pct"] = (statistics.median(overheads), len(overheads))
    record["steal"] = [round(run.steal, 5) for run in plain_runs + traced_runs]
    record["skipped_layers"] = f"{len(loop.skipped_layers)}/{loop.period}"
    return metrics


# -- command -------------------------------------------------------------------


def run_workload(name: str, args: argparse.Namespace, allowed: List[int]) -> bool:
    """Run one workload, print its report and result line; True if correct."""
    cpus = placement(allowed)
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    record = {"machine": procfs.machine_record(_cpu_list(cpus), _cpu_list(cpus))}
    loop = Loop(WORKLOADS[name], args.seed)
    if args.trace:
        metrics, units = run_per_layer(loop, args.seconds, cpus, record), PER_LAYER
    else:
        metrics, units = run_end_to_end(loop, args.seconds, cpus, record), END_TO_END

    tally = loop.tally
    machine = record["machine"]
    print(
        f"# {name} seed={args.seed} trace={args.trace}: cpu {machine['cpu_model']}, "
        f"nproc {machine['nproc']}, client cpus {machine['client_cpus']}, server cpus "
        f"{machine['server_cpus']}, python {machine['python']}, numpy {machine['numpy']}, "
        f"host steal {', '.join(f'{s:.2%}' for s in record['steal'])}"
    )
    print(
        f"# requests: {tally.attempted} sent, "
        f"{tally.attempted - tally.failed - tally.mismatched} succeeded, "
        f"{tally.failed} failed, {tally.mismatched} not bit-identical to reference"
    )
    for error in tally.errors:
        print(f"# error: {error}")
    if "skipped_layers" in record:
        print(f"# layers on the eq. (3) predicted path: {record['skipped_layers']} of the rotation")
    if "slices" in record:
        print(f"# timings are means over {record['slices']} slices of >= "
              f"{SLICE_S:g} s and >= {SLICE_REQUESTS} requests")
    for metric, unit in units.items():
        value, samples = metrics[metric]
        print(f"{metric:<40} {value:>14.6g} {unit:<7} n={samples}")
    correct = tally.failed == 0 and tally.mismatched == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.mismatched,
        "metrics": {m: {"value": metrics[m][0], "unit": unit} for m, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serving", "cli.py")):
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Exit through the with-blocks on SIGTERM, so every server child stops.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    allowed = sorted(os.sched_getaffinity(0))
    correct = True
    for name in names:
        try:
            correct = run_workload(name, args, allowed) and correct
        except Exception:  # noqa: BLE001 -- report and fail without a result line
            traceback.print_exc()
            return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
