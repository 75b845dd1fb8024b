"""The layer ladder: one 1-row request through each layer of the stack.

The same 1-row ``tiny`` request (layer 1, the shape of perfbench's
``decode-lockstep`` workload) runs through each layer in turn, so the
difference between two rungs is what the layer between them costs:

* ``engine.run`` -- the compiled engine alone, called as the service calls
  it (segment starts, pooled workspace, caller-owned output);
* ``service.normalize`` -- the service: request, scheduler, batch of one,
  telemetry;
* ``client.in_process`` -- ``NormClient.in_process``: envelopes and the
  API handler on top;
* ``client.tcp`` -- ``NormClient.connect`` against a ``haan-serve --listen``
  child: the wire codec, the socket and the async server core.  Its CPU is
  the child process's (all its threads), read from ``/proc``.

Each rung reports the median over ``--runs`` runs of the thread CPU per
call (``time.thread_time``), each run ``--calls`` calls after a warm-up.
``engine.run`` and ``service.normalize`` run alternately, and their
difference is the median of the per-run differences.
The script also times the HAAN stages inside
:func:`~repro.numerics.kernels.haan_normalize_rows` at 1 and 1024 rows --
storage round trip, statistics, inverse square root (with the plan's
refinement), affine -- beside the fused call, with the served layer's spec.

It exits 1 when ``service.normalize`` costs more than
:data:`SERVICE_OVERHEAD_FLOOR_US` of thread CPU above ``engine.run``, or
when a response is not bit-identical to the ``reference`` backend.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_layer_ladder.py --output ladder.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.api.client import NormClient
from repro.fleet.supervisor import ReplicaProcess
from repro.numerics import kernels
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService

MODEL = "tiny"
LAYER = 1
#: Most thread CPU ``service.normalize`` may add to ``engine.run`` (µs).
SERVICE_OVERHEAD_FLOOR_US = 50.0


def _per_call_us(call: Callable[[], object], calls: int, cpu=time.thread_time) -> float:
    """CPU per call over ``calls`` calls, in µs."""
    start = cpu()
    for _ in range(calls):
        call()
    return 1e6 * (cpu() - start) / calls


def _summary(per_call: List[float], calls: int) -> Dict[str, float]:
    quartiles = np.percentile(per_call, [25, 75])
    return {
        "median_us": statistics.median(per_call),
        "iqr_us": float(quartiles[1] - quartiles[0]),
        "runs": len(per_call),
        "calls_per_run": calls,
    }


def _median_us(
    call: Callable[[], object], calls: int, runs: int, cpu=time.thread_time
) -> Dict[str, float]:
    """Median (and spread) over ``runs`` of the CPU per call, in µs."""
    _per_call_us(call, min(calls, 200), cpu)  # warm-up: caches, lazy compiles
    return _summary([_per_call_us(call, calls, cpu) for _ in range(runs)], calls)


def _process_cpu_s(pid: int) -> float:
    """CPU seconds of every thread of process ``pid`` (``/proc`` schedstat)."""
    total_ns = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total_ns += int(handle.read().split()[0])
        except OSError:
            pass  # the thread ended meanwhile
    return total_ns * 1e-9


def _check(response_output, expected) -> None:
    if not np.array_equal(response_output, expected):
        raise SystemExit("a response is not bit-identical to the reference backend")


def ladder(calls: int, runs: int, seed: int) -> Dict[str, object]:
    """Thread CPU per 1-row request at each rung of the stack."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 1.0, size=(1, 64)) * 2.0 + 0.3
    registry = CalibrationRegistry()
    layer = registry.get(MODEL).layer(LAYER)
    expected = layer.engine_for("reference").run(rows)[0]
    rungs: Dict[str, Dict[str, float]] = {}

    engine = layer.engine_for("vectorized")
    workspace = kernels.KernelWorkspace()
    starts = np.zeros(1, dtype=np.int64)
    service = NormalizationService(registry=registry)
    try:
        run_engine = lambda: engine.run(  # noqa: E731
            rows, starts, None, workspace=workspace, out=np.empty(rows.shape)
        )
        normalize = lambda: service.normalize(rows, MODEL, layer_index=LAYER)  # noqa: E731
        _check(run_engine()[0], expected)
        _check(normalize().output, expected)
        # The two rungs alternate run by run, so a drift of the host's
        # speed moves both sides of each run's difference alike.
        paired = {"engine.run": [], "service.normalize": []}
        for call in (run_engine, normalize):
            _per_call_us(call, min(calls, 200))
        for _ in range(runs):
            paired["engine.run"].append(_per_call_us(run_engine, calls))
            paired["service.normalize"].append(_per_call_us(normalize, calls))
        for name, per_call in paired.items():
            rungs[name] = _summary(per_call, calls)
        overhead = [
            served - kernel
            for served, kernel in zip(paired["service.normalize"], paired["engine.run"])
        ]
        rungs["service.normalize"]["minus_engine_run_us"] = statistics.median(overhead)
        client = NormClient.in_process(service=service)
        _check(client.normalize(rows, MODEL, layer_index=LAYER).output, expected)
        rungs["client.in_process"] = _median_us(
            lambda: client.normalize(rows, MODEL, layer_index=LAYER), calls, runs
        )
    finally:
        service.close()

    child = ReplicaProcess(model=MODEL)
    try:
        host, port = child.start().rsplit(":", 1)
        with NormClient.connect(host, int(port), timeout=30.0) as remote:
            remote.wait_until_ready()
            _check(remote.normalize(rows, MODEL, layer_index=LAYER).output, expected)
            call = lambda: remote.normalize(rows, MODEL, layer_index=LAYER)  # noqa: E731
            rungs["client.tcp"] = _median_us(
                call, calls, runs, cpu=lambda: _process_cpu_s(child.pid)
            )
            rungs["client.tcp"]["client_thread_median_us"] = _median_us(
                call, calls, runs
            )["median_us"]
    finally:
        child.stop()
    return rungs


def stages(rows_count: int, calls: int, runs: int, seed: int) -> Dict[str, Dict[str, float]]:
    """The HAAN stages of the served layer's fused kernel, one at a time."""
    rng = np.random.default_rng(seed)
    plan = CalibrationRegistry().get(MODEL).layer(LAYER).plan
    spec = plan.spec
    if spec.skipped or spec.is_rms or spec.storage not in ("fp16", "fp32"):
        raise SystemExit(f"stage timing expects a computed LayerNorm layer; got {spec}")
    storage = np.float16 if spec.storage == "fp16" else np.float32
    rows = rng.normal(0.0, 1.0, size=(rows_count, spec.hidden_size))
    workspace = kernels.KernelWorkspace()
    quantized = np.empty_like(rows)
    kernels.float_round_trip_rows(rows, storage, out=quantized, workspace=workspace)
    sub = kernels._subsample_view(
        quantized, spec.subsample_length or spec.hidden_size, spec.subsample_policy
    )
    mean = kernels.rowwise_mean(sub)
    variance = kernels.rowwise_variance(sub, workspace, mean=mean)
    out = np.empty_like(rows)

    def inverse_sqrt():
        return plan.refine_isd(kernels.inv_sqrt_stat(variance.copy(), spec.eps))

    isd = inverse_sqrt()
    timed = {
        "storage_round_trip": lambda: kernels.float_round_trip_rows(
            rows, storage, out=quantized, workspace=workspace
        ),
        "statistics": lambda: kernels.rowwise_variance(
            sub, workspace, mean=kernels.rowwise_mean(sub)
        ),
        "inverse_sqrt": inverse_sqrt,
        "affine": lambda: kernels.normalize_affine(
            quantized, mean, isd, plan.gamma, plan.beta, out=out
        ),
        "fused": lambda: kernels.haan_normalize_rows(
            rows,
            plan.gamma,
            plan.beta,
            storage=spec.storage,
            eps=spec.eps,
            subsample_length=spec.subsample_length,
            subsample_policy=spec.subsample_policy,
            subsample_mean=spec.subsample_mean,
            refine_isd=plan.refine_isd,
            workspace=workspace,
            out=out,
        ),
    }
    scaled = max(1, calls // max(1, rows_count // 16))
    return {name: _median_us(fn, scaled, runs) for name, fn in timed.items()}


def _report(result: Dict[str, object]) -> None:
    print(f"layer ladder: 1-row {MODEL} request (thread CPU per call, median)")
    for name, rung in result["rungs"].items():
        print(f"  {name:20s} {rung['median_us']:9.1f} us  (IQR {rung['iqr_us']:.1f})")
    print(
        f"  service.normalize - engine.run = {result['service_overhead_us']:.1f} us "
        f"(floor {SERVICE_OVERHEAD_FLOOR_US:.0f} us)"
    )
    for rows_count, timed in result["stages"].items():
        print(f"HAAN stages at {rows_count} row(s):")
        for name, stage in timed.items():
            print(f"  {name:20s} {stage['median_us']:9.1f} us")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=2000, help="calls per run")
    parser.add_argument("--runs", type=int, default=7, help="runs per rung")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, help="write the result JSON here")
    args = parser.parse_args(argv)
    rungs = ladder(args.calls, args.runs, args.seed)
    overhead = rungs["service.normalize"]["minus_engine_run_us"]
    result = {
        "model": MODEL,
        "layer": LAYER,
        "rungs": rungs,
        "service_overhead_us": overhead,
        "service_overhead_floor_us": SERVICE_OVERHEAD_FLOOR_US,
        "stages": {
            str(count): stages(count, args.calls, args.runs, args.seed) for count in (1, 1024)
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }
    _report(result)
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    if overhead > SERVICE_OVERHEAD_FLOOR_US:
        print(
            f"FAIL: service.normalize adds {overhead:.1f} us to engine.run "
            f"(> {SERVICE_OVERHEAD_FLOOR_US:.0f} us)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
