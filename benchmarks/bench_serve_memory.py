"""Peak resident memory of a ``haan-serve`` replica, per zoo model.

For each model in :func:`repro.llm.config.available_models` the script
starts one ``haan-serve --listen`` child (which calibrates the model at
start-up), sends it one ``normalize`` request and golden-checks the
response against the ``reference`` engine built from the fetched spec.
It then reads the child's peak resident set size (``VmHWM`` in
``/proc/<pid>/status``) and stops it.  Children run one at a time.

A replica keeps only the normalization layers it serves: calibration draws,
runs and drops one transformer block at a time.  The per-model bounds in
:data:`PEAK_RSS_BOUND_MIB` catch a replica that holds the calibrated
model's projection weights again (llama-7b: ~158 MiB of them).

It exits 1 when a child's peak is above its model's bound or a response is
not bit-identical.  Runs standalone (Linux, reads ``/proc``)::

    PYTHONPATH=src python benchmarks/bench_serve_memory.py --output serve_memory.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro.api.client import NormClient
from repro.engine.registry import build
from repro.fleet.supervisor import ReplicaProcess
from repro.llm.config import available_models

#: Most peak RSS a replica may reach per model (MiB): about 15 MiB above
#: what a 2-vCPU x86-64 VM read (Python 3.11, NumPy 2.4: tiny 45.5,
#: gpt2-117m 47.0, gpt2-355m 47.3, gpt2-1.5b 51.6, llama-7b 55.9,
#: opt-2.7b 58.1).  A replica that kept its calibrated model read 67-245.
PEAK_RSS_BOUND_MIB: Dict[str, float] = {
    "tiny": 60.0,
    "tiny-rms": 60.0,
    "gpt2-117m": 60.0,
    "gpt2-355m": 62.0,
    "gpt2-1.5b": 70.0,
    "opt-2.7b": 75.0,
    "llama-7b": 75.0,
}
#: Bound for a model registered after this table was written.
DEFAULT_BOUND_MIB = 75.0


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def measure(model: str) -> Dict[str, object]:
    """Start a replica for ``model``, golden-check one request, read its peak RSS."""
    child = ReplicaProcess(model=model, startup_timeout=180.0)
    try:
        host, port = child.start().rsplit(":", 1)
        with NormClient.connect(host, int(port), timeout=60.0) as client:
            client.wait_until_ready(120)
            served = client.fetch_spec(model)
            rows = np.random.default_rng(0).normal(0.0, 1.0, (4, served.hidden_size))
            result = client.normalize(rows, model)
            golden = build(served.spec, backend="reference", gamma=served.gamma, beta=served.beta)
            correct = np.array_equal(result.output, golden.run(rows)[0])
        peak = peak_rss_mib(child.pid)
    finally:
        child.stop()
    bound = PEAK_RSS_BOUND_MIB.get(model, DEFAULT_BOUND_MIB)
    return {
        "peak_rss_mib": round(peak, 1),
        "bound_mib": bound,
        "hidden_size": served.hidden_size,
        "num_layers": served.num_layers,
        "correct": bool(correct),
        "within_bound": peak <= bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=None, help="write the result JSON here")
    args = parser.parse_args(argv)
    models = {}
    for model in available_models():
        models[model] = measure(model)
        entry = models[model]
        print(
            f"{model:>10}: peak RSS {entry['peak_rss_mib']:6.1f} MiB "
            f"(bound {entry['bound_mib']:.0f}), {entry['num_layers']} layers, "
            f"golden check {'ok' if entry['correct'] else 'FAILED'}"
        )
    result = {
        "models": models,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    failed = [m for m, e in models.items() if not (e["correct"] and e["within_bound"])]
    if failed:
        print(f"FAIL: {', '.join(failed)} over the peak-RSS bound or not bit-identical")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
