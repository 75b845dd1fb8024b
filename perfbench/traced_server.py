"""``haan-serve`` with the benchmark's timing wrappers installed.

Usage (from the repository root; the benchmark starts it)::

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/traced_server.py \\
        --listen 127.0.0.1:0 --model tiny

The wrappers from :mod:`tracing` go in first, then
``repro.serving.cli.main`` runs unchanged with the given arguments.  Each
SIGUSR1 takes a mark: the time plus every thread's CPU and context
switches, acknowledged with a ``perfbench: mark N`` line on stdout.  When
``main`` returns (SIGTERM), the marks and the spans between the first and
last mark are written to ``$PERFBENCH_TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402  (sibling module; the script's directory is on sys.path)


def main() -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    store = tracing.SpanStore()
    tracing.install_server(store)
    marks = []

    def on_mark(_signum, _frame) -> None:
        marks.append({"t": perf_counter(), "threads": tracing.thread_snapshot()})
        print(f"perfbench: mark {len(marks)}", flush=True)

    signal.signal(signal.SIGUSR1, on_mark)
    from repro.serving import cli

    code = cli.main(sys.argv[1:])
    low = marks[0]["t"] if marks else float("-inf")
    high = marks[-1]["t"] if marks else float("inf")
    spans = [span for span in store.spans if low <= span[1] and span[2] <= high]
    with open(out_path, "w") as handle:
        json.dump({"marks": marks, "spans": spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
