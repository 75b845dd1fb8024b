"""A benchmark-only backend whose batches cost a fixed wall-clock time per row.

The serving benchmarks that measure a *policy* -- admission shedding in
``bench_overload.py``, tenant quotas in ``bench_tenancy.py`` -- need a
server whose capacity is known and does not depend on how fast the host
runs numpy.  A backend that sleeps ``row_s`` for every row of a batch
before computing it gives one engine a throughput of ``1 / row_s`` rows
per second, so with ``rows`` rows per request one server caps at

    capacity = 1 / (row_s * rows)   requests per second

on any host fast enough to do the real work inside that time.  The cost
scales with the batch, as a real kernel's does: a batch of one request
holds the engine for one request's time, so a request that arrives while
a neighbour's batch runs waits for that batch only, not for a fixed tick.
The sleep releases the GIL, so clients in the same process keep sending,
and the outputs (and cost records) are the wrapped backend's, bit for bit.
"""

from __future__ import annotations

import time

from repro.engine.registry import register_backend


def register_row_cost(name: str, base: type, row_s: float) -> str:
    """Register backend ``name``: ``base`` plus a ``row_s`` sleep per batch row."""

    class RowCostBackend(base):
        def run(self, plan, rows, *args, **kwargs):
            time.sleep(row_s * rows.shape[0])
            return super().run(plan, rows, *args, **kwargs)

    RowCostBackend.name = name
    register_backend(name, RowCostBackend)
    return name
