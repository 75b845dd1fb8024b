"""The two closed-loop workloads, their seeded inputs and golden check.

Every workload is one ``NormClient`` over one connection, lock-step: the
next request goes out when the previous one has been answered, as a decode
step waits for its norm.  Inputs come from ``--seed`` only: a pool of
payloads, cycled.  The golden check compares each response bit-for-bit
(output, mean and ISD bytes, dtype and shape) with the ``reference``
engine built from the served spec, through digests computed before the
first request.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import procfs
from measure import SLICE_REQUESTS, SLICE_S, Window, merge_windows


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    hidden: int
    #: ``normalize_bulk`` frames of this many tensors (0: ``normalize``).
    bulk_tensors: int
    rows_per_tensor: int
    #: Payloads in the seeded pool the loop cycles through.
    pool: int
    #: Fixed layer, or ``None`` to rotate over every layer of the model.
    layer: Optional[int]

    @property
    def rows_per_request(self) -> int:
        return max(1, self.bulk_tensors) * self.rows_per_tensor


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decode-lockstep",
            why="1-row normalize, one request in flight: per-request fixed cost "
            "(hops, scheduler release, codec) sets the round trip",
            model="tiny", hidden=64, bulk_tensors=0, rows_per_tensor=1,
            pool=512, layer=1,
        ),
        Workload(
            name="prefill-bulk",
            why="normalize_bulk frames of 16 x 64-row tensors rotating over all 64 "
            "llama-7b layers (skip range too): kernel and tensor codec dominate",
            model="llama-7b", hidden=256, bulk_tensors=16, rows_per_tensor=64,
            pool=4, layer=None,
        ),
    )
}


def make_payloads(workload: Workload, seed: int) -> List[List[np.ndarray]]:
    """The seeded payload pool: ``pool`` requests of tensors each."""
    rng = np.random.default_rng(seed)
    tensors = max(1, workload.bulk_tensors)
    return [
        [
            rng.normal(0.0, 1.0, (workload.rows_per_tensor, workload.hidden))
            * rng.uniform(0.5, 4.0, (workload.rows_per_tensor, 1))
            + rng.normal(0.0, 0.5)
            for _ in range(tensors)
        ]
        for _ in range(workload.pool)
    ]


def digest(results: Sequence) -> int:
    """CRC-32 of every array's dtype, shape and bytes, in order.

    A checksum, not a cryptographic hash: it guards against numerics that
    drift, not against forgery, and it is 4-5x cheaper than BLAKE2 on a
    2 MiB bulk response, which keeps the check's share of a run small.
    """
    crc = 0
    for result in results:
        for array in (result.output, result.mean, result.isd):
            crc = zlib.crc32(f"{array.dtype.str}{array.shape}".encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(array).data, crc)
    return crc


@dataclass(frozen=True)
class _Golden:
    output: np.ndarray
    mean: np.ndarray
    isd: np.ndarray


@dataclass
class Tally:
    """Requests sent, failed and mismatched over every loop of a run."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class Sample:
    """What one measured window saw, beyond its :class:`Window` counters."""

    slices: List[Window]
    window: Window
    queue_waits_s: List[float]
    batch_sizes: List[int]
    rows_predicted: int
    steal: float
    interval: Tuple[float, float]
    roots: List[Tuple[float, float]]


class Loop:
    """Closed-loop load generator for one workload and one seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.payloads = make_payloads(workload, seed)
        self.expected: Dict[Tuple[int, int], int] = {}
        self.num_layers = 0
        #: Layers the loop sends to whose served spec is skipped (eq. 3).
        self.skipped_layers: List[int] = []
        self.tally = Tally()
        self._next = 0

    @property
    def period(self) -> int:
        """Requests after which the layer sequence repeats."""
        return self.num_layers if self.workload.layer is None else 1

    def request_key(self, index: int) -> Tuple[int, int]:
        """``(payload, layer)`` of the ``index``-th request of the loop."""
        layer = self.workload.layer
        if layer is None:
            layer = index % self.num_layers
        return index % self.workload.pool, layer

    def build_golden(self, client) -> None:
        """Fetch the served specs and digest the ``reference`` backend's
        answer for every (payload, layer) pair the loop will send."""
        from repro.engine.registry import build

        model = self.workload.model
        first = client.fetch_spec(model, layer_index=self.workload.layer or 0)
        self.num_layers = first.num_layers
        if self.workload.layer is not None and first.spec.skipped:
            raise ValueError(f"layer {self.workload.layer} of {model} is skipped")
        period = self.workload.pool if self.workload.layer is not None else int(
            np.lcm(self.workload.pool, self.num_layers)
        )
        engines = {}
        for index in range(period):
            payload, layer = self.request_key(index)
            if layer not in engines:
                served = client.fetch_spec(model, layer_index=layer)
                engines[layer] = build(
                    served.spec, backend="reference", gamma=served.gamma, beta=served.beta
                )
                if served.spec.skipped:
                    self.skipped_layers.append(layer)
            engine = engines[layer]
            answers = [_Golden(*engine.run(rows)) for rows in self.payloads[payload]]
            self.expected[(payload, layer)] = digest(answers)

    # -- issuing ---------------------------------------------------------------

    def _send(self, client, index: int) -> list:
        payload, layer = self.request_key(index)
        tensors = self.payloads[payload]
        if self.workload.bulk_tensors:
            return client.normalize_bulk(tensors, self.workload.model, layer_index=layer)
        return [client.normalize(tensors[0], self.workload.model, layer_index=layer)]

    def run(
        self, client, seconds: float, server_pid: Optional[int] = None,
    ) -> Sample:
        """Run the closed loop for ``seconds`` of busy time, in whole slices.

        A slice closes once it holds :data:`SLICE_S` of busy time and
        :data:`SLICE_REQUESTS` requests, after a whole number of layer
        rotations, so every layer has the same share of it.  The loop stops
        at the first slice boundary past ``seconds``.

        Each response is checked against its golden digest after its round
        trip has been timed.  The server is idle meanwhile (nothing else is
        in flight), so the check's wall time and CPU time leave the window
        ("paused").
        """
        slices: List[Window] = []
        queue_waits: List[float] = []
        batch_sizes: List[int] = []
        roots: List[Tuple[float, float]] = []
        rows_predicted = 0
        steal0 = procfs.host_cpu_times()

        def server_cpu() -> float:
            return procfs.process_cpu_s(server_pid) if server_pid else 0.0

        start = perf_counter()
        cut = (start, process_time(), server_cpu())
        latencies: List[float] = []
        paused = golden_cpu = busy = 0.0
        while busy < seconds:
            index = self._next
            self._next += 1
            self.tally.attempted += 1
            sent = perf_counter()
            try:
                results = self._send(client, index)
            except Exception as error:  # noqa: BLE001 -- counted, run goes on
                self._fail(error)
                continue
            done = perf_counter()
            latencies.append(done - sent)
            roots.append((sent, done))
            check_cpu = process_time()
            self._check(index, results)
            for result in results:
                queue_waits.append(result.queue_wait)
                batch_sizes.append(result.batch_size)
                if result.was_predicted:
                    rows_predicted += result.output.shape[0]
            golden_cpu += process_time() - check_cpu
            now = perf_counter()
            paused += now - done
            if (
                now - cut[0] - paused >= SLICE_S
                and len(latencies) >= SLICE_REQUESTS
                and len(latencies) % self.period == 0
            ):
                cpu, server = process_time(), server_cpu()
                slices.append(Window(
                    wall_s=now - cut[0], paused_s=paused, requests=len(latencies),
                    rows=len(latencies) * self.workload.rows_per_request,
                    client_cpu_s=cpu - cut[1] - golden_cpu, server_cpu_s=server - cut[2],
                    latencies_s=latencies,
                ))
                busy += slices[-1].busy_s
                cut = (now, cpu, server)
                latencies, paused, golden_cpu = [], 0.0, 0.0
        return Sample(
            slices=slices, window=merge_windows(slices), queue_waits_s=queue_waits,
            batch_sizes=batch_sizes, rows_predicted=rows_predicted,
            steal=procfs.steal_share(steal0, procfs.host_cpu_times()),
            interval=(start, cut[0]), roots=roots,
        )

    def _check(self, index: int, results: list) -> None:
        if digest(results) != self.expected[self.request_key(index)]:
            self.tally.mismatched += 1

    def _fail(self, error: Exception) -> None:
        self.tally.failed += 1
        if len(self.tally.errors) < 5:
            self.tally.errors.append(f"{type(error).__name__}: {error}")
        if self.tally.failed > 100:
            raise RuntimeError(f"too many failed requests: {self.tally.errors}")
