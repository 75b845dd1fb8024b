"""Wire codec + transport: binary v3 framing vs JSON+base64.

Acceptance targets of the zero-copy wire format:

* **codec leg** -- encode+decode round-trip throughput of a bulk envelope
  holding 2048-dim activation rows must be at least **3x** higher with the
  v3 binary frame (raw little-endian buffers, ``np.frombuffer`` over a
  memoryview) than with the v2 JSON+base64 frame;
* **transport leg** -- against a live server, the binary-TCP client must
  sustain at least **3x** the bulk requests/sec of the JSON+base64 client
  over the same socket.

Every measured path must stay **bit-identical** to the in-process
transport -- speed never buys approximation.

Results are written to a machine-readable ``BENCH_8.json``.  Runs
standalone::

    PYTHONPATH=src python benchmarks/bench_wire_codec.py --output BENCH_8.json

or under pytest (``python -m pytest bench_wire_codec.py -q -s``); the
environment knobs ``HAAN_BENCH_CODEC_MB`` and ``HAAN_BENCH_WIRE_ITEMS``
scale the codec working set and the per-bulk item count for CI machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import SCHEMA_VERSION, TensorPayload
from repro.api.framing import MAX_FRAME_BYTES, FrameDecoder, encode_frame, frame_kind
from repro.serving.batcher import BatcherConfig
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService

#: Acceptance floors asserted by this benchmark (and by the CI job).
CODEC_SPEEDUP_FLOOR = 3.0
BINARY_VS_JSON_FLOOR = 3.0

#: The codec leg measures the dimension the acceptance criterion names.
CODEC_DIM = 2048


def _int_env(name: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(name, default)))
    except ValueError:
        return default


def _measure(fn, repeats: int = 5) -> float:
    """Fastest wall-clock of ``fn`` (one warmup absorbs cold caches)."""
    fn()
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------------
# leg A: codec-only round trip (no socket)
# ---------------------------------------------------------------------------


def bench_codec(megabytes: Optional[int] = None, seed: int = 0) -> Dict[str, object]:
    """Encode+decode a bulk envelope of 2048-dim rows, binary vs base64."""
    megabytes = megabytes or _int_env("HAAN_BENCH_CODEC_MB", 8)
    rng = np.random.default_rng(seed)
    row_bytes = CODEC_DIM * 8
    rows = max(1, megabytes * (1 << 20) // (16 * row_bytes))
    arrays = [rng.normal(0.0, 1.0, size=(rows, CODEC_DIM)) for _ in range(16)]
    tensor_bytes = sum(array.nbytes for array in arrays)

    frame_sizes: Dict[str, int] = {}

    def roundtrip(encoding: str) -> List[np.ndarray]:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "op": "normalize_bulk",
            "request_id": 1,
            "model": "bench",
            "items": [
                TensorPayload.from_array(array, encoding=encoding).to_wire()
                for array in arrays
            ],
        }
        frame = encode_frame(payload)
        frame_sizes[encoding] = len(frame)
        decoder = FrameDecoder(max_frame_bytes=MAX_FRAME_BYTES)
        (decoded,) = decoder.feed(frame)
        return [TensorPayload.from_wire(item).to_array() for item in decoded["items"]]

    # Sanity before timing: both paths reproduce the input bit-for-bit and
    # land in the frame kind they claim to.
    for encoding, kind in (("binary", "binary"), ("base64", "json")):
        outputs = roundtrip(encoding)
        assert all(np.array_equal(out, src) for out, src in zip(outputs, arrays))
        body = encode_frame(
            {
                "schema_version": SCHEMA_VERSION,
                "op": "normalize",
                "request_id": 2,
                "model": "bench",
                "tensor": TensorPayload.from_array(arrays[0], encoding=encoding).to_wire(),
            }
        )[4:]
        assert frame_kind(body) == kind, (encoding, kind)

    seconds = {
        "binary": _measure(lambda: roundtrip("binary")),
        "base64": _measure(lambda: roundtrip("base64")),
    }
    throughput = {
        name: tensor_bytes / value / (1 << 20) for name, value in seconds.items()
    }
    return {
        "dim": CODEC_DIM,
        "rows_per_tensor": rows,
        "tensors": len(arrays),
        "tensor_megabytes": tensor_bytes / (1 << 20),
        "frame_bytes": frame_sizes,
        "seconds": seconds,
        "throughput_mb_per_s": throughput,
        "codec_speedup": throughput["binary"] / throughput["base64"],
        "floor": CODEC_SPEEDUP_FLOOR,
    }


# ---------------------------------------------------------------------------
# leg B: end-to-end bulk requests against a live server
# ---------------------------------------------------------------------------


def bench_transports(
    items: Optional[int] = None,
    model_name: str = "tiny",
    rows_per_item: int = 256,
    seed: int = 0,
) -> Dict[str, object]:
    """Bulk round trips over JSON TCP and binary TCP."""
    items = items or _int_env("HAAN_BENCH_WIRE_ITEMS", 32)
    registry = CalibrationRegistry()
    artifact = registry.get(model_name, "default")
    rng = np.random.default_rng(seed)
    payloads = [
        rng.normal(0.0, 1.0, size=(rows_per_item, artifact.hidden_size))
        for _ in range(items)
    ]
    moved_bytes = sum(payload.nbytes for payload in payloads)

    with NormClient.in_process(registry=registry) as client:
        golden = [client.normalize(payload, model_name).output for payload in payloads]

    config = BatcherConfig(max_batch_size=32)
    timings: Dict[str, float] = {}
    outputs: Dict[str, List[np.ndarray]] = {}
    encodings: Dict[str, str] = {}
    with NormalizationService(registry=registry, config=config) as service:
        with AsyncNormServer(service, max_inflight=64) as server:

            def run(name: str, encoding: str) -> None:
                with NormClient.connect(server.host, server.port) as client:
                    def bulk():
                        outputs[name] = [
                            r.output
                            for r in client.normalize_bulk(
                                payloads, model_name, encoding=encoding
                            )
                        ]

                    timings[name] = _measure(bulk)
                    rows = server.wire_snapshot()["per_connection"]
                    encodings[name] = rows[-1]["encoding"] if rows else "?"

            run("tcp-json", "base64")
            run("tcp-binary", "binary")

    mismatches = []
    for name, outs in outputs.items():
        for index, (out, ref) in enumerate(zip(outs, golden)):
            if not np.array_equal(out, ref):
                mismatches.append(f"{name}[{index}]")
    rps = {name: items / value for name, value in timings.items()}
    return {
        "items": items,
        "rows_per_item": rows_per_item,
        "hidden_size": artifact.hidden_size,
        "moved_megabytes": moved_bytes / (1 << 20),
        "seconds": timings,
        "requests_per_second": rps,
        "connection_encoding": encodings,
        "binary_vs_json": rps["tcp-binary"] / rps["tcp-json"],
        "bit_identical": not mismatches,
        "mismatches": mismatches,
        "floor": BINARY_VS_JSON_FLOOR,
    }


def _report(codec: Dict[str, object], transports: Dict[str, object]) -> None:
    print(
        f"codec: {codec['tensors']} x ({codec['rows_per_tensor']}, {codec['dim']}) "
        f"float64 ({codec['tensor_megabytes']:.1f} MiB of tensor bytes)"
    )
    for name in ("binary", "base64"):
        print(
            f"  {name:>7}: {codec['throughput_mb_per_s'][name]:9.0f} MiB/s round trip "
            f"({codec['frame_bytes'][name] / (1 << 20):.1f} MiB frame)"
        )
    print(
        f"codec speedup (binary vs base64): {codec['codec_speedup']:.2f}x  "
        f"(floor {codec['floor']:.1f}x)"
    )
    print()
    print(
        f"transports: bulk of {transports['items']} x ({transports['rows_per_item']}, "
        f"{transports['hidden_size']}) rows ({transports['moved_megabytes']:.1f} MiB "
        f"per direction)"
    )
    for name in ("tcp-json", "tcp-binary"):
        print(
            f"  {name:>10}: {transports['requests_per_second'][name]:8.0f} items/s "
            f"(server saw {transports['connection_encoding'][name]!r} frames)"
        )
    print(
        f"binary vs json over TCP: {transports['binary_vs_json']:.2f}x  "
        f"(floor {transports['floor']:.1f}x)"
    )
    print(f"bit-identical to in-process: {transports['bit_identical']}")


def _passed(codec: Dict[str, object], transports: Dict[str, object]) -> bool:
    return bool(
        transports["bit_identical"]
        and codec["codec_speedup"] >= CODEC_SPEEDUP_FLOOR
        and transports["binary_vs_json"] >= BINARY_VS_JSON_FLOOR
    )


def test_wire_codec_speedup():
    """Pytest entry point asserting the acceptance floors."""
    codec = bench_codec()
    transports = bench_transports()
    print()
    _report(codec, transports)
    assert transports["bit_identical"], transports["mismatches"]
    assert codec["codec_speedup"] >= CODEC_SPEEDUP_FLOOR
    assert transports["binary_vs_json"] >= BINARY_VS_JSON_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="write BENCH_8.json here")
    parser.add_argument("--codec-mb", type=int, default=None)
    parser.add_argument("--items", type=int, default=None)
    args = parser.parse_args(argv)

    codec = bench_codec(megabytes=args.codec_mb)
    transports = bench_transports(items=args.items)
    _report(codec, transports)
    payload = {
        "bench": "BENCH_8",
        "pr": 8,
        "description": "binary wire codec vs JSON+base64, over TCP",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": {"wire_codec": codec, "wire_transports": transports},
    }
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if _passed(codec, transports) else 1


if __name__ == "__main__":
    sys.exit(main())
