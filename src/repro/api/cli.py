"""`haan-client`: submit normalization requests to a running server.

The command-line counterpart of ``haan-serve --listen``::

    haan-client --connect 127.0.0.1:8471 --model tiny --requests 2
    haan-client --connect 127.0.0.1:8471 --model tiny --requests 32 --depth 8
    haan-client --connect 127.0.0.1:8471 --model tiny --requests 32 --bulk
    haan-client --connect 127.0.0.1:8471,127.0.0.1:8472 --requests 32 --bulk
    haan-client --connect 127.0.0.1:8471 --model tiny --backend simulated \\
        --accelerator haan-v2
    haan-client --connect 127.0.0.1:8471 --model tiny --input payload.json
    haan-client --connect 127.0.0.1:8471 --model tiny --spec
    haan-client --connect 127.0.0.1:8471 --telemetry

Payloads come from ``--input`` (a JSON array: one vector, one matrix, or a
list of either -- ``-`` reads stdin) or are generated synthetically after
fetching the layer's spec to learn the hidden size.  ``--golden-check``
additionally rebuilds the layer locally from the served spec + affine
parameters and asserts the remote outputs bit-for-bit -- the wire-protocol
equivalent of ``haan-serve``'s golden check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.api.client import NormClient
from repro.api.envelopes import ApiError
from repro.api.server import parse_address


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``haan-client`` command."""
    parser = argparse.ArgumentParser(
        prog="haan-client",
        description="Send normalization requests to a haan-serve --listen server.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="server address (the one haan-serve --listen printed); a "
        "comma-separated list routes through the fleet transport "
        "(consistent-hash + health-gated failover across the replicas)",
    )
    parser.add_argument("--model", default="tiny", help="model name to normalize against")
    parser.add_argument("--dataset", default="default", help="calibration dataset key")
    parser.add_argument("--layer", type=int, default=0, help="normalization layer index")
    parser.add_argument(
        "--backend", default="vectorized", help="execution backend for the requests"
    )
    parser.add_argument(
        "--accelerator",
        default=None,
        help="accelerator config for cost-modelling backends (haan-v1/v2/v3, "
        "sole, dfx, mhaa)",
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="normalize with the exact reference layer instead of HAAN",
    )
    parser.add_argument("--requests", type=int, default=2, help="synthetic requests to send")
    parser.add_argument("--rows", type=int, default=1, help="rows per synthetic request")
    parser.add_argument(
        "--depth",
        type=int,
        default=1,
        help="pipelining depth: up to this many requests in flight at once "
        "(1 = lock-step; responses are matched by request_id)",
    )
    parser.add_argument(
        "--bulk",
        action="store_true",
        help="ship all payloads in one normalize_bulk frame (fills the "
        "server's batching scheduler from a single client)",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=1,
        help="TCP connections in the transport pool",
    )
    parser.add_argument("--seed", type=int, default=0, help="synthetic payload RNG seed")
    parser.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help="JSON payload file ('-' for stdin) instead of synthetic traffic",
    )
    parser.add_argument(
        "--encoding",
        choices=("binary", "base64"),
        default="binary",
        help="tensor wire encoding (both are bit-exact; 'binary' rides "
        "zero-copy binary frames, 'base64' JSON frames)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="tenant bearer token presented in the hello handshake "
        "(required by servers running --require-auth)",
    )
    parser.add_argument(
        "--wait-seconds",
        type=float,
        default=10.0,
        help="how long to wait for the server to accept connections",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-request timeout in seconds"
    )
    parser.add_argument(
        "--spec",
        action="store_true",
        help="print the layer's serialized engine spec and exit",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="print the server's telemetry snapshot and exit",
    )
    parser.add_argument(
        "--golden-check",
        action="store_true",
        help="rebuild the layer locally from the served spec and assert "
        "the remote outputs bit-for-bit",
    )
    return parser


def _load_payloads(path: str) -> List[np.ndarray]:
    """Parse a JSON payload file into a list of 1-D / 2-D arrays."""
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    if not isinstance(data, list) or not data:
        raise ValueError("payload file must hold a non-empty JSON array")

    def _depth(obj) -> int:
        depth = 0
        while isinstance(obj, list):
            depth += 1
            obj = obj[0] if obj else None
        return depth

    depth = _depth(data)
    if depth in (1, 2):
        return [np.asarray(data, dtype=np.float64)]
    if depth == 3:
        return [np.asarray(item, dtype=np.float64) for item in data]
    raise ValueError(f"payload file nests {depth} levels deep; expected 1, 2 or 3")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.requests < 1 or args.rows < 1:
        parser.error("--requests and --rows must be positive")
    if args.depth < 1 or args.pool < 1:
        parser.error("--depth and --pool must be positive")
    addresses = [part.strip() for part in args.connect.split(",") if part.strip()]
    if not addresses:
        parser.error("--connect needs at least one HOST:PORT")
    try:
        for address in addresses:
            parse_address(address)
    except ValueError as error:
        parser.error(str(error))

    try:
        if len(addresses) > 1:
            client = NormClient.connect_fleet(
                addresses, pool_size=args.pool, timeout=args.timeout, token=args.token
            )
        else:
            host, port = parse_address(addresses[0])
            client = NormClient.connect(
                host,
                port,
                pool_size=args.pool,
                timeout=args.timeout,
                token=args.token,
            )
        with client:
            client.wait_until_ready(timeout=args.wait_seconds)
            return _run(client, args)
    except ApiError as error:
        print(f"haan-client: [{error.code}] {error}", file=sys.stderr)
        return 1


def _run(client: NormClient, args: argparse.Namespace) -> int:
    if args.telemetry:
        print(json.dumps(client.telemetry(), indent=2, default=str))
        return 0

    served = client.fetch_spec(
        args.model, layer_index=args.layer, dataset=args.dataset, reference=args.reference
    )
    if args.spec:
        print(json.dumps(served.spec.to_dict(), indent=2))
        return 0

    if args.input is not None:
        try:
            payloads = _load_payloads(args.input)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"haan-client: cannot read --input: {error}", file=sys.stderr)
            return 2
    else:
        rng = np.random.default_rng(args.seed)
        payloads = [
            rng.normal(0.0, 1.0, size=(args.rows, served.hidden_size))
            for _ in range(args.requests)
        ]

    golden_engine = None
    if args.golden_check:
        from repro.engine.registry import build

        golden_engine = build(
            served.spec, backend="reference", gamma=served.gamma, beta=served.beta
        )

    mode = "bulk frame" if args.bulk else f"pipeline depth {args.depth}"
    negotiated = client.negotiated_version()
    print(
        f"sending {len(payloads)} request(s) to {client.transport.address} "
        f"(model {args.model!r}, layer {args.layer}, backend {args.backend!r}, "
        f"{mode}, pool {args.pool}"
        + (f", accelerator {args.accelerator!r}" if args.accelerator else "")
        + (f", schema v{negotiated}" if negotiated is not None else "")
        + ")"
    )
    shared = dict(
        layer_index=args.layer,
        dataset=args.dataset,
        reference=args.reference,
        backend=args.backend,
        accelerator=args.accelerator,
        encoding=args.encoding,
    )
    if args.bulk:
        results = client.normalize_bulk(payloads, args.model, **shared)
    else:
        results = client.normalize_many(payloads, args.model, depth=args.depth, **shared)
    total_rows = 0
    for index, (payload, result) in enumerate(zip(payloads, results)):
        rows = payload.reshape(-1, payload.shape[-1]).shape[0] if payload.ndim > 1 else 1
        total_rows += rows
        flags = []
        if result.was_predicted:
            flags.append("predicted-isd")
        if result.was_subsampled:
            flags.append("subsampled")
        print(
            f"  [{index}] rows={rows} batch_size={result.batch_size} "
            f"latency={1e6 * result.batch_latency:.0f}us "
            f"backend={result.backend}"
            + (f" flags={'+'.join(flags)}" if flags else "")
        )
        if golden_engine is not None:
            stacked = np.asarray(payload, dtype=np.float64).reshape(-1, served.hidden_size)
            expected = golden_engine.run(stacked)[0].reshape(result.output.shape)
            if not np.array_equal(result.output, expected):
                print(
                    "haan-client: GOLDEN CHECK FAILED: served output differs "
                    "from the local rebuild of the served spec",
                    file=sys.stderr,
                )
                return 1
    if golden_engine is not None:
        print(f"golden check: {len(payloads)} response(s) bit-identical to the served spec")
    print(f"done: {len(payloads)} request(s), {total_rows} row(s) normalized")
    return 0


if __name__ == "__main__":
    sys.exit(main())
