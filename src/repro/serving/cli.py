"""Command-line entry point of the serving runtime.

Installed as the ``haan-serve`` console script, next to
``haan-experiments`` (:mod:`repro.eval.cli`)::

    haan-serve --model tiny --requests 512
    haan-serve --model tiny --rows 4 --max-batch-size 64
    haan-serve --model tiny --backend simulated --accelerator haan-v2
    haan-serve --model tiny --compare-loop
    haan-serve --model tiny --listen 127.0.0.1:8471

The command calibrates the model through the
:class:`~repro.serving.registry.CalibrationRegistry` (cache miss on first
use, Algorithm 1 runs once), fires synthetic activation traffic through the
continuous-batching service, cross-checks a sample of responses against
the single-request golden path bit-for-bit, and prints the telemetry
summary.  ``--compare-loop`` additionally measures requests/sec of the
batched path against the per-request loop.

``--listen HOST:PORT`` switches to server mode: instead of synthetic
traffic, the service is exposed over the versioned wire protocol
(:class:`~repro.api.aserver.AsyncNormServer`, which runs every serving
kernel on its one event-loop thread) until SIGINT/SIGTERM, then shuts down
cleanly and prints the telemetry summary.  ``haan-client`` is the matching client.
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import sys
from typing import List, Optional

import numpy as np

from repro.core.subsampling import subsample_indices
from repro.engine.registry import requires_connection, validate_backend_name
from repro.serving.batcher import BatcherConfig
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``haan-serve`` command."""
    parser = argparse.ArgumentParser(
        prog="haan-serve",
        description="Serve batched HAAN normalization traffic and report telemetry.",
    )
    parser.add_argument("--model", default="tiny", help="model name to calibrate and serve")
    parser.add_argument("--dataset", default="default", help="calibration dataset key")
    parser.add_argument("--requests", type=int, default=256, help="number of requests to fire")
    parser.add_argument("--rows", type=int, default=1, help="activation rows per request")
    parser.add_argument(
        "--layer",
        type=int,
        default=None,
        help="serve only this normalization layer (default: spread over all layers)",
    )
    parser.add_argument(
        "--backend",
        default="vectorized",
        help="execution backend for the served requests "
        "(see repro.engine.registry; default: vectorized)",
    )
    parser.add_argument(
        "--accelerator",
        default=None,
        help="accelerator config for cost-modelling backends: haan-v1/v2/v3 "
        "or a baseline (sole, dfx, mhaa)",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the wire protocol on this address instead of firing "
        "synthetic traffic (stop with SIGINT/SIGTERM)",
    )
    parser.add_argument(
        "--aging-window-ms",
        type=float,
        default=20.0,
        help="continuous scheduler's starvation bound (ms): a queued "
        "request is released at most this long after older traffic, "
        "however hot the competing buckets",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="per-connection bound on pipelined requests being handled "
        "concurrently in --listen mode (excess becomes TCP backpressure)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        help="admission-control queue bound in --listen mode: work beyond "
        "it (or that cannot meet its deadline_ms) is shed before decode "
        "with a typed overloaded error",
    )
    parser.add_argument(
        "--degrade",
        action="store_true",
        help="enable the adaptive degradation ladder in --listen mode: "
        "under sustained queue pressure, serving ops step down the "
        "paper's fidelity knobs (subsampled stats, then the skip-eligible "
        "fast path) instead of shedding; responses are stamped with the "
        "level applied",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to drain in-flight frames on SIGINT/SIGTERM before "
        "connections are closed (0: immediate close)",
    )
    parser.add_argument(
        "--tenants",
        default=None,
        metavar="PATH",
        help="tenant file (JSON: tiers + tenants with bearer tokens) "
        "enabling auth, per-tenant quotas and metered cost accounting "
        "in --listen mode",
    )
    parser.add_argument(
        "--require-auth",
        action="store_true",
        help="reject work from connections that did not present a valid "
        "tenant bearer token in the hello handshake (needs --tenants)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus-style text endpoint on "
        "http://127.0.0.1:PORT/metrics in --listen mode (0: ephemeral "
        "port, printed at startup)",
    )
    parser.add_argument(
        "--max-batch-size", type=int, default=32, help="most requests per batch"
    )
    parser.add_argument(
        "--registry-capacity",
        type=int,
        default=4,
        help="LRU capacity of the calibration-artifact cache; size it to the "
        "number of live (model, dataset) pairs or cold recalibration will "
        "dominate the serving path",
    )
    parser.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    parser.add_argument(
        "--no-golden-check",
        action="store_true",
        help="skip the bit-identity cross-check against the per-request path",
    )
    parser.add_argument(
        "--compare-loop",
        action="store_true",
        help="also benchmark requests/sec vs the per-request loop",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.requests < 1 or args.rows < 1:
        parser.error("--requests and --rows must be positive")
    if args.max_inflight < 1:
        parser.error("--max-inflight must be positive")
    if args.max_queue_depth < 1:
        parser.error("--max-queue-depth must be positive")
    if args.drain_timeout < 0:
        parser.error("--drain-timeout must be >= 0")
    if args.require_auth and args.tenants is None:
        parser.error("--require-auth needs a tenant file (--tenants PATH)")
    if args.tenants is not None and args.listen is None:
        parser.error("--tenants applies to --listen mode")
    if args.metrics_port is not None and (
        args.listen is None or args.metrics_port < 0
    ):
        parser.error("--metrics-port needs --listen mode and a port >= 0")
    if args.registry_capacity < 1:
        parser.error("--registry-capacity must be positive")
    if args.aging_window_ms <= 0:
        parser.error("--aging-window-ms must be positive")
    try:
        # The registry owns the "unknown backend" message (it lists the
        # registered names); validate up front for a clean exit code.
        validate_backend_name(args.backend)
        if requires_connection(args.backend):
            raise ValueError(
                f"backend {args.backend!r} needs its own connection "
                f"configuration and cannot be served by haan-serve"
            )
        if args.accelerator is not None:
            from repro.hardware.configs import resolve_accelerator_config

            resolve_accelerator_config(args.accelerator)
    except ValueError as error:
        print(f"haan-serve: {error}", file=sys.stderr)
        return 2

    registry = CalibrationRegistry(capacity=args.registry_capacity)
    print(f"calibrating {args.model!r} (dataset {args.dataset!r})...")
    try:
        artifact = registry.get(args.model, args.dataset)
    except KeyError as error:
        print(f"haan-serve: {error.args[0] if error.args else error}", file=sys.stderr)
        return 2
    print(
        f"  {artifact.num_layers} normalization layers, hidden size "
        f"{artifact.hidden_size}, skip range {artifact.config.skip_range}"
    )
    subsample = artifact.haan_layers[0].subsample if artifact.haan_layers else None
    if subsample is not None:
        columns = subsample_indices(artifact.hidden_size, subsample)
        print(
            f"  subsampled statistics read {columns.size}/{artifact.hidden_size} "
            f"columns ({subsample.policy.value})"
        )
    if args.layer is not None and not 0 <= args.layer < artifact.num_layers:
        print(
            f"haan-serve: --layer {args.layer} out of range; {args.model} has "
            f"{artifact.num_layers} normalization layers",
            file=sys.stderr,
        )
        return 2

    config = BatcherConfig(max_batch_size=args.max_batch_size)
    if args.listen is not None:
        return _serve_forever(args, registry, config)

    rng = np.random.default_rng(args.seed)
    if args.layer is not None:
        layer_indices = np.full(args.requests, args.layer)
    else:
        layer_indices = rng.integers(0, artifact.num_layers, size=args.requests)
    payloads = [
        rng.normal(0.0, 1.0, size=(args.rows, artifact.hidden_size))
        for _ in range(args.requests)
    ]

    with NormalizationService(
        registry=registry, config=config, aging_window=args.aging_window_ms / 1000.0
    ) as service:
        futures = [
            service.submit(
                payload,
                args.model,
                layer_index=int(index),
                dataset=args.dataset,
                backend=args.backend,
                accelerator=args.accelerator,
            )
            for payload, index in zip(payloads, layer_indices)
        ]
        service.wait(futures)
        responses = [future.result() for future in futures]

    if not args.no_golden_check:
        sample = rng.choice(args.requests, size=min(8, args.requests), replace=False)
        for position in sample:
            layer = artifact.layer(int(layer_indices[position]))
            reference = layer(payloads[position])
            if not np.array_equal(responses[position].output, reference):
                print("GOLDEN CHECK FAILED: batched output differs from the "
                      "single-request path", file=sys.stderr)
                return 1
        print(f"golden check: {sample.size} sampled responses bit-identical "
              "to the per-request path")

    print()
    print(service.telemetry.format_table())
    registry_state = registry.snapshot()
    print(
        f"registry: {registry_state['entries']}/{registry_state['capacity']} artifacts, "
        f"{registry_state['hits']} hits / {registry_state['misses']} misses"
    )

    if args.compare_loop:
        from repro.eval.experiments import run_serving_throughput

        print()
        result = run_serving_throughput(
            model_name=args.model,
            batch_sizes=sorted({1, 8, args.max_batch_size}),
            rows_per_request=args.rows,
            requests=args.requests,
            seed=args.seed,
            dataset=args.dataset,
            backend=args.backend,
            loader=lambda name, dataset: registry.get(name, dataset),
        )
        print(result.formatted())
    return 0


def _serve_forever(
    args: argparse.Namespace, registry: CalibrationRegistry, config: BatcherConfig
) -> int:
    """Server mode: expose the service over the wire protocol until signalled.

    The calibration artifact is already warm (main() resolved it), so the
    first remote request never pays Algorithm 1.  SIGINT and SIGTERM both
    trigger a *graceful* shutdown: the listener stops, in-flight frames
    drain for up to ``--drain-timeout`` seconds (new work is answered
    with a typed overloaded error while draining), then connections are
    closed, queued requests flushed, telemetry printed -- and exit code 0,
    which the CI smoke job asserts.
    """
    from repro.api.aserver import AsyncNormServer
    from repro.api.server import parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as error:
        print(f"haan-serve: {error}", file=sys.stderr)
        return 2

    service = NormalizationService(
        registry=registry, config=config, aging_window=args.aging_window_ms / 1000.0
    )
    ladder = None
    if args.degrade:
        from repro.serving.degrade import DegradationLadder

        ladder = DegradationLadder()
    tenancy = None
    if args.tenants is not None:
        from repro.tenancy import TenancyController

        try:
            tenancy = TenancyController.from_file(
                args.tenants, require_auth=args.require_auth
            )
        except (OSError, ValueError) as error:
            print(f"haan-serve: bad tenant file {args.tenants}: {error}", file=sys.stderr)
            return 2
    # The handler runs on the main thread between two bytecodes, so it must
    # take no lock the main thread may hold: it writes to a pipe the main
    # thread waits on (a signal that lands before the wait is not lost).
    wake_read, wake_write = os.pipe()

    def _signal_handler(_signum, _frame):
        os.write(wake_write, b"\0")

    previous = {
        signum: signal.signal(signum, _signal_handler)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    metrics = None
    try:
        try:
            server = AsyncNormServer(
                service,
                host=host,
                port=port,
                max_inflight=args.max_inflight,
                max_queue_depth=args.max_queue_depth,
                ladder=ladder,
                tenancy=tenancy,
            )
        except OSError as error:
            print(f"haan-serve: cannot bind {args.listen}: {error}", file=sys.stderr)
            return 2
        if args.metrics_port is not None:
            from repro.tenancy import MetricsServer, render_prometheus

            telemetry = service.telemetry

            def _exposition() -> str:
                return render_prometheus(
                    telemetry.snapshot(), telemetry.histogram_export()
                )

            try:
                metrics = MetricsServer(_exposition, port=args.metrics_port).start()
            except OSError as error:
                print(
                    f"haan-serve: cannot bind metrics port {args.metrics_port}: {error}",
                    file=sys.stderr,
                )
                server.close()
                return 2
        with server:
            print(
                f"haan-serve: listening on {server.host}:{server.port} "
                f"(model {args.model!r}, dataset {args.dataset!r}; "
                f"{args.max_inflight} in-flight "
                f"per connection, queue bound {args.max_queue_depth}"
                f"{', degradation ladder on' if ladder is not None else ''}"
                + (
                    f", {len(tenancy.directory)} tenant(s)"
                    f"{', auth required' if tenancy.require_auth else ''}"
                    if tenancy is not None
                    else ""
                )
                + "; stop with SIGINT/SIGTERM)",
                flush=True,
            )
            if metrics is not None:
                print(
                    f"haan-serve: metrics on http://{metrics.host}:{metrics.port}/metrics",
                    flush=True,
                )
            select.select([wake_read], [], [])
            # Graceful drain: stop accepting, let in-flight frames finish
            # (bounded), then the context manager's close() is a no-op.
            server.close(drain_timeout=args.drain_timeout)
            print(f"haan-serve: shutting down after {server.requests_served} request(s)")
    finally:
        if metrics is not None:
            metrics.close()
        service.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        os.close(wake_read)
        os.close(wake_write)
    print()
    print(service.telemetry.format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
