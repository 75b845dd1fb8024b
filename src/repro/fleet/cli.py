"""`haan-fleet`: launch, drive and supervise a replica fleet.

Two modes share one flag set:

* **Traffic mode** (default) -- launch ``--replicas N`` local servers
  (or ``--attach`` to already-running ones), drive pipelined and bulk
  normalization through the fleet transport, golden-check every response
  against a local rebuild of the served spec, and print the dispatch
  counters plus a per-replica health/telemetry table.  ``--kill-one``
  SIGKILLs a replica mid-run: the run must still complete, bit-identical
  -- the fleet's whole claim, exercised from the console::

      haan-fleet --replicas 3 --model tiny --requests 24 --kill-one
      haan-fleet --attach 127.0.0.1:8471,127.0.0.1:8472 --requests 16

* **Serve mode** (``--serve``) -- launch the replicas and supervise
  them until Ctrl-C/SIGTERM, restarting any that die (on fresh ports,
  printed as churn lines so an attached client operator can follow)::

      haan-fleet --replicas 3 --model tiny --serve

Traffic spreads across ``--datasets K`` calibration keys because the
ring routes on (model, dataset, accelerator): one dataset pins all
pipelined singles to one replica (its registry stays hot -- by design),
K datasets exercise the whole fleet.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.client import NormClient
from repro.api.envelopes import ApiError
from repro.api.server import parse_address
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.transport import FleetTransport


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``haan-fleet`` command."""
    parser = argparse.ArgumentParser(
        prog="haan-fleet",
        description="Launch and drive N AsyncNormServer replicas behind the fleet transport.",
    )
    parser.add_argument(
        "--replicas", type=int, default=3, help="local replicas to launch"
    )
    parser.add_argument(
        "--attach",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="drive already-running servers instead of launching any",
    )
    parser.add_argument("--model", default="tiny", help="model to serve and normalize")
    parser.add_argument("--dataset", default="default", help="calibration dataset stem")
    parser.add_argument(
        "--datasets",
        type=int,
        default=3,
        help="distinct dataset keys to spread traffic across the ring",
    )
    parser.add_argument("--layer", type=int, default=0, help="normalization layer index")
    parser.add_argument("--backend", default="vectorized", help="execution backend")
    parser.add_argument(
        "--requests", type=int, default=24, help="pipelined requests per dataset"
    )
    parser.add_argument(
        "--bulk-items", type=int, default=8, help="tensors in the scatter-gather bulk frame"
    )
    parser.add_argument("--rows", type=int, default=4, help="rows per synthetic tensor")
    parser.add_argument("--depth", type=int, default=8, help="pipelining depth")
    parser.add_argument("--seed", type=int, default=0, help="synthetic payload RNG seed")
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-request client timeout"
    )
    parser.add_argument(
        "--kill-one",
        action="store_true",
        help="SIGKILL one replica mid-run; the run must still complete",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="supervise the replicas until interrupted instead of driving traffic",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="tenant bearer token presented to every replica's handshake",
    )
    parser.add_argument(
        "--no-golden-check",
        action="store_true",
        help="skip the bit-identity check against the locally rebuilt spec",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the run summary as JSON on stdout"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replicas < 1 or args.datasets < 1:
        parser.error("--replicas and --datasets must be positive")
    if args.requests < 1 or args.bulk_items < 1 or args.rows < 1 or args.depth < 1:
        parser.error("--requests, --bulk-items, --rows and --depth must be positive")
    if args.serve and (args.attach or args.kill_one):
        parser.error("--serve launches and supervises; drop --attach/--kill-one")

    attach: Optional[List[str]] = None
    if args.attach:
        attach = [part.strip() for part in args.attach.split(",") if part.strip()]
        if not attach:
            parser.error("--attach needs at least one HOST:PORT")
        try:
            for address in attach:
                parse_address(address)
        except ValueError as error:
            parser.error(str(error))
        if args.kill_one:
            parser.error("--kill-one needs supervised replicas, not --attach")

    if args.serve:
        return _serve(args)
    return _traffic(args, attach)


# -- serve mode ---------------------------------------------------------------


def _serve(args: argparse.Namespace) -> int:
    supervisor = FleetSupervisor(
        args.replicas,
        restart=True,
        model=args.model,
        dataset=args.dataset,
    )
    interrupted = signal.getsignal(signal.SIGTERM)

    def _on_term(signum, frame):  # noqa: ARG001 - signal handler shape
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_term)
    try:
        with supervisor:
            addresses = supervisor.start()
            print(
                f"haan-fleet: serving {len(addresses)} replica(s) of "
                f"{args.model!r}: {','.join(addresses)}",
                flush=True,
            )
            print("haan-fleet: Ctrl-C to stop", flush=True)
            try:
                while True:
                    time.sleep(0.5)
                    for old, new in supervisor.poll():
                        print(
                            f"haan-fleet: replica {old} died; "
                            + (f"restarted on {new}" if new else "not restarted"),
                            flush=True,
                        )
            except KeyboardInterrupt:
                print("haan-fleet: shutting down", flush=True)
            _print_replica_table(supervisor.addresses(), stats=None)
        return 0
    finally:
        signal.signal(signal.SIGTERM, interrupted)


# -- traffic mode -------------------------------------------------------------


def _dataset_keys(args: argparse.Namespace) -> List[str]:
    if args.datasets == 1:
        return [args.dataset]
    return [f"{args.dataset}-{index}" for index in range(args.datasets)]


def _traffic(args: argparse.Namespace, attach: Optional[List[str]]) -> int:
    supervisor: Optional[FleetSupervisor] = None
    if attach is None:
        supervisor = FleetSupervisor(
            args.replicas,
            restart=False,  # a --kill-one death must stick: failover, not restart
            model=args.model,
            dataset=args.dataset,
        )
    try:
        if supervisor is not None:
            addresses = supervisor.start()
            print(
                f"haan-fleet: launched {len(addresses)} replica(s): "
                f"{','.join(addresses)}",
                flush=True,
            )
        else:
            addresses = list(attach or [])
            print(f"haan-fleet: attached to {','.join(addresses)}", flush=True)
        client = NormClient(
            FleetTransport(addresses, timeout=args.timeout, token=args.token)
        )
        with client:
            client.wait_until_ready(timeout=30.0)
            try:
                return _drive(client, args, supervisor, addresses)
            except ApiError as error:
                print(f"haan-fleet: [{error.code}] {error}", file=sys.stderr)
                return 1
    finally:
        if supervisor is not None:
            supervisor.close()


def _drive(
    client: NormClient,
    args: argparse.Namespace,
    supervisor: Optional[FleetSupervisor],
    addresses: Sequence[str],
) -> int:
    datasets = _dataset_keys(args)
    rng = np.random.default_rng(args.seed)
    golden = {}
    specs = {}
    for dataset in datasets:
        served = client.fetch_spec(args.model, layer_index=args.layer, dataset=dataset)
        specs[dataset] = served
        if not args.no_golden_check:
            from repro.engine.registry import build

            golden[dataset] = build(
                served.spec, backend="reference", gamma=served.gamma, beta=served.beta
            )

    hidden = specs[datasets[0]].hidden_size
    payloads = {
        dataset: [
            rng.normal(0.0, 1.0, size=(args.rows, hidden)) for _ in range(args.requests)
        ]
        for dataset in datasets
    }
    bulk_payloads = [rng.normal(0.0, 1.0, size=(args.rows, hidden)) for _ in range(args.bulk_items)]

    checked = 0
    mismatches = 0

    def _check(dataset: str, payload: np.ndarray, output: np.ndarray) -> None:
        nonlocal checked, mismatches
        engine = golden.get(dataset)
        if engine is None:
            return
        stacked = np.asarray(payload, dtype=np.float64).reshape(-1, hidden)
        expected = engine.run(stacked)[0].reshape(output.shape)
        checked += 1
        if not np.array_equal(output, expected):
            mismatches += 1

    kill_after = len(datasets) // 2 if args.kill_one else None
    killed: Optional[str] = None
    print(
        f"haan-fleet: driving {len(datasets)} dataset(s) x {args.requests} pipelined "
        f"request(s) (depth {args.depth}) + {args.bulk_items}-item bulk frame",
        flush=True,
    )
    for index, dataset in enumerate(datasets):
        if kill_after is not None and index == kill_after and supervisor is not None:
            victim = supervisor.replica(0)
            killed = victim.address
            victim.kill()
            print(f"haan-fleet: killed replica {killed} mid-run", flush=True)
        results = client.normalize_many(
            payloads[dataset],
            args.model,
            depth=args.depth,
            dataset=dataset,
            backend=args.backend,
        )
        for payload, result in zip(payloads[dataset], results):
            _check(dataset, payload, result.output)

    bulk_results = client.normalize_bulk(
        bulk_payloads, args.model, dataset=datasets[0], backend=args.backend
    )
    for payload, result in zip(bulk_payloads, bulk_results):
        _check(datasets[0], payload, result.output)

    transport = client.transport
    stats = transport.stats() if isinstance(transport, FleetTransport) else {}
    total = len(datasets) * args.requests + args.bulk_items
    summary = {
        "replicas": list(addresses),
        "killed": killed,
        "requests": total,
        "golden_checked": checked,
        "golden_mismatches": mismatches,
        "dispatch": {
            key: value for key, value in stats.items() if key != "replicas"
        },
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        dispatch = summary["dispatch"]
        print(
            f"haan-fleet: {total} request(s) done; hedges "
            f"{dispatch.get('hedges_issued', 0)} ({dispatch.get('hedge_wins', 0)} won), "
            f"failovers {dispatch.get('failovers', 0)}, scatter "
            f"{dispatch.get('scatter_requests', 0)} "
            f"(+{dispatch.get('scatter_retries', 0)} retried slice(s))",
            flush=True,
        )
        _print_replica_table(addresses, stats=stats, token=args.token)
    if mismatches:
        print(
            f"haan-fleet: GOLDEN CHECK FAILED: {mismatches}/{checked} response(s) "
            "differ from the local rebuild of the served spec",
            file=sys.stderr,
        )
        return 1
    if checked:
        print(
            f"haan-fleet: golden check passed: {checked} response(s) bit-identical",
            flush=True,
        )
    return 0


# -- reporting ----------------------------------------------------------------


def _print_replica_table(
    addresses: Sequence[str],
    stats: Optional[Dict[str, object]],
    token: Optional[str] = None,
) -> None:
    """Per-replica table: breaker state + served-side wire/tenancy telemetry."""
    health: Dict[str, Dict[str, object]] = {}
    if stats:
        replicas = stats.get("replicas")
        if isinstance(replicas, dict):
            for address, entry in replicas.items():
                if isinstance(entry, dict) and isinstance(entry.get("health"), dict):
                    health[address] = entry["health"]  # type: ignore[assignment]

    rows = [
        [
            "replica",
            "state",
            "ok",
            "fail",
            "p99(ms)",
            "requests",
            "frames",
            "peak",
            "tenants",
            "q-shed",
        ]
    ]
    tenant_rows: Dict[str, Dict[str, float]] = {}
    for address in addresses:
        info = health.get(address, {})
        state = str(info.get("state", "-"))
        ok = str(info.get("successes", "-"))
        fail = str(info.get("failures", "-"))
        p99 = info.get("latency_p99")
        p99_text = f"{1e3 * p99:.1f}" if isinstance(p99, float) else "-"
        served = frames = peak = "-"
        tenants = shed = "-"
        try:
            host, port = parse_address(address)
            with NormClient.connect(host, port, timeout=5.0, token=token) as probe:
                telemetry = probe.telemetry()["telemetry"]
            served = str(telemetry.get("requests_total", "-"))
            wire = telemetry.get("wire")
            if isinstance(wire, dict):
                frames = str(wire.get("frames_received", "-"))
                peak = str(wire.get("peak_inflight", "-"))
            tenancy = telemetry.get("tenancy")
            if isinstance(tenancy, dict):
                quotas = tenancy.get("quotas")
                quotas = quotas if isinstance(quotas, dict) else {}
                tenants = str(tenancy.get("tenants_declared", "-"))
                shed = str(
                    sum(
                        sum(quota.get("shed", {}).values())
                        for quota in quotas.values()
                        if isinstance(quota, dict)
                    )
                )
                ledger = tenancy.get("ledger")
                if isinstance(ledger, dict):
                    for tenant, account in ledger.items():
                        if not isinstance(account, dict):
                            continue
                        sums = tenant_rows.setdefault(
                            tenant, {"requests": 0, "rows": 0, "cycles": 0}
                        )
                        for key in sums:
                            value = account.get(key)
                            if isinstance(value, (int, float)):
                                sums[key] += value
        except (ApiError, OSError, ValueError, KeyError):
            state = state if state != "-" else "down"
            served = "down"
        rows.append(
            [address, state, ok, fail, p99_text, served, frames, peak, tenants, shed]
        )

    _print_table(rows)
    if tenant_rows:
        # Per-tenant rollup across the fleet, from each replica's ledger.
        print("per-tenant (fleet-wide):", flush=True)
        table = [["tenant", "requests", "rows", "cycles"]]
        for tenant in sorted(tenant_rows):
            sums = tenant_rows[tenant]
            table.append(
                [
                    tenant,
                    str(int(sums["requests"])),
                    str(int(sums["rows"])),
                    str(int(sums["cycles"])),
                ]
            )
        _print_table(table)


def _print_table(rows: List[List[str]]) -> None:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip(),
            flush=True,
        )


if __name__ == "__main__":
    sys.exit(main())
