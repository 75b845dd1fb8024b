"""`haan-chaos`: golden-checked traffic under a deterministic fault plan.

Two drills share one flag set:

* **Chaos run** (default) -- launch in-process replicas, drive normalize
  traffic through the production client stack with a seeded
  :class:`~repro.chaos.plan.FaultPlan` injected either client-side
  (:class:`~repro.chaos.transport.ChaosTransport`) or server-side
  (:class:`~repro.chaos.gate.FaultGate`, ``--side server``), and assert
  the robustness contract per request: the response is **bit-identical**
  to the fault-free golden rebuild, or the failure is a **typed**
  :class:`~repro.api.envelopes.ApiError` -- never silent corruption,
  never an untyped crash::

      haan-chaos --replicas 2 --requests 40
      haan-chaos --side server --plan plan.json --json

* **Overload drill** (``--overload-drill``) -- flood one small-queue
  server far past capacity and assert the admission controller's claim:
  every shed request fails with a typed ``OverloadedError`` carrying
  ``retry_after_ms`` in under 100 ms, and every *accepted* request is
  still bit-identical::

      haan-chaos --overload-drill --burst 64 --max-queue-depth 4

``--print-plan`` dumps the canned CI plan as JSON (the fault-plan schema
documented in the README) and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import ApiError, OverloadedError
from repro.api.transport import SocketTransport
from repro.chaos.gate import FaultGate
from repro.chaos.plan import FaultPlan, canned_plan
from repro.chaos.transport import ChaosTransport
from repro.serving.registry import CalibrationRegistry
from repro.serving.service import NormalizationService


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``haan-chaos`` command."""
    parser = argparse.ArgumentParser(
        prog="haan-chaos",
        description="Drive golden-checked traffic under a deterministic fault plan.",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="fault plan JSON (default: the canned CI smoke plan)",
    )
    parser.add_argument(
        "--print-plan",
        action="store_true",
        help="dump the canned plan as JSON and exit",
    )
    parser.add_argument(
        "--side",
        choices=("client", "server"),
        default="client",
        help="where the plan is applied: ChaosTransport or FaultGate",
    )
    parser.add_argument("--replicas", type=int, default=2, help="in-process servers")
    parser.add_argument("--requests", type=int, default=40, help="normalize requests")
    parser.add_argument("--rows", type=int, default=4, help="rows per synthetic tensor")
    parser.add_argument("--model", default="tiny", help="model to serve")
    parser.add_argument("--dataset", default="default", help="calibration dataset")
    parser.add_argument("--layer", type=int, default=0, help="normalization layer")
    parser.add_argument("--backend", default="vectorized", help="execution backend")
    parser.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    parser.add_argument(
        "--timeout", type=float, default=15.0, help="per-request client timeout"
    )
    parser.add_argument(
        "--overload-drill",
        action="store_true",
        help="run the admission-control drill instead of the chaos run",
    )
    parser.add_argument(
        "--burst", type=int, default=64, help="overload drill: pipelined burst size"
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=4,
        help="overload drill: server admission queue bound",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="stamp every request with this deadline",
    )
    parser.add_argument(
        "--shed-latency-ms",
        type=float,
        default=100.0,
        help="overload drill: max tolerated time-to-shed",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the run summary as JSON on stdout"
    )
    return parser


def _load_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FaultPlan:
    if args.plan is None:
        return canned_plan()
    try:
        with open(args.plan, "r", encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read())
    except (OSError, ValueError) as error:
        parser.error(f"--plan {args.plan}: {error}")
        raise  # unreachable; parser.error exits


class _Replicas:
    """N in-process AsyncNormServers over one shared calibration artifact."""

    def __init__(
        self,
        count: int,
        max_queue_depth: int = 256,
        gates: Optional[List[Optional[FaultGate]]] = None,
    ):
        # One parent registry: Algorithm 1 runs once, every replica reuses it.
        self.registry = CalibrationRegistry()
        self.services: List[NormalizationService] = []
        self.servers: List[AsyncNormServer] = []
        try:
            for index in range(count):
                service = NormalizationService(
                    registry=CalibrationRegistry(
                        loader=lambda m, d: self.registry.get(m, d)
                    )
                )
                server = AsyncNormServer(
                    service,
                    max_queue_depth=max_queue_depth,
                    fault_gate=gates[index] if gates else None,
                ).start()
                self.services.append(service)
                self.servers.append(server)
        except BaseException:
            self.close()
            raise

    @property
    def addresses(self) -> List[str]:
        return [f"{server.host}:{server.port}" for server in self.servers]

    def close(self) -> None:
        for server in self.servers:
            server.close()
        for service in self.services:
            service.close()


def _golden_engine(replicas: _Replicas, args: argparse.Namespace):
    """The fault-free reference rebuild of the served spec."""
    from repro.engine.registry import build

    artifact = replicas.registry.get(args.model, args.dataset)
    layer = artifact.layer(args.layer)
    spec = layer.engine_for("reference").spec
    return build(spec, backend="reference", gamma=layer.gamma, beta=layer.beta)


def _run_chaos(args: argparse.Namespace, plan: FaultPlan) -> int:
    gates: Optional[List[Optional[FaultGate]]] = None
    if args.side == "server":
        gates = [
            FaultGate(plan, replica=f"replica-{index}")
            for index in range(args.replicas)
        ]
    replicas = _Replicas(args.replicas, gates=gates)
    chaos: Optional[ChaosTransport] = None
    try:
        golden = _golden_engine(replicas, args)
        if args.replicas > 1:
            from repro.fleet.transport import FleetTransport

            inner = FleetTransport(replicas.addresses, timeout=args.timeout)
        else:
            host, port = replicas.servers[0].host, replicas.servers[0].port
            inner = SocketTransport(host, port, timeout=args.timeout)
        transport = inner
        if args.side == "client":
            transport = chaos = ChaosTransport(inner, plan)
        rng = np.random.default_rng(args.seed)
        hidden = replicas.registry.get(args.model, args.dataset).layer(args.layer).hidden_size

        ok = 0
        mismatches = 0
        typed_failures: Dict[str, int] = {}
        untyped: List[str] = []
        with NormClient(transport) as client:
            client.wait_until_ready(timeout=30.0)
            for _index in range(args.requests):
                payload = rng.normal(0.0, 1.0, size=(args.rows, hidden))
                try:
                    result = client.normalize(
                        payload,
                        args.model,
                        layer_index=args.layer,
                        dataset=args.dataset,
                        backend=args.backend,
                        deadline_ms=args.deadline_ms,
                    )
                except ApiError as error:
                    typed_failures[error.code] = typed_failures.get(error.code, 0) + 1
                    continue
                except Exception as error:  # noqa: BLE001 - the contract under test
                    untyped.append(f"{type(error).__name__}: {error}")
                    continue
                expected = golden.run(np.asarray(payload, dtype=np.float64))[0]
                if np.array_equal(result.output, expected.reshape(result.output.shape)):
                    ok += 1
                else:
                    mismatches += 1

        injected: Dict[str, Any] = {}
        if chaos is not None:
            injected = chaos.snapshot()
        elif gates:
            injected = {
                "injected": sum(g.snapshot()["injected"] for g in gates),
                "replicas": [g.snapshot() for g in gates],
            }
        summary = {
            "mode": "chaos",
            "side": args.side,
            "plan": plan.name or args.plan,
            "replicas": replicas.addresses,
            "requests": args.requests,
            "bit_identical": ok,
            "typed_failures": typed_failures,
            "golden_mismatches": mismatches,
            "untyped_failures": untyped,
            "chaos": injected,
        }
        return _report(args, summary, _chaos_verdict(summary))
    finally:
        replicas.close()


def _chaos_verdict(summary: Dict[str, Any]) -> List[str]:
    problems = []
    if summary["golden_mismatches"]:
        problems.append(
            f"{summary['golden_mismatches']} response(s) differ from the "
            "golden rebuild: silent corruption"
        )
    if summary["untyped_failures"]:
        problems.append(
            f"{len(summary['untyped_failures'])} failure(s) outside the typed "
            f"ApiError taxonomy: {summary['untyped_failures'][:3]}"
        )
    if not summary["chaos"].get("injected"):
        problems.append("the plan injected no faults: the run proves nothing")
    return problems


def _run_overload(args: argparse.Namespace) -> int:
    replicas = _Replicas(1, max_queue_depth=args.max_queue_depth)
    try:
        golden = _golden_engine(replicas, args)
        hidden = replicas.registry.get(args.model, args.dataset).layer(args.layer).hidden_size
        rng = np.random.default_rng(args.seed)
        payloads = [
            rng.normal(0.0, 1.0, size=(args.rows, hidden)) for _ in range(args.burst)
        ]
        host, port = replicas.servers[0].host, replicas.servers[0].port
        accepted = 0
        mismatches = 0
        shed: List[float] = []
        missing_retry_after = 0
        other_failures: List[str] = []
        with NormClient.connect(host, port, timeout=args.timeout) as client:
            client.wait_until_ready(timeout=30.0)
            started = [0.0] * args.burst
            handles = []
            for index, payload in enumerate(payloads):
                started[index] = time.perf_counter()
                handles.append(
                    client.submit_normalize(
                        payload,
                        args.model,
                        layer_index=args.layer,
                        dataset=args.dataset,
                        backend=args.backend,
                        deadline_ms=args.deadline_ms,
                    )
                )
            for index, handle in enumerate(handles):
                try:
                    result = handle.result()
                except OverloadedError as error:
                    shed.append((time.perf_counter() - started[index]) * 1000.0)
                    if error.retry_after_ms is None:
                        missing_retry_after += 1
                    continue
                except ApiError as error:
                    other_failures.append(f"[{error.code}] {error}")
                    continue
                accepted += 1
                expected = golden.run(np.asarray(payloads[index], dtype=np.float64))[0]
                if not np.array_equal(
                    result.output, expected.reshape(result.output.shape)
                ):
                    mismatches += 1

        summary = {
            "mode": "overload-drill",
            "burst": args.burst,
            "max_queue_depth": args.max_queue_depth,
            "accepted": accepted,
            "shed": len(shed),
            "shed_latency_ms_max": round(max(shed), 3) if shed else None,
            "shed_latency_ms_mean": round(float(np.mean(shed)), 3) if shed else None,
            "missing_retry_after": missing_retry_after,
            "golden_mismatches": mismatches,
            "other_failures": other_failures,
            "admission": replicas.servers[0].admission.snapshot(),
        }
        problems = []
        if not shed:
            problems.append("nothing was shed: the drill never overloaded the server")
        elif max(shed) >= args.shed_latency_ms:
            problems.append(
                f"slowest shed took {max(shed):.1f} ms "
                f"(tolerance {args.shed_latency_ms} ms)"
            )
        if missing_retry_after:
            problems.append(
                f"{missing_retry_after} OverloadedError(s) without retry_after_ms"
            )
        if mismatches:
            problems.append(f"{mismatches} accepted response(s) not bit-identical")
        if other_failures:
            problems.append(f"unexpected failures: {other_failures[:3]}")
        return _report(args, summary, problems)
    finally:
        replicas.close()


def _report(args: argparse.Namespace, summary: Dict[str, Any], problems: List[str]) -> int:
    summary["ok"] = not problems
    summary["problems"] = problems
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key in sorted(summary):
            if key not in ("problems",):
                print(f"haan-chaos: {key}: {summary[key]}")
    for problem in problems:
        print(f"haan-chaos: FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_plan:
        print(canned_plan().to_json())
        return 0
    if args.replicas < 1 or args.requests < 1 or args.rows < 1:
        parser.error("--replicas, --requests and --rows must be positive")
    if args.burst < 1 or args.max_queue_depth < 1:
        parser.error("--burst and --max-queue-depth must be positive")
    plan = _load_plan(args, parser)
    if args.overload_drill:
        return _run_overload(args)
    return _run_chaos(args, plan)


if __name__ == "__main__":
    sys.exit(main())
