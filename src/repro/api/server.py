"""Helpers shared by the wire server core and the tools around it.

:class:`~repro.api.aserver.AsyncNormServer` is the TCP front of a
:class:`~repro.serving.service.NormalizationService`; this module keeps the
pieces it shares with the CLIs, the chaos harness and the fleet: address
parsing, the degradation stamp of a response, and the retire-and-meter
step of an admitted work frame.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.tenancy.quota import estimate_rows


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (host may be empty for all interfaces)."""
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host or "0.0.0.0", int(port)


def _applied_degradation(response: dict) -> Optional[int]:
    """The ``degradation`` stamp of a response envelope, wherever it lives.

    Single responses carry it at the top level, stream responses inside
    ``result``, bulk responses per item in ``results`` (all items of one
    bulk ran at one level -- the first is representative).
    """
    candidates = [response]
    result = response.get("result")
    if isinstance(result, dict):
        candidates.append(result)
    results = response.get("results")
    if isinstance(results, (list, tuple)) and results and isinstance(results[0], dict):
        candidates.append(results[0])
    for candidate in candidates:
        value = candidate.get("degradation")
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def complete_work(server, tenant, payload: dict, nbytes: int, started: float) -> None:
    """Retire one admitted work frame: free its admission slot and meter it
    against ``tenant``.

    The server calls this *before* writing the response frame, so a client
    that has read its answer always finds its own charge in the ledger.
    Modelled cycles/energy arrive separately, through the service's cost
    observer, split exactly per batch.
    """
    elapsed = time.perf_counter() - started
    server.admission.complete(elapsed)
    if server.tenancy is not None:
        server.tenancy.charge_request(
            tenant, rows=estimate_rows(payload), nbytes=nbytes, wall_seconds=elapsed
        )
