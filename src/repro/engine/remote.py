"""`RemoteBackend`: execute a compiled plan on a normalization server.

The ROADMAP's ``remote`` backend: instead of running the kernel locally,
``run`` ships the plan's serialized :class:`~repro.engine.spec.EngineSpec`
plus the affine parameters and the stacked rows to a live
:class:`~repro.api.aserver.AsyncNormServer` (the ``execute`` op of the wire
protocol) and decodes ``(output, mean, isd)`` from the response.  Because
the server rebuilds the engine from the shipped spec, the remote host needs
no model or calibration state -- the spec *is* the execution contract --
and outputs stay bit-identical to every local backend (float64 survives
the wire exactly).

Registered in :mod:`repro.engine.registry` as a connection-requiring
backend: it participates in ``available_backends()`` (serving request keys
may name it) but is excluded from ``local_backends()`` sweeps that expect
zero-configuration construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.backends import NormBackend
from repro.engine.plan import ExecutionPlan
from repro.numerics import kernels


class RemoteBackend(NormBackend):
    """Forward batches to a :class:`AsyncNormServer` over the wire protocol.

    Parameters
    ----------
    address:
        ``host:port`` of the server (alternative to ``host`` + ``port``).
    host / port:
        Explicit server address.
    client:
        An already-constructed :class:`~repro.api.client.NormClient`
        (overrides the address; useful for tests and shared connections).
    execute_backend:
        Backend name the *server* runs the spec on (any of its local
        backends; all are bit-identical by the golden contract).
    timeout:
        Per-request socket timeout in seconds.
    """

    name = "remote"

    def __init__(
        self,
        address: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        client=None,
        execute_backend: str = "vectorized",
        timeout: float = 30.0,
    ):
        if client is None:
            if address is not None:
                from repro.api.server import parse_address

                host, port = parse_address(address)
            if host is None or port is None:
                raise ValueError(
                    "the remote backend needs a server to talk to: pass "
                    "address='host:port' (or host=/port=, or client=)"
                )
            from repro.api.client import NormClient

            client = NormClient.connect(host, int(port), timeout=timeout)
        self.client = client
        self.execute_backend = execute_backend

    def run(
        self,
        plan: ExecutionPlan,
        rows: np.ndarray,
        segment_starts: Optional[np.ndarray] = None,
        anchor_isd: Optional[np.ndarray] = None,
        workspace: Optional[kernels.KernelWorkspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        arr = plan.check_rows(rows)
        output, mean, isd = self.client.execute_spec(
            plan.spec,
            arr,
            gamma=plan.gamma,
            beta=plan.beta,
            segment_starts=segment_starts,
            anchor_isd=anchor_isd,
            backend=self.execute_backend,
        )
        if out is not None:
            np.copyto(out, output)
            return out, mean, isd
        return output, mean, isd

    def run_many(
        self,
        plan: ExecutionPlan,
        groups: Sequence[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]],
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Execute many row-groups with **one** ``execute_bulk`` frame.

        ``groups`` holds ``(rows, segment_starts, anchor_isd)`` triples.
        The spec and affine parameters ship once instead of per group, the
        server compiles once and stacks the groups into batches -- the bulk
        counterpart of :meth:`run` that amortizes the wire and compile cost
        over the whole list while staying bit-identical to local execution.
        """
        if not groups:
            # Match the local loop-over-run fallback: an empty batch is a
            # no-op, not a zero-group wire frame for the server to reject.
            return []
        checked = [
            (plan.check_rows(rows), segment_starts, anchor_isd)
            for rows, segment_starts, anchor_isd in groups
        ]
        return self.client.execute_spec_bulk(
            plan.spec,
            checked,
            gamma=plan.gamma,
            beta=plan.beta,
            backend=self.execute_backend,
        )

    def close(self) -> None:
        """Close the underlying client connection."""
        self.client.close()

    def __repr__(self) -> str:
        target = getattr(self.client.transport, "address", "in-process")
        return f"RemoteBackend(target={target!r}, execute_backend={self.execute_backend!r})"
