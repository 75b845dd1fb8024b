"""`NormClient`: the one public entry point for normalization calls.

The client encodes ndarray payloads into versioned envelopes, sends them
through a pluggable :class:`~repro.api.transport.Transport`, and decodes
the responses back into arrays -- so the exact same calling code runs
against an in-process :class:`NormalizationService` or a remote
:class:`~repro.api.aserver.AsyncNormServer`::

    with NormClient.in_process() as client:          # local
        result = client.normalize(rows, "tiny")

    with NormClient.connect("10.0.0.5", 8471) as client:   # remote
        result = client.normalize(rows, "tiny")

Both transports produce bit-identical outputs to calling the service
directly (``tests/test_api.py`` enforces it), because encoding is exact for
float64 and the handler path is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.envelopes import (
    ExecuteBulkRequest,
    ExecuteGroup,
    ExecuteSpecRequest,
    NormalizeBulkRequest,
    NormalizeRequest,
    PingRequest,
    SpecRequest,
    StreamChunkRequest,
    TelemetryRequest,
    TensorPayload,
    next_stream_id,
    parse_response,
    validate_deadline_ms,
)
from repro.api.transport import InProcessTransport, PendingReply, SocketTransport, Transport


def _resolve_encoding(encoding: Optional[str]) -> str:
    """Default tensor encoding: zero-copy ``binary`` unless the caller pins one.

    ``None`` (the default everywhere) means "the fastest exact encoding":
    binary frames.  ``base64`` is the other choice, for JSON-only tools.
    """
    return "binary" if encoding is None else encoding


def _tensor(values, encoding: str, dtype=None) -> Optional[TensorPayload]:
    """``values`` as a wire tensor (None stays None)."""
    return None if values is None else TensorPayload.from_array(
        np.asarray(values, dtype=dtype), encoding
    )


@dataclass(frozen=True)
class ClientNormResult:
    """Decoded result of one normalize call."""

    request_id: int
    output: np.ndarray
    mean: np.ndarray
    isd: np.ndarray
    was_predicted: bool
    was_subsampled: bool
    batch_size: int
    queue_wait: float
    batch_latency: float
    backend: str
    accelerator: Optional[str] = None
    #: Degradation-ladder level the server applied (0 = full fidelity).
    #: A degraded result always advertises itself here -- it is never
    #: silently substituted for a full-fidelity one.
    degradation: int = 0


class PendingNormResult:
    """Handle of one pipelined normalize (or stream) request.

    ``result`` blocks until the response frame arrives, decodes it, and
    raises the matching :class:`ApiError` member on a wire error.
    """

    __slots__ = ("_client", "_reply", "_op")

    def __init__(self, client: "NormClient", reply: PendingReply, op: str = "normalize"):
        self._client = client
        self._reply = reply
        self._op = op

    def done(self) -> bool:
        """Whether the response (or a transport failure) has arrived."""
        return self._reply.done()

    def result(self, timeout: Optional[float] = None) -> "ClientNormResult":
        """The decoded result (blocking until the response frame lands).

        ``timeout=None`` falls back to the transport's per-request deadline
        so the pipelined path fails like the blocking path does, instead of
        waiting forever on a wedged-but-connected server.
        """
        if timeout is None:
            timeout = getattr(self._client.transport, "timeout", None)
        response = parse_response(self._reply.result(timeout), self._op)
        if self._op == "stream":
            return self._client._decode_item(
                response.request_id,
                response.result,
                response.backend,
                response.accelerator,
            )
        return self._client._decode_normalize(response)


@dataclass(frozen=True)
class ServedSpec:
    """A layer's engine spec plus affine parameters, as served."""

    spec: "Any"  # repro.engine.spec.EngineSpec (annotated loosely: leaf import below)
    gamma: np.ndarray
    beta: np.ndarray
    model: str
    layer_index: int
    num_layers: int

    @property
    def hidden_size(self) -> int:
        """Vector width of the served layer."""
        return self.spec.hidden_size


class NormClient:
    """Typed facade over the versioned client/server normalization API."""

    def __init__(self, transport: Transport):
        self.transport = transport

    # -- constructors -------------------------------------------------------

    @classmethod
    def in_process(cls, service=None, registry=None, loader=None, **kwargs) -> "NormClient":
        """Client over a service in this process (created inline if absent)."""
        return cls(
            InProcessTransport(service=service, registry=registry, loader=loader, **kwargs)
        )

    @classmethod
    def connect(cls, host: str, port: int, pool_size: int = 1, **kwargs) -> "NormClient":
        """Client over TCP against a running :class:`AsyncNormServer`.

        The transport is pooled and thread-safe: concurrent callers may
        share one client, and ``pool_size`` connections carry their
        pipelined requests (demultiplexed by ``request_id``).

        ``token="..."`` presents a tenant bearer token in every
        connection's hello handshake (servers running ``--require-auth``
        reject tokenless work with a typed ``unauthenticated`` error).
        """
        return cls(SocketTransport(host, port, pool_size=pool_size, **kwargs))

    @classmethod
    def connect_fleet(cls, addresses, **kwargs) -> "NormClient":
        """Client over a **fleet** of :class:`AsyncNormServer` replicas.

        ``addresses`` is a sequence of ``host:port`` strings; requests
        route by consistent hash with health-gated failover, hedged
        retries and scatter-gather bulk dispatch
        (:class:`~repro.fleet.transport.FleetTransport`), bit-identically
        to a single server.  All keyword arguments forward to the fleet
        transport.
        """
        from repro.fleet.transport import FleetTransport

        return cls(FleetTransport(addresses, **kwargs))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying transport."""
        self.transport.close()

    def __enter__(self) -> "NormClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- API calls ----------------------------------------------------------

    def normalize(
        self,
        payload: np.ndarray,
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        encoding: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> ClientNormResult:
        """Normalize one ``(hidden,)`` or ``(rows, hidden)`` tensor.

        ``deadline_ms`` rides the envelope to the server's admission
        controller: a request that cannot plausibly complete in time is
        shed *before* decode with a typed ``OverloadedError``.  Zero or
        negative deadlines are rejected here, synchronously.
        """
        request = self._normalize_request(
            payload, model, layer_index, dataset, reference, backend, accelerator,
            encoding, deadline_ms,
        )
        response = parse_response(self.transport.request(request.to_wire()), "normalize")
        return self._decode_normalize(response)

    @staticmethod
    def _normalize_request(
        payload, model, layer_index, dataset, reference, backend, accelerator,
        encoding, deadline_ms=None,
    ) -> NormalizeRequest:
        encoding = _resolve_encoding(encoding)
        return NormalizeRequest(
            model=model,
            tensor=TensorPayload.from_array(np.asarray(payload, dtype=np.float64), encoding),
            layer_index=layer_index,
            dataset=dataset,
            reference=reference,
            backend=backend,
            accelerator=accelerator,
            deadline_ms=validate_deadline_ms(deadline_ms, "submit"),
        )

    @staticmethod
    def _decode_normalize(response) -> ClientNormResult:
        return ClientNormResult(
            request_id=response.request_id,
            output=response.tensor.to_array(),
            mean=response.mean.to_array(),
            isd=response.isd.to_array(),
            was_predicted=response.was_predicted,
            was_subsampled=response.was_subsampled,
            batch_size=response.batch_size,
            queue_wait=response.queue_wait,
            batch_latency=response.batch_latency,
            backend=response.backend,
            accelerator=response.accelerator,
            degradation=response.degradation,
        )

    @staticmethod
    def _decode_item(request_id: int, item, backend: str, accelerator) -> ClientNormResult:
        """Decode one :class:`NormalizeResult` (bulk / stream item)."""
        return ClientNormResult(
            request_id=request_id,
            output=item.tensor.to_array(),
            mean=item.mean.to_array(),
            isd=item.isd.to_array(),
            was_predicted=item.was_predicted,
            was_subsampled=item.was_subsampled,
            batch_size=item.batch_size,
            queue_wait=item.queue_wait,
            batch_latency=item.batch_latency,
            backend=backend,
            accelerator=accelerator,
            degradation=item.degradation,
        )

    def submit_normalize(
        self,
        payload: np.ndarray,
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        encoding: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> "PendingNormResult":
        """Pipeline one normalize request without blocking on its response.

        Over a :class:`SocketTransport` the request goes on the wire
        immediately and many may be in flight per connection; call
        :meth:`PendingNormResult.result` to collect.  Over an in-process
        transport the call completes synchronously.
        """
        request = self._normalize_request(
            payload, model, layer_index, dataset, reference, backend, accelerator,
            encoding, deadline_ms,
        )
        return PendingNormResult(self, self.transport.submit(request.to_wire()))

    def normalize_many(
        self,
        payloads: Sequence[np.ndarray],
        model: str,
        depth: int = 1,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> List[ClientNormResult]:
        """Normalize a sequence of independent tensors (one request each).

        ``depth`` is the pipelining window: up to that many requests stay
        in flight at once (1 is lock-step).  The result order always
        matches the payload order regardless of the order the server
        answered in.
        """
        if depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        if depth == 1 and timeout is None:
            # Lock-step through the blocking path, which keeps the
            # transport's reconnect-and-resend-once semantics per request.
            # An explicit timeout routes through the windowed path below so
            # it is honored at every depth.
            return [self.normalize(payload, model, **kwargs) for payload in payloads]
        results: List[Optional[ClientNormResult]] = [None] * len(payloads)
        window: List[Tuple[int, PendingNormResult]] = []
        for index, payload in enumerate(payloads):
            window.append((index, self.submit_normalize(payload, model, **kwargs)))
            if len(window) >= depth:
                slot, pending = window.pop(0)
                results[slot] = pending.result(timeout)
        for slot, pending in window:
            results[slot] = pending.result(timeout)
        return results

    def normalize_bulk(
        self,
        payloads: Sequence[np.ndarray],
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        encoding: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[ClientNormResult]:
        """Normalize many tensors with **one** frame (the bulk op).

        The whole list lands in the server's scheduler at once, so a
        single client fills batches by itself instead of relying on
        cross-client coalescing.  Results come back in payload order.
        """
        encoding = _resolve_encoding(encoding)
        request = NormalizeBulkRequest(
            model=model,
            tensors=tuple(
                TensorPayload.from_array(np.asarray(p, dtype=np.float64), encoding)
                for p in payloads
            ),
            layer_index=layer_index,
            dataset=dataset,
            reference=reference,
            backend=backend,
            accelerator=accelerator,
            deadline_ms=validate_deadline_ms(deadline_ms, "submit"),
        )
        response = parse_response(self.transport.request(request.to_wire()), "normalize_bulk")
        return [
            self._decode_item(
                response.request_id, item, response.backend, response.accelerator
            )
            for item in response.results
        ]

    def stream(
        self,
        chunks: Iterable[np.ndarray],
        model: str,
        depth: int = 8,
        timeout: Optional[float] = None,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
        backend: str = "vectorized",
        accelerator: Optional[str] = None,
        encoding: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Iterator[ClientNormResult]:
        """Normalize a stream of activation chunks, yielding in chunk order.

        Up to ``depth`` chunks ride the wire concurrently as ``stream``
        envelopes (one ``stream_id``, consecutive ``seq``); the server may
        answer out of order and this generator reassembles by sequence
        number.
        """
        if depth < 1:
            raise ValueError("stream depth must be at least 1")
        encoding = _resolve_encoding(encoding)
        deadline_ms = validate_deadline_ms(deadline_ms, "submit")
        stream_id = next_stream_id()

        def _submit(seq: int, chunk: np.ndarray, final: bool) -> PendingNormResult:
            request = StreamChunkRequest(
                model=model,
                tensor=TensorPayload.from_array(
                    np.asarray(chunk, dtype=np.float64), encoding
                ),
                stream_id=stream_id,
                seq=seq,
                final=final,
                layer_index=layer_index,
                dataset=dataset,
                reference=reference,
                backend=backend,
                accelerator=accelerator,
                deadline_ms=deadline_ms,
            )
            return PendingNormResult(self, self.transport.submit(request.to_wire()), "stream")

        # One-chunk lookahead so the last chunk carries final=True even
        # over generators whose length is unknown upfront.
        iterator = iter(chunks)
        try:
            held = next(iterator)
        except StopIteration:
            return
        window: List[PendingNormResult] = []
        seq = 0
        for upcoming in iterator:
            window.append(_submit(seq, held, final=False))
            held = upcoming
            seq += 1
            if len(window) >= depth:
                yield window.pop(0).result(timeout)
        window.append(_submit(seq, held, final=True))
        for pending in window:
            yield pending.result(timeout)

    def fetch_spec(
        self,
        model: str,
        layer_index: int = 0,
        dataset: str = "default",
        reference: bool = False,
    ) -> ServedSpec:
        """Fetch a layer's serialized engine spec and affine parameters."""
        from repro.engine.spec import EngineSpec

        request = SpecRequest(
            model=model, layer_index=layer_index, dataset=dataset, reference=reference
        )
        response = parse_response(self.transport.request(request.to_wire()), "spec")
        return ServedSpec(
            spec=EngineSpec.from_dict(response.spec),
            gamma=response.gamma.to_array(),
            beta=response.beta.to_array(),
            model=response.model,
            layer_index=response.layer_index,
            num_layers=response.num_layers,
        )

    def execute_spec(
        self,
        spec,
        rows: np.ndarray,
        gamma: Optional[np.ndarray] = None,
        beta: Optional[np.ndarray] = None,
        segment_starts: Optional[np.ndarray] = None,
        anchor_isd: Optional[np.ndarray] = None,
        backend: str = "vectorized",
        encoding: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Execute a shipped :class:`EngineSpec` server-side over stacked rows.

        The transport-level counterpart of ``engine.run``: returns
        ``(output, mean, isd)``.  Used by the engine's ``remote`` backend.
        """
        encoding = _resolve_encoding(encoding)
        request = ExecuteSpecRequest(
            spec=spec.to_dict() if hasattr(spec, "to_dict") else dict(spec),
            rows=_tensor(rows, encoding, np.float64),
            gamma=_tensor(gamma, encoding),
            beta=_tensor(beta, encoding),
            segment_starts=_tensor(segment_starts, encoding, np.int64),
            anchor_isd=_tensor(anchor_isd, encoding),
            backend=backend,
        )
        response = parse_response(self.transport.request(request.to_wire()), "execute")
        return (
            response.output.to_array(),
            response.mean.to_array(),
            response.isd.to_array(),
        )

    def execute_spec_bulk(
        self,
        spec,
        groups: Sequence[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]],
        gamma: Optional[np.ndarray] = None,
        beta: Optional[np.ndarray] = None,
        backend: str = "vectorized",
        encoding: Optional[str] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Execute one shipped spec over many row-groups with one frame.

        ``groups`` is a sequence of ``(rows, segment_starts, anchor_isd)``
        triples (the optional parts may be None).  The spec and affine
        parameters travel once; the server compiles once and submits every
        group to its batching scheduler, where groups of one size class
        stack into one kernel call.  Returns one ``(output, mean, isd)``
        per group, in order.
        """
        encoding = _resolve_encoding(encoding)
        request = ExecuteBulkRequest(
            spec=spec.to_dict() if hasattr(spec, "to_dict") else dict(spec),
            groups=tuple(
                ExecuteGroup(
                    rows=_tensor(rows, encoding, np.float64),
                    segment_starts=_tensor(segment_starts, encoding, np.int64),
                    anchor_isd=_tensor(anchor_isd, encoding, np.float64),
                )
                for rows, segment_starts, anchor_isd in groups
            ),
            gamma=_tensor(gamma, encoding),
            beta=_tensor(beta, encoding),
            backend=backend,
        )
        response = parse_response(self.transport.request(request.to_wire()), "execute_bulk")
        return [
            (item.output.to_array(), item.mean.to_array(), item.isd.to_array())
            for item in response.results
        ]

    def ping(self) -> Dict[str, Any]:
        """Probe the peer; returns its registered backends (and model names)."""
        response = parse_response(self.transport.request(PingRequest().to_wire()), "ping")
        return {
            "backends": response.backends,
            "models": response.models,
            "min_schema_version": response.min_schema_version,
            "max_schema_version": response.max_schema_version,
        }

    def negotiated_version(self) -> Optional[int]:
        """Schema version agreed in the transport's hello handshake.

        ``None`` over transports that do not negotiate (in-process) or
        before the first connection is established.
        """
        return getattr(self.transport, "negotiated_version", None)

    def telemetry(self) -> Dict[str, Any]:
        """Fetch the peer's serving telemetry and registry snapshots."""
        response = parse_response(
            self.transport.request(TelemetryRequest().to_wire()), "telemetry"
        )
        return {"telemetry": response.telemetry, "registry": response.registry}

    def wait_until_ready(self, timeout: float = 10.0) -> None:
        """Block until the peer accepts connections (no-op for in-process)."""
        waiter = getattr(self.transport, "wait_until_ready", None)
        if waiter is not None:
            waiter(timeout)
