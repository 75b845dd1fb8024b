"""Request / response envelopes of the normalization serving runtime.

A request asks the service to normalize one activation tensor with one
normalization layer of a calibrated model.  The payload may be a single
``(hidden,)`` vector (one token) or a ``(rows, hidden)`` matrix (a chunk of
a sequence); the response restores the payload's original shape.

Requests optionally carry an :class:`~repro.llm.hooks.ActivationContext`.
Reusing one context across the requests of a single activation stream gives
the batched runtime the same cross-layer ISD visibility a single-request
forward pass has: skipped layers read the anchor ISD the stream's earlier
request deposited.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.llm.hooks import ActivationContext

_request_ids = itertools.count()


@dataclass(frozen=True)
class RequestKey:
    """Coalescing key: requests sharing a key may ride one micro-batch.

    Two requests can only be stacked when they resolve to the *same*
    normalization layer object -- same calibrated model artifact, same layer
    index, same path (HAAN or the exact reference layer used as the golden
    model) -- *and* the same execution backend
    (:mod:`repro.engine.registry` name), so a micro-batch always runs on
    one machine and telemetry can attribute it.

    ``accelerator`` selects a named :class:`AcceleratorConfig` for
    cost-modelling backends (``simulated`` and its baseline variants), so
    one service prices traffic on HAAN-v1 and HAAN-v2 -- or on SOLE / DFX /
    MHAA -- side by side; requests priced on different datapaths never share
    a batch (the cost record must attribute to exactly one config).
    """

    model: str
    layer_index: int
    dataset: str = "default"
    reference: bool = False
    backend: str = "vectorized"
    accelerator: Optional[str] = None
    #: Degradation-ladder level this request executes at (0 = full
    #: fidelity).  Degraded requests compile to a *different* engine
    #: (forced subsampling / skip fast path), so they must never share a
    #: micro-batch with full-fidelity traffic.
    degrade: int = 0


@dataclass(frozen=True)
class ExecuteKey:
    """Coalescing key of ``execute`` requests: those shipping the same spec
    (``spec_json``) and affine digest to the same backend may share a
    micro-batch.  The key alone determines the engine (:meth:`compile`);
    ``spec`` / ``gamma`` / ``beta`` ride outside equality and hashing."""

    spec_json: str
    backend: str
    affine_digest: str
    spec: Any = field(compare=False, repr=False)
    gamma: Optional[np.ndarray] = field(compare=False, repr=False)
    beta: Optional[np.ndarray] = field(compare=False, repr=False)

    @classmethod
    def for_spec(cls, spec, backend: str, gamma=None, beta=None) -> "ExecuteKey":
        """The affine vectors are copied to float64: the digest is over
        canonical bytes, and the key never pins a receive buffer."""
        affine = [None if v is None else np.array(v, dtype=np.float64) for v in (gamma, beta)]
        digest = hashlib.sha256()
        for values in affine:
            digest.update(b"\x00" if values is None else values.tobytes())
        spec_json = json.dumps(spec.to_dict(), sort_keys=True)
        return cls(spec_json, backend, digest.hexdigest(), spec, *affine)

    def compile(self):
        """``(engine, applied_level)``; a shipped spec is never degraded."""
        from repro.engine.registry import build

        return build(self.spec, backend=self.backend, gamma=self.gamma, beta=self.beta), 0


class NormRequest:
    """One normalization request submitted to the service.

    A hand-rolled ``__slots__`` class rather than a dataclass: requests are
    created once per served payload, so construction is a hot path and a
    single ``__init__`` call (no ``__post_init__`` / default-factory hops)
    measurably matters.
    """

    __slots__ = (
        "key",
        "payload",
        "context",
        "request_id",
        "rows",
        "num_rows",
        "tenant",
        "deadline_ms",
    )

    def __init__(
        self,
        key: RequestKey,
        payload: np.ndarray,
        context: Optional[ActivationContext] = None,
        tenant: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ):
        arr = np.asarray(payload)
        if arr.dtype.kind not in "fiub":
            # np.asarray(..., float64) would *silently truncate* complex
            # payloads (ComplexWarning, not an exception) and mis-parse
            # mixed/object rows; a serving system must reject them loudly.
            raise ValueError(
                f"payload dtype {arr.dtype} is not real-numeric "
                "(float/int/bool); refusing lossy float64 coercion"
            )
        arr = np.asarray(arr, dtype=np.float64)
        ndim = arr.ndim
        if ndim == 2:
            rows, num_rows = arr, arr.shape[0]
        elif ndim == 1:
            rows, num_rows = arr.reshape(1, -1), 1
        else:
            raise ValueError(
                f"payload must be (hidden,) or (rows, hidden); got shape {arr.shape}"
            )
        if arr.size == 0:
            # A zero-row (or zero-width) payload has nothing to normalize and
            # would corrupt the micro-batch's segment bookkeeping.
            raise ValueError(f"payload must be non-empty; got shape {arr.shape}")
        self.key = key
        self.payload = arr
        self.context = context
        #: Tenant name this request is metered against (None = anonymous).
        #: Attribution only -- tenancy never affects the computation, so
        #: requests of different tenants still share micro-batches.
        self.tenant = tenant
        #: Client latency budget in milliseconds (None = no deadline).  A
        #: deadline-aware scheduler sheds the request once the budget is
        #: exhausted instead of executing work nobody will wait for.
        self.deadline_ms = deadline_ms
        self.request_id = next(_request_ids)
        #: The payload viewed as a 2-D ``(rows, hidden)`` matrix.
        self.rows = rows
        #: Number of vectors this request normalizes.
        self.num_rows = num_rows

    def __repr__(self) -> str:
        return (
            f"NormRequest(id={self.request_id}, key={self.key}, "
            f"rows={self.num_rows})"
        )


class ExecuteRequest(NormRequest):
    """One row-group of an ``execute`` op: unlike a normalize payload,
    which is one segment, it carries its own ``segment_starts`` (None =
    one segment), assigned after construction."""

    __slots__ = ("segment_starts",)


@dataclass(slots=True)
class NormResponse:
    """Result of one request, shaped like its payload."""

    request_id: int
    key: RequestKey
    output: np.ndarray
    mean: np.ndarray
    isd: np.ndarray
    was_predicted: bool
    was_subsampled: bool
    batch_size: int
    queue_wait: float
    batch_latency: float
    #: Degradation-ladder level actually applied (0 = full fidelity).
    #: Responses are stamped so a degraded result is never silently
    #: substituted for a full-fidelity one.
    degradation: int = 0
