"""Versioned public client/server API of the normalization runtime.

One facade, two transports, one pipelined wire protocol:

* :mod:`repro.api.envelopes` -- versioned JSON envelopes
  (``NormalizeRequest`` / ``NormalizeBulkRequest`` / ``StreamChunkRequest``
  / ``HelloRequest`` and friends) declared field by field over one generic
  codec, the op table with each op's tensor slots, and schema-version
  negotiation; it re-exports the tensor payload encoding
  (:mod:`repro.api.tensors`) and the :class:`ApiError` taxonomy
  (:mod:`repro.api.errors`).
* :mod:`repro.api.client` -- :class:`NormClient`, the typed facade every
  consumer (CLIs, eval experiments, examples, the engine's ``remote``
  backend) goes through; single, pipelined, bulk and streaming calls.
* :mod:`repro.api.transport` -- :class:`InProcessTransport` (wraps a
  :class:`NormalizationService` directly) and :class:`SocketTransport`
  (pooled + thread-safe: length-prefixed JSON frames over N TCP
  connections, many requests in flight demultiplexed by ``request_id``,
  transparent reconnect).
* :mod:`repro.api.aserver` -- :class:`AsyncNormServer`, the TCP front of
  a service (``haan-serve --listen``): an asyncio event loop handles
  pipelined frames concurrently (responses in completion order), through
  the shared :class:`~repro.api.handler.ApiHandler` both transports
  dispatch through.

Exports resolve lazily (PEP 562), mirroring :mod:`repro.engine`: the
envelope layer is a leaf, but the client/server layers reach into
:mod:`repro.serving`, and the engine's ``remote`` backend reaches back into
this package -- lazy resolution keeps that triangle import-cycle-free.
"""

from __future__ import annotations

from typing import List

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "SCHEMA_VERSION": "envelopes",
    "TensorPayload": "envelopes",
    "NormalizeRequest": "envelopes",
    "NormalizeResponse": "envelopes",
    "NormalizeBulkRequest": "envelopes",
    "NormalizeBulkResponse": "envelopes",
    "NormalizeResult": "envelopes",
    "StreamChunkRequest": "envelopes",
    "StreamChunkResponse": "envelopes",
    "SpecRequest": "envelopes",
    "SpecResponse": "envelopes",
    "ExecuteSpecRequest": "envelopes",
    "ExecuteSpecResponse": "envelopes",
    "ExecuteBulkRequest": "envelopes",
    "ExecuteBulkResponse": "envelopes",
    "ExecuteGroup": "envelopes",
    "ExecuteResult": "envelopes",
    "HelloRequest": "envelopes",
    "HelloResponse": "envelopes",
    "PingRequest": "envelopes",
    "PingResponse": "envelopes",
    "TelemetryRequest": "envelopes",
    "TelemetryResponse": "envelopes",
    "ErrorResponse": "envelopes",
    "ApiError": "envelopes",
    "BadSchemaError": "envelopes",
    "SchemaVersionError": "envelopes",
    "UnknownBackendError": "envelopes",
    "UnknownModelError": "envelopes",
    "PayloadTooLargeError": "envelopes",
    "OverloadedError": "envelopes",
    "QuotaExceededError": "envelopes",
    "DeadlineExceededError": "envelopes",
    "AuthenticationError": "envelopes",
    "TransportError": "envelopes",
    "NoHealthyReplicaError": "envelopes",
    "ERROR_CLASSES": "envelopes",
    "error_for_code": "envelopes",
    "negotiate_version": "envelopes",
    "parse_request": "envelopes",
    "parse_response": "envelopes",
    "parse_hello_response": "envelopes",
    "FrameDecoder": "framing",
    "ApiHandler": "handler",
    "Transport": "transport",
    "InProcessTransport": "transport",
    "SocketTransport": "transport",
    "PendingReply": "transport",
    "register_transport": "transport",
    "available_transports": "transport",
    "create_transport": "transport",
    "NormClient": "client",
    "ClientNormResult": "client",
    "PendingNormResult": "client",
    "ServedSpec": "client",
    "AsyncNormServer": "aserver",
    "parse_address": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
