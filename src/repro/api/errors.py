"""The :class:`ApiError` taxonomy of the public normalization API.

Every failure a caller can see -- a malformed envelope, a version
mismatch, a shed or unauthenticated request, a dead transport -- is one
member of this family, carried on the wire as its ``code``, so client code
catches one exception family wherever a request died.
"""

from __future__ import annotations

from typing import Dict, Optional, Type


class ApiError(Exception):
    """Base of every public-API failure; ``code`` is the wire error code."""

    code = "internal"


class BadSchemaError(ApiError):
    """The envelope was malformed or the request content was invalid."""

    code = "bad_schema"


class SchemaVersionError(BadSchemaError):
    """The envelope's ``schema_version`` does not match this peer's."""

    code = "schema_version"


class UnknownBackendError(ApiError):
    """The requested execution backend is not registered (or not servable)."""

    code = "unknown_backend"


class UnknownModelError(ApiError):
    """The requested model name is not known to the server's registry."""

    code = "unknown_model"


class PayloadTooLargeError(ApiError):
    """The tensor payload (or frame) exceeds the configured limit."""

    code = "payload_too_large"


class OverloadedError(ApiError):
    """The server shed this request, before decode, so retrying is safe.

    Raised by admission control when the queue is too deep or
    ``deadline_ms`` cannot be met.  ``retry_after_ms`` is the server's
    estimate of when capacity frees up; a
    :class:`~repro.api.retry.RetryPolicy` honors it as its backoff floor.
    """

    code = "overloaded"

    def __init__(self, message: str = "", retry_after_ms: Optional[float] = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class QuotaExceededError(ApiError):
    """A tenant's rate quota shed this request before decode.

    ``retry_after_ms`` is the token bucket's estimate of when enough
    tokens refill; retrying is safe, as for :class:`OverloadedError`.
    """

    code = "quota_exceeded"

    def __init__(self, message: str = "", retry_after_ms: Optional[float] = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(ApiError):
    """The request's ``deadline_ms`` expired before execution began.

    Nothing ran, but there is no retry hint: the deadline was the caller's
    budget, so only the caller can decide whether to retry.
    """

    code = "deadline_exceeded"


class AuthenticationError(ApiError):
    """No valid bearer token where one is required (never retryable)."""

    code = "unauthenticated"


class TransportError(ApiError):
    """The transport failed before a response envelope arrived.

    ``address`` is the ``host:port`` of the failed connection when known,
    so fleet dispatch can attribute the failure to one replica.
    """

    code = "transport"

    def __init__(self, message: str = "", address: Optional[str] = None):
        super().__init__(message)
        self.address = address


class NoHealthyReplicaError(TransportError):
    """Every fleet replica was ejected or down (raised client-side only)."""

    code = "no_healthy_replica"


#: Wire error code -> exception class (for decoding error responses).
ERROR_CLASSES: Dict[str, Type[ApiError]] = {
    cls.code: cls
    for cls in (
        ApiError, BadSchemaError, SchemaVersionError, UnknownBackendError,
        UnknownModelError, PayloadTooLargeError, OverloadedError, QuotaExceededError,
        DeadlineExceededError, AuthenticationError, TransportError, NoHealthyReplicaError,
    )
}


def error_for_code(
    code: str, message: str, retry_after_ms: Optional[float] = None
) -> ApiError:
    """Instantiate the taxonomy member for a wire error code."""
    cls = ERROR_CLASSES.get(code, ApiError)
    if cls in (OverloadedError, QuotaExceededError):
        return cls(message, retry_after_ms=retry_after_ms)
    return cls(message)
