"""Address parsing shared by the wire server core and the tools around it.

:class:`~repro.api.aserver.AsyncNormServer` is the TCP front of a
:class:`~repro.serving.service.NormalizationService`; the CLIs, the
``remote`` backend and the fleet name its address as ``host:port``.
"""

from __future__ import annotations

from typing import Tuple


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (host may be empty for all interfaces)."""
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host or "0.0.0.0", int(port)
