"""Tenant identity: declared tenants, bearer-token auth, tier resolution.

Tenants are declared in a JSON tenant file (``haan-serve --tenants``)::

    {
      "tiers": {
        "default": {"requests_per_s": 100, "rows_per_s": 100000,
                    "bytes_per_s": 67108864, "burst_seconds": 1.0},
        "gold":    {"requests_per_s": 1000, "rows_per_s": null}
      },
      "tenants": [
        {"name": "acme", "token": "s3cr3t-acme", "tier": "gold",
         "balance": 1e9},
        {"name": "trial", "token": "s3cr3t-trial"}
      ]
    }

``tiers`` maps tier names to :class:`~repro.tenancy.quota.QuotaPolicy`
fields (missing fields take the policy defaults, ``null`` means
unlimited); ``tenants`` declares name, bearer token, tier (``default`` if
omitted) and an optional prepaid ``balance`` in modelled cycles.

Authentication happens once per connection, in the ``hello``
handshake: the client's ``token`` is compared against every declared
token with :func:`hmac.compare_digest` (constant-time per comparison, and
the scan always visits the full directory, so timing reveals neither the
match position nor near-misses).  A valid token stamps the connection
with a :class:`TenantContext`; an *invalid* token always fails typed
(bad credentials are never silently downgraded to anonymous); a missing
token yields the anonymous default-tier context unless ``require_auth``.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.api.envelopes import AuthenticationError
from repro.tenancy.quota import DEFAULT_TIER, QuotaPolicy

__all__ = ["ANONYMOUS", "TenantContext", "TenantDirectory", "TenantSpec"]

#: Ledger/metrics account name of unauthenticated connections.
ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class TenantSpec:
    """One declared tenant: identity, credential, tier, optional prepaid balance."""

    name: str
    token: str
    tier: str = DEFAULT_TIER
    #: Prepaid credit in modelled cycles (None = post-paid / unlimited).
    balance: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"tenant name must be a non-empty string, got {self.name!r}")
        if self.name == ANONYMOUS:
            raise ValueError(f"tenant name {ANONYMOUS!r} is reserved for unauthenticated access")
        if not self.token or not isinstance(self.token, str):
            raise ValueError(f"tenant {self.name!r} needs a non-empty string token")

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], where: str = "tenant") -> "TenantSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(payload).__name__}")
        known = {"name", "token", "tier", "balance"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"{where} has unknown keys {sorted(unknown)}; knows {sorted(known)}")
        balance = payload.get("balance")
        if balance is not None and (isinstance(balance, bool) or not isinstance(balance, (int, float))):
            raise ValueError(f"{where}.balance must be a number or null, got {balance!r}")
        return cls(
            name=payload.get("name", ""),
            token=payload.get("token", ""),
            tier=payload.get("tier", DEFAULT_TIER),
            balance=None if balance is None else float(balance),
        )


@dataclass(frozen=True)
class TenantContext:
    """What a connection knows about its caller after the hello handshake."""

    name: str
    tier: str = DEFAULT_TIER
    authenticated: bool = False


#: The context unauthenticated connections run under (no ``--require-auth``).
ANONYMOUS_CONTEXT = TenantContext(name=ANONYMOUS, tier=DEFAULT_TIER, authenticated=False)


class TenantDirectory:
    """Declared tenants + tiers; resolves tokens to :class:`TenantContext`."""

    def __init__(
        self,
        tenants: Tuple[TenantSpec, ...] = (),
        tiers: Optional[Dict[str, QuotaPolicy]] = None,
        require_auth: bool = False,
    ):
        self.tenants: Tuple[TenantSpec, ...] = tuple(tenants)
        self.tiers: Dict[str, QuotaPolicy] = dict(tiers or {})
        self.tiers.setdefault(DEFAULT_TIER, QuotaPolicy())
        self.require_auth = require_auth
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate tenant names in tenant file: {dupes}")
        tokens = [spec.token for spec in self.tenants]
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in tenant file: every token must be unique")
        for spec in self.tenants:
            if spec.tier not in self.tiers:
                raise ValueError(
                    f"tenant {spec.name!r} names unknown tier {spec.tier!r}; "
                    f"declared tiers: {sorted(self.tiers)}"
                )

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], require_auth: bool = False) -> "TenantDirectory":
        """Build from the tenant-file JSON structure (see module docstring)."""
        if not isinstance(payload, dict):
            raise ValueError(f"tenant file must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - {"tenants", "tiers"}
        if unknown:
            raise ValueError(f"tenant file has unknown keys {sorted(unknown)}")
        tiers: Dict[str, QuotaPolicy] = {}
        raw_tiers = payload.get("tiers", {})
        if not isinstance(raw_tiers, dict):
            raise ValueError("tenant file 'tiers' must be an object of tier -> policy")
        for name, entry in raw_tiers.items():
            tiers[name] = QuotaPolicy.from_dict(entry, where=f"tiers[{name!r}]")
        raw_tenants = payload.get("tenants", [])
        if not isinstance(raw_tenants, list):
            raise ValueError("tenant file 'tenants' must be a list")
        tenants = tuple(
            TenantSpec.from_dict(entry, where=f"tenants[{index}]")
            for index, entry in enumerate(raw_tenants)
        )
        return cls(tenants=tenants, tiers=tiers, require_auth=require_auth)

    @classmethod
    def from_file(cls, path: str, require_auth: bool = False) -> "TenantDirectory":
        """Load a tenant file from disk."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"tenant file {path} is not valid JSON: {error}") from error
        return cls.from_dict(payload, require_auth=require_auth)

    # -- resolution ----------------------------------------------------

    def authenticate(self, token: Optional[str]) -> TenantContext:
        """Resolve a hello token to a :class:`TenantContext`, or raise.

        * valid token -> the tenant's authenticated context;
        * invalid token -> :class:`AuthenticationError` *always* (a bad
          credential is an error, never a silent anonymous downgrade);
        * no token -> anonymous default-tier context, unless
          ``require_auth`` (then :class:`AuthenticationError`).
        """
        if token is None:
            if self.require_auth:
                raise AuthenticationError(
                    "this server requires a tenant bearer token "
                    "(connect with token=... / --token)"
                )
            return ANONYMOUS_CONTEXT
        matched: Optional[TenantSpec] = None
        encoded = token.encode("utf-8")
        for spec in self.tenants:
            # Full-directory scan with constant-time compares: neither the
            # match position nor prefix overlap leaks through timing.
            if hmac.compare_digest(spec.token.encode("utf-8"), encoded):
                matched = spec
        if matched is None:
            raise AuthenticationError("unknown tenant bearer token")
        return TenantContext(name=matched.name, tier=matched.tier, authenticated=True)

    def spec(self, name: str) -> Optional[TenantSpec]:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        return None

    def policy_for(self, tier: str) -> QuotaPolicy:
        """The tier's policy (unknown tiers fall back to the default tier)."""
        return self.tiers.get(tier, self.tiers[DEFAULT_TIER])

    def __len__(self) -> int:
        return len(self.tenants)

    def __repr__(self) -> str:
        return (
            f"TenantDirectory(tenants={len(self.tenants)}, "
            f"tiers={sorted(self.tiers)}, require_auth={self.require_auth})"
        )
