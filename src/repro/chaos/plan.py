"""Deterministic fault plans: the seed is the whole experiment.

A :class:`FaultPlan` is a seeded, JSON-serializable list of
:class:`FaultRule` entries.  Faults are *drawn*, not hard-coded: each rule
gets its own :class:`random.Random` stream seeded from ``(plan.seed, rule
index, scope)``, so the decision sequence for a given sequence of frames
is a pure function of the plan -- two injectors built from the same plan
and scope replay the *identical* fault schedule, whether they sit
client-side (:class:`~repro.chaos.transport.ChaosTransport`) or
server-side (:class:`~repro.chaos.gate.FaultGate`).  ``random.Random``
seeds strings via SHA-512 of their bytes, so the streams are stable
across processes and ``PYTHONHASHSEED`` values.

Rule kinds (the paper system's realistic failure surface):

===================  ======================================================
``delay``            Sleep ``delay_ms`` before handling/sending the frame.
``drop``             Swallow the frame (client: request fails typed;
                     server: the client's deadline fires).
``corrupt``          Client: mangle the envelope so the server answers a
                     typed schema error.  Server: answer with deterministic
                     garbage bytes so the client's frame decoder fails
                     closed.
``refuse_connect``   Client-only: fail the dial before any frame is sent
                     (a *clean* failure for the retry discipline).
``slow_drain``       Handle normally, then stall ``delay_ms`` -- a choking
                     peer rather than a dead one.
``kill_after``       After ``after_n`` frames, kill the connection
                     (client: force-close the pooled sockets; server: drop
                     the TCP link mid-conversation).
===================  ======================================================
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "canned_plan",
]

FAULT_KINDS = frozenset(
    {"delay", "drop", "corrupt", "refuse_connect", "slow_drain", "kill_after"}
)


@dataclass(frozen=True)
class FaultRule:
    """One fault source: what to inject, where, and how often.

    ``op``/``replica`` scope the rule (``None`` matches everything);
    ``probability`` is drawn per matching frame from the rule's own RNG
    stream; ``max_hits`` bounds total injections (``kill_after`` defaults
    to one kill, everything else to unlimited).
    """

    kind: str
    op: Optional[str] = None
    replica: Optional[str] = None
    probability: float = 1.0
    delay_ms: float = 0.0
    after_n: int = 0
    max_hits: Optional[int] = None
    corrupt_bytes: int = 64

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability!r}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms!r}")
        if self.after_n < 0:
            raise ValueError(f"after_n must be >= 0, got {self.after_n!r}")
        if self.max_hits is not None and self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1, got {self.max_hits!r}")
        if self.corrupt_bytes < 1:
            raise ValueError(f"corrupt_bytes must be >= 1, got {self.corrupt_bytes!r}")
        if self.kind in ("delay", "slow_drain") and self.delay_ms == 0:
            raise ValueError(f"{self.kind} rule needs delay_ms > 0")

    @property
    def hit_limit(self) -> Optional[int]:
        """Effective injection bound: a kill fires once unless told otherwise."""
        if self.max_hits is not None:
            return self.max_hits
        return 1 if self.kind == "kill_after" else None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.op is not None:
            out["op"] = self.op
        if self.replica is not None:
            out["replica"] = self.replica
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.delay_ms:
            out["delay_ms"] = self.delay_ms
        if self.after_n:
            out["after_n"] = self.after_n
        if self.max_hits is not None:
            out["max_hits"] = self.max_hits
        if self.corrupt_bytes != 64:
            out["corrupt_bytes"] = self.corrupt_bytes
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"fault rule must be an object, got {type(data).__name__}")
        known = {
            "kind",
            "op",
            "replica",
            "probability",
            "delay_ms",
            "after_n",
            "max_hits",
            "corrupt_bytes",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault rule field(s): {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("fault rule is missing 'kind'")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded rule list -- serializable, hence shippable to CI."""

    seed: int
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def injector(self, scope: str = "wire", replica: Optional[str] = None) -> "FaultInjector":
        """A fresh injector replaying this plan's schedule from frame one."""
        return FaultInjector(self, scope=scope, replica=replica)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be an object, got {type(data).__name__}")
        seed = data.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"fault plan seed must be an integer, got {seed!r}")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise ValueError("fault plan 'rules' must be a list")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"fault plan name must be a string, got {name!r}")
        return cls(
            seed=seed,
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
            name=name,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from error
        return cls.from_dict(data)


@dataclass(frozen=True)
class FaultAction:
    """One injected fault, ready to apply.

    ``kind`` is the rule kind on the client side; the server-side
    :class:`~repro.chaos.gate.FaultGate` translates it to the action set
    :class:`~repro.api.aserver.AsyncNormServer` consumes (``delay`` / ``drop`` /
    ``corrupt`` / ``kill``).  ``data`` carries the deterministic garbage
    bytes of a ``corrupt`` fault.
    """

    kind: str
    delay_s: float = 0.0
    data: bytes = b""
    rule_index: int = -1


class FaultInjector:
    """Replays a plan's fault schedule over a sequence of frames.

    Thread-safe.  Determinism contract: two injectors built from the same
    ``(plan, scope, replica)`` that observe the same op sequence make the
    same decisions -- the property :mod:`tests.test_chaos` pins down.
    """

    def __init__(self, plan: FaultPlan, scope: str = "wire", replica: Optional[str] = None):
        self.plan = plan
        self.scope = scope
        self.replica = replica
        self._lock = threading.Lock()
        self._frames = 0
        self._hits = [0] * len(plan.rules)
        # One independent stream per rule: adding a rule never perturbs
        # the schedule of the rules before it.
        self._rngs = [
            random.Random(f"{plan.seed}:{index}:{scope}")
            for index in range(len(plan.rules))
        ]

    def decide(self, op: Optional[str] = None) -> Optional[FaultAction]:
        """The fault (if any) for the next frame; first matching rule wins."""
        with self._lock:
            self._frames += 1
            frame = self._frames
            for index, rule in enumerate(self.plan.rules):
                if rule.op is not None and rule.op != op:
                    continue
                if rule.replica is not None and rule.replica != self.replica:
                    continue
                limit = rule.hit_limit
                if limit is not None and self._hits[index] >= limit:
                    continue
                if rule.kind == "kill_after" and frame <= rule.after_n:
                    continue
                rng = self._rngs[index]
                if rule.probability < 1.0 and rng.random() >= rule.probability:
                    continue
                self._hits[index] += 1
                data = b""
                if rule.kind == "corrupt":
                    data = bytes(rng.getrandbits(8) for _ in range(rule.corrupt_bytes))
                return FaultAction(
                    kind=rule.kind,
                    delay_s=rule.delay_ms / 1000.0,
                    data=data,
                    rule_index=index,
                )
            return None

    def trace(self, ops: Sequence[Optional[str]]) -> List[Optional[str]]:
        """Decision kinds for a whole op sequence (property-test helper)."""
        return [
            action.kind if action is not None else None
            for action in (self.decide(op) for op in ops)
        ]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "frames": self._frames,
                "hits": list(self._hits),
                "injected": sum(self._hits),
            }


def canned_plan() -> FaultPlan:
    """The CI smoke plan: background delay, one mid-run kill, 5% corruption."""
    return FaultPlan(
        seed=7,
        name="ci-smoke",
        rules=(
            FaultRule(kind="delay", probability=0.2, delay_ms=2.0),
            FaultRule(kind="kill_after", after_n=10),
            FaultRule(kind="corrupt", probability=0.05),
        ),
    )
