"""Adaptive graceful degradation: shed *precision* before shedding requests.

The paper's whole premise is that normalization statistics tolerate
controlled fidelity loss -- subsampled statistics (equation (4)) and
predicted ISDs for skip-eligible layers (equation (3)) trade accuracy for
cost.  That gives this serving stack a degradation ladder no generic
system has: under sustained overload an opt-in server steps requests down
those same knobs instead of rejecting them outright.

Ladder levels:

======  ==============================================================
level   meaning
======  ==============================================================
0       full fidelity -- the spec exactly as calibrated
1       forced subsampled statistics (equation (4), ``hidden // 4``
        columns or the calibrated length, whichever is smaller)
2       skip-eligible fast path -- the ISD is *predicted* (equation
        (3)) instead of computed; falls back to level 1 for layers
        with no predictor coefficients available
======  ==============================================================

Every degraded response is stamped with the level actually applied
(``NormResponse.degradation`` / the wire ``degradation`` field), so a
degraded result is never silently substituted for a full-fidelity one:
if the spec the level produces is identical to the calibrated spec, the
stamp stays at the calibrated level's number only when a real change was
made -- :func:`degraded_spec` returns the *applied* level alongside the
spec.

:class:`DegradationLadder` is the controller: it watches the admission
controller's queue-pressure signal and steps the level up under sustained
pressure / down when pressure clears, with hysteresis on both edges so a
noisy queue does not flap the fidelity of adjacent requests.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.engine.spec import EngineSpec

__all__ = ["MAX_LEVEL", "DegradationLadder", "degraded_spec"]

#: Highest ladder level (see the table above).
MAX_LEVEL = 2


def degraded_spec(
    spec: EngineSpec,
    level: int,
    predictor_source: Optional[EngineSpec] = None,
) -> Tuple[EngineSpec, int]:
    """Compile ``spec`` down to ``level``; returns ``(spec, applied_level)``.

    ``applied_level`` is the level whose knobs actually changed the spec
    -- it is what the response must be stamped with.  A level-2 request
    against a layer with no predictor coefficients (own or borrowed via
    ``predictor_source``, typically the spec of one of the artifact's
    calibrated skip-range layers) degrades to level 1 instead; a level
    whose transformation is a no-op (the calibrated spec already ran that
    way) reports the calibrated behaviour as level 0.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"degradation level must be in [0, {MAX_LEVEL}], got {level}")
    if level == 0:
        return spec, 0

    applied = spec
    if level >= 2:
        skipped = _force_skipped(spec, predictor_source)
        if skipped is not None:
            if skipped == spec:
                return spec, 0
            return skipped, 2
        # No predictor coefficients anywhere: the fast path does not
        # exist for this layer, fall through to level 1.

    target = max(1, spec.hidden_size // 4)
    if spec.subsample_length is not None:
        target = min(target, spec.subsample_length)
    applied = spec.with_overrides(subsample_length=target)
    if applied == spec:
        return spec, 0
    return applied, 1


def _force_skipped(
    spec: EngineSpec, predictor_source: Optional[EngineSpec]
) -> Optional[EngineSpec]:
    """``spec`` with ``skipped=True``, or ``None`` without coefficients."""
    if spec.skipped:
        return spec
    if spec.predictor_anchor_log_isd is not None:
        source = spec
    elif (
        predictor_source is not None
        and predictor_source.predictor_anchor_log_isd is not None
    ):
        source = predictor_source
    else:
        return None
    # Extend the coefficient window to cover this layer: equation (3)
    # extrapolates from the anchor, and the borrowed window may have been
    # calibrated for a different skip range.
    last = max(int(source.predictor_last_layer), spec.layer_index)
    anchor = min(int(source.predictor_anchor_layer), spec.layer_index)
    return spec.with_overrides(
        skipped=True,
        predictor_anchor_layer=anchor,
        predictor_last_layer=last,
        predictor_decay=source.predictor_decay,
        predictor_anchor_log_isd=source.predictor_anchor_log_isd,
    )


class DegradationLadder:
    """Hysteresis controller stepping the ladder level with queue pressure.

    ``observe(pressure)`` is called once per admitted request with the
    admission controller's queue occupancy (0.0 empty .. 1.0 at the shed
    bound).  The level steps **up** after ``up_after`` consecutive
    observations above ``high_watermark`` and **down** after
    ``down_after`` consecutive observations below ``low_watermark``; the
    dead band between the watermarks holds the level steady.  Down is
    slower than up by default: recovering fidelity too eagerly re-enters
    overload immediately.

    Thread-safe; shared by every connection of the server.
    """

    def __init__(
        self,
        max_level: int = MAX_LEVEL,
        high_watermark: float = 0.75,
        low_watermark: float = 0.25,
        up_after: int = 8,
        down_after: int = 32,
    ):
        if not 0 <= max_level <= MAX_LEVEL:
            raise ValueError(f"max_level must be in [0, {MAX_LEVEL}], got {max_level}")
        if not 0.0 <= low_watermark < high_watermark <= 1.0:
            raise ValueError(
                f"need 0 <= low_watermark < high_watermark <= 1, got "
                f"{low_watermark!r} / {high_watermark!r}"
            )
        if up_after < 1 or down_after < 1:
            raise ValueError("up_after and down_after must be >= 1")
        self.max_level = max_level
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.up_after = up_after
        self.down_after = down_after
        self._lock = threading.Lock()
        self._level = 0
        self._above = 0
        self._below = 0
        self._step_ups = 0
        self._step_downs = 0
        self._degraded_responses = [0] * (MAX_LEVEL + 1)

    @property
    def level(self) -> int:
        """The ladder level new requests are admitted at."""
        with self._lock:
            return self._level

    def observe(self, pressure: float) -> int:
        """Feed one pressure sample; returns the level to apply."""
        with self._lock:
            if pressure >= self.high_watermark:
                self._above += 1
                self._below = 0
                if self._above >= self.up_after and self._level < self.max_level:
                    self._level += 1
                    self._step_ups += 1
                    self._above = 0
            elif pressure <= self.low_watermark:
                self._below += 1
                self._above = 0
                if self._below >= self.down_after and self._level > 0:
                    self._level -= 1
                    self._step_downs += 1
                    self._below = 0
            else:
                self._above = 0
                self._below = 0
            return self._level

    def record_applied(self, applied_level: int) -> None:
        """Count one response stamped with ``applied_level``."""
        with self._lock:
            self._degraded_responses[applied_level] += 1

    def snapshot(self) -> Dict[str, Any]:
        """Counters for the ``degradation`` telemetry section."""
        with self._lock:
            return {
                "level": self._level,
                "max_level": self.max_level,
                "step_ups": self._step_ups,
                "step_downs": self._step_downs,
                "responses_by_level": {
                    str(lvl): count
                    for lvl, count in enumerate(self._degraded_responses)
                    if count or lvl == 0
                },
            }

    def __repr__(self) -> str:
        return f"DegradationLadder(level={self.level}, max_level={self.max_level})"
