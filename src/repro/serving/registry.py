"""Calibration registry: cached HAAN artifacts per (model, dataset) key.

Algorithm 1 (skip-range search) and the predictor fit are offline costs the
serving runtime must never pay per request.  The registry runs them once
per ``(model, dataset)`` pair, caches the resulting artifact -- the served
HAAN normalization layers, the untouched reference layers for golden-model
comparison, the HAAN config and the calibration result -- and evicts
least-recently-used entries once ``capacity`` is exceeded (multi-tenant
deployments rotate through more models than fit in memory).

An artifact holds no projection weights: the loader calibrates with
:func:`repro.core.calibration.calibrate_streamed`, which draws, runs and
drops one transformer block at a time, and keeps only the normalization
layers the online phase serves.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.calibration import (
    CalibrationResult,
    CalibrationSettings,
    build_haan_layers,
    calibrate_streamed,
    resolve_config_and_predictor,
)
from repro.core.config import HaanConfig, PAPER_MODEL_SETTINGS
from repro.core.haan_norm import HaanNormalization
from repro.llm.config import ModelConfig, get_model_config
from repro.llm.normalization import BaseNorm


@dataclass
class CalibrationArtifact:
    """Everything the serving runtime needs for one (model, dataset) pair.

    The HAAN layers it serves, the exact reference layers they wrap, the
    HAAN config and the calibration result -- not the model they were
    calibrated on.
    """

    model_name: str
    dataset: str
    config: HaanConfig
    calibration: CalibrationResult
    haan_layers: List[HaanNormalization]
    reference_layers: List[BaseNorm]

    @property
    def num_layers(self) -> int:
        """Number of servable normalization layers."""
        return len(self.haan_layers)

    @property
    def hidden_size(self) -> int:
        """Width of the activation vectors this artifact normalizes."""
        layers = self.haan_layers or self.reference_layers
        if not layers:
            raise ValueError("artifact has no layers")
        return layers[0].hidden_size

    def layer(self, layer_index: int, reference: bool = False) -> BaseNorm:
        """The HAAN (or exact reference) layer at an execution-order index."""
        layers = self.reference_layers if reference else self.haan_layers
        if not 0 <= layer_index < len(layers):
            raise IndexError(
                f"layer {layer_index} out of range for {self.model_name} "
                f"({len(layers)} normalization layers)"
            )
        return layers[layer_index]


def _dataset_seed(dataset: str) -> int:
    """Deterministic calibration seed derived from the dataset name."""
    return zlib.crc32(dataset.encode("utf-8")) % (2**31)


def default_calibration_settings(
    model_config: ModelConfig, dataset: str = "default"
) -> CalibrationSettings:
    """Serving-grade calibration settings scaled to the model's depth.

    Smaller than the offline-experiment defaults: the registry may calibrate
    on a cache miss in the serving path, so the pass is sized to finish in
    seconds while still fitting the log-linear decay on a real profile.
    """
    num_layers = model_config.num_norm_layers
    return CalibrationSettings(
        num_samples=8,
        max_seq_len=32,
        batch_size=4,
        window=max(2, min(8, num_layers // 3)),
        min_start_fraction=0.3,
        seed=_dataset_seed(dataset),
    )


def default_artifact_loader(
    model_name: str,
    dataset: str = "default",
    settings: Optional[CalibrationSettings] = None,
) -> CalibrationArtifact:
    """Calibrate a model and build the HAAN layers it serves.

    Uses the paper's per-model configuration when one exists (clamped to
    the simulated layer count) and otherwise the shared
    :func:`repro.core.calibration.resolve_config_and_predictor` policy, so
    offline experiments and the serving registry always calibrate a model
    identically.  The calibration pass holds one block's projection weights
    at a time, and the artifact keeps none.
    """
    model_config = get_model_config(model_name)
    settings = settings or default_calibration_settings(model_config, dataset)
    calibration, reference_layers = calibrate_streamed(model_config, settings=settings)
    config = PAPER_MODEL_SETTINGS.get(model_name.strip().lower())
    if (
        config is not None
        and config.skipping_enabled
        and config.skip_range[1] >= model_config.num_norm_layers
    ):
        config = config.with_overrides(skip_range=calibration.skip_range)
    config, predictor = resolve_config_and_predictor(model_config, calibration, config)
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        config=config,
        calibration=calibration,
        haan_layers=build_haan_layers(model_config, reference_layers, config, predictor),
        reference_layers=reference_layers,
    )


ArtifactLoader = Callable[[str, str], CalibrationArtifact]


@dataclass
class RegistryStats:
    """Cache effectiveness counters of the registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CalibrationRegistry:
    """Thread-safe LRU cache of calibration artifacts.

    Parameters
    ----------
    loader:
        ``(model_name, dataset) -> CalibrationArtifact`` factory invoked on a
        miss; defaults to :func:`default_artifact_loader`.  Tests inject a
        cheap loader.
    capacity:
        Maximum number of cached artifacts; the least recently *used* entry
        is evicted when a miss would exceed it.
    known_models:
        The model names this registry can load: a list, a zero-argument
        callable returning one, or ``None`` when the valid set is unknowable
        (custom loaders accept arbitrary names, so validation is skipped
        for them).  Defaults to the built-in model zoo when the default
        loader is used, which lets :meth:`validate_model` fail a bad name
        at ``submit()`` time instead of deep inside the batch executor.
    """

    def __init__(
        self,
        loader: Optional[ArtifactLoader] = None,
        capacity: int = 4,
        known_models=None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if known_models is None and loader is None:
            from repro.llm.config import available_models

            known_models = available_models
        self._known_models = known_models
        #: Cached membership set for the submit()-time hot path; refreshed
        #: on a miss so newly registered models are picked up lazily.
        self._known_model_set: Optional[frozenset] = None
        self._loader = loader or default_artifact_loader
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], CalibrationArtifact]" = OrderedDict()
        self._lock = threading.Lock()
        self._build_done = threading.Condition(self._lock)
        self._in_flight: set = set()
        self.stats = RegistryStats()

    def get(self, model_name: str, dataset: str = "default") -> CalibrationArtifact:
        """Fetch (or build) the artifact for a (model, dataset) pair.

        Calibration can take seconds, so it runs outside the registry lock
        (cache hits for other models are never blocked behind a cold miss)
        with single-flight arbitration: concurrent misses for the same key
        run Algorithm 1 exactly once and the stragglers reuse the result.
        A failed build wakes the waiters and the next one retries --
        serialized, and without leaking per-key state.
        """
        key = (model_name, dataset)
        with self._lock:
            while True:
                artifact = self._entries.get(key)
                if artifact is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return artifact
                if key not in self._in_flight:
                    self._in_flight.add(key)
                    self.stats.misses += 1
                    break
                self._build_done.wait()
        try:
            artifact = self._loader(model_name, dataset)
        except BaseException:
            with self._lock:
                self._in_flight.discard(key)
                self._build_done.notify_all()
            raise
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            self._in_flight.discard(key)
            self._build_done.notify_all()
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return artifact

    def known_model_names(self) -> Optional[List[str]]:
        """Sorted loadable model names, or None when unknowable."""
        known = self._known_models
        if known is None:
            return None
        return sorted(known() if callable(known) else known)

    def validate_model(self, model_name: str) -> None:
        """Fail fast on a model this registry can never load.

        Raises ``ValueError`` listing the registered names; a no-op when
        the valid set is unknowable (custom loader without
        ``known_models``).  The membership set is cached (submit() calls
        this per request) and refreshed once on a miss, so models
        registered after construction are still honored.
        """
        if self._known_models is None:
            return
        key = model_name.strip().lower()
        cached = self._known_model_set
        if cached is not None and key in cached:
            return
        names = self.known_model_names()
        self._known_model_set = frozenset(names)
        if key not in self._known_model_set:
            raise ValueError(
                f"unknown model {model_name!r}; "
                f"registered models: {', '.join(names)}"
            )

    def __contains__(self, key: Tuple[str, str]) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def cached_keys(self) -> List[Tuple[str, str]]:
        """Cached (model, dataset) keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def snapshot(self) -> Dict[str, object]:
        """Registry state for the telemetry endpoint."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "keys": [f"{m}/{d}" for m, d in self._entries],
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "hit_rate": self.stats.hit_rate,
            }
