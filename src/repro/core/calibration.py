"""End-to-end HAAN calibration pipeline.

Ties together the pieces of Section III into the offline flow the paper
describes ("HAAN selects skipped normalization layers offline with minimal
accuracy impact"):

1. run a calibration corpus through the model and record per-layer ISDs
   (:func:`repro.core.isd.profile_model_isd`),
2. search for the skip range with Algorithm 1
   (:func:`repro.core.skipping.find_skip_range_from_profile`),
3. build the log-linear :class:`~repro.core.predictor.IsdPredictor`, and
4. build :class:`~repro.core.haan_norm.HaanNormalization` layers over the
   reference ones (:func:`build_haan_layers`) and install them into the
   model (:func:`apply_haan`), mapping the paper's ``N_sub`` (specified
   against the real hidden size) onto the simulated hidden width.

:func:`calibrate_streamed` runs steps 1-3 without building the model
(:func:`repro.llm.model.stream_statistics`): the online phase needs only
the normalization layers, the config and the calibration result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.isd import IsdProfile, calibration_batches, profile_model_isd
from repro.core.predictor import IsdPredictor
from repro.core.skipping import SkipSearchResult, find_skip_range_from_profile, prediction_error
from repro.core.subsampling import SubsamplePolicy, SubsampleSettings
from repro.llm.config import ModelConfig
from repro.llm.datasets import calibration_texts
from repro.llm.model import TransformerModel, stream_statistics
from repro.llm.normalization import BaseNorm


@dataclass
class CalibrationSettings:
    """Settings of the offline calibration pass."""

    num_samples: int = 100
    max_seq_len: int = 48
    batch_size: int = 8
    window: int = 8
    min_start_fraction: float = 0.5
    grow_threshold: Optional[float] = None
    seed: int = 99

    def min_start(self, num_layers: int) -> int:
        """Earliest layer index Algorithm 1 is allowed to pick as the anchor.

        Table II shows that skipping early layers destroys accuracy, so the
        search is restricted to the later ``(1 - min_start_fraction)`` of the
        network by default.
        """
        return int(num_layers * self.min_start_fraction)


@dataclass
class CalibrationResult:
    """Everything the online phase needs, produced by :func:`calibrate_model`."""

    model_name: str
    profile: IsdProfile
    search: SkipSearchResult
    predictor: IsdPredictor
    settings: CalibrationSettings
    log_isd_prediction_error: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def skip_range(self) -> tuple[int, int]:
        """The selected ``(i_f, j_f)`` skip range."""
        return self.search.skip_range

    @property
    def decay(self) -> float:
        """The calibrated log-ISD decay slope ``e``."""
        return self.search.decay

    def max_prediction_error(self) -> float:
        """Worst-case absolute log-ISD prediction error inside the skip range."""
        if self.log_isd_prediction_error.size == 0:
            return 0.0
        return float(np.max(self.log_isd_prediction_error))


def calibrate_model(
    model: TransformerModel,
    texts: Optional[Sequence[str]] = None,
    settings: Optional[CalibrationSettings] = None,
) -> CalibrationResult:
    """Run the offline calibration flow on a model.

    Parameters
    ----------
    model:
        The model to calibrate (with its reference normalization layers).
    texts:
        Calibration documents; defaults to the synthetic Wikitext stand-in
        with ``settings.num_samples`` documents.
    settings:
        Calibration hyper-parameters.
    """
    settings = settings or CalibrationSettings()
    profile = profile_model_isd(
        model,
        _calibration_texts(texts, settings),
        max_seq_len=settings.max_seq_len,
        batch_size=settings.batch_size,
    )
    return calibrate_profile(model.config.name, profile, settings)


def calibrate_streamed(
    model_config: ModelConfig,
    texts: Optional[Sequence[str]] = None,
    settings: Optional[CalibrationSettings] = None,
) -> Tuple[CalibrationResult, List[BaseNorm]]:
    """:func:`calibrate_model` of a model that is never built whole.

    Holds one block's weights at a time and returns the calibration result,
    bit-identical to :func:`calibrate_model` on the built model, together
    with the model's reference normalization layers in execution order.
    """
    settings = settings or CalibrationSettings()
    batches = calibration_batches(
        model_config,
        _calibration_texts(texts, settings),
        settings.max_seq_len,
        settings.batch_size,
    )
    trace, norm_layers = stream_statistics(model_config, batches)
    return calibrate_profile(model_config.name, IsdProfile.from_trace(trace), settings), norm_layers


def _calibration_texts(
    texts: Optional[Sequence[str]], settings: CalibrationSettings
) -> Sequence[str]:
    if texts is None:
        return calibration_texts(settings.num_samples, seed=settings.seed)
    return texts


def calibrate_profile(
    model_name: str, profile: IsdProfile, settings: CalibrationSettings
) -> CalibrationResult:
    """Algorithm 1 and the predictor fit over a recorded ISD profile."""
    search = find_skip_range_from_profile(
        profile,
        window=settings.window,
        min_start=settings.min_start(profile.num_layers),
        grow_threshold=settings.grow_threshold,
    )
    predictor = IsdPredictor.from_search_result(search)
    errors = prediction_error(profile.mean_log_isd(), search)
    return CalibrationResult(
        model_name=model_name,
        profile=profile,
        search=search,
        predictor=predictor,
        settings=settings,
        log_isd_prediction_error=errors,
    )


def build_predictor_for_range(
    profile: IsdProfile, skip_range: tuple[int, int]
) -> IsdPredictor:
    """Fit a predictor for a *given* skip range (used by the Table II ablation).

    The ablation sweeps skip ranges that Algorithm 1 would not have chosen;
    the predictor coefficients are still fit from the calibration profile
    over that range, exactly as the online phase would use them.
    """
    start, end = skip_range
    log_isd = profile.mean_log_isd()
    if not 0 <= start < end < profile.num_layers:
        raise ValueError(
            f"skip range {skip_range} outside the model's {profile.num_layers} layers"
        )
    from repro.core.skipping import cal_decay  # local import to avoid a cycle

    decay = cal_decay(log_isd[start : end + 1])
    return IsdPredictor(
        anchor_layer=start,
        last_layer=end,
        decay=decay,
        anchor_log_isd=float(log_isd[start]),
    )


def build_haan_layers(
    model_config: ModelConfig,
    norm_layers: Sequence[BaseNorm],
    config: HaanConfig,
    predictor: Optional[IsdPredictor] = None,
    subsample_policy: SubsamplePolicy = SubsamplePolicy.TRUNCATE,
) -> List[HaanNormalization]:
    """One :class:`HaanNormalization` per reference layer, sharing its affine parameters.

    ``config.subsample_length`` is interpreted against the real model hidden
    size and mapped proportionally onto the simulation width via
    :meth:`repro.llm.config.ModelConfig.scale_subsample_length`.
    """
    if config.skipping_enabled and predictor is None:
        raise ValueError("a predictor is required when the skip range is enabled")
    subsample = None
    if config.subsampling_enabled:
        sim_length = model_config.scale_subsample_length(config.subsample_length)
        subsample = SubsampleSettings(length=sim_length, policy=subsample_policy)
    return [
        HaanNormalization(
            base=base,
            predictor=predictor if config.skipping_enabled else None,
            subsample=subsample,
            data_format=config.data_format,
            subsample_mean=config.subsample_mean,
            use_hardware_inv_sqrt=config.use_hardware_inv_sqrt,
            newton_iterations=config.newton_iterations,
        )
        for base in norm_layers
    ]


def apply_haan(
    model: TransformerModel,
    config: HaanConfig,
    predictor: Optional[IsdPredictor] = None,
    subsample_policy: SubsamplePolicy = SubsamplePolicy.TRUNCATE,
) -> List[HaanNormalization]:
    """Install HAAN normalization layers into a model, in place.

    Every reference normalization layer is replaced by its
    :func:`build_haan_layers` counterpart.  Returns the list of installed
    layers (execution order) for inspection.
    """
    installed = build_haan_layers(
        model.config, model.norm_layers, config, predictor, subsample_policy
    )
    for layer_index, haan_layer in enumerate(installed):
        model.replace_norm_layer(layer_index, haan_layer)
    return installed


def restore_reference_norms(model: TransformerModel, originals: Sequence[BaseNorm]) -> None:
    """Put back the original normalization layers (undo :func:`apply_haan`)."""
    if len(originals) != model.num_norm_layers:
        raise ValueError("original layer list does not match the model")
    for layer_index, layer in enumerate(originals):
        model.replace_norm_layer(layer_index, layer)


def resolve_config_and_predictor(
    model_config: ModelConfig,
    calibration: CalibrationResult,
    config: Optional[HaanConfig] = None,
) -> tuple[HaanConfig, IsdPredictor]:
    """Default-config and predictor-refit policy shared by the offline
    :func:`build_haan_model` flow and the serving calibration registry.

    When ``config`` is omitted, the skip range comes from Algorithm 1's own
    choice on the calibration profile and the subsample length defaults to
    half the hidden size (the setting used for GPT-2 in Section V-B).  When
    a config requests a skip range other than the calibrated one, the
    predictor is refit over that range from the same profile.
    """
    if config is None:
        config = HaanConfig(
            skip_range=calibration.skip_range,
            subsample_length=model_config.hidden_size // 2,
        )
    if config.skipping_enabled and config.skip_range != calibration.skip_range:
        predictor = build_predictor_for_range(calibration.profile, config.skip_range)
    else:
        predictor = calibration.predictor
    return config, predictor


def build_haan_model(
    model_name: str,
    config: Optional[HaanConfig] = None,
    calibration: Optional[CalibrationResult] = None,
    settings: Optional[CalibrationSettings] = None,
    **model_overrides,
) -> tuple[TransformerModel, CalibrationResult, HaanConfig]:
    """Convenience entry point: build, calibrate and HAAN-ify a model."""
    model = TransformerModel.from_name(model_name, **model_overrides)
    calibration = calibration or calibrate_model(model, settings=settings)
    config, predictor = resolve_config_and_predictor(model.config, calibration, config)
    apply_haan(model, config, predictor=predictor)
    return model, calibration, config
