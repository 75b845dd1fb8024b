"""Analytic propagation of ISD prediction error to model outputs.

Tables I and II of the paper show empirically that skipping ISD computation
barely moves task accuracy when the skip range sits in the deep layers, and
destroys it when the range sits early.  This module provides the analytic
counterpart: given the relative error the predictor makes on the ISD, how
large is the perturbation of the normalized activations, and how likely is
it to flip a multiple-choice decision?

The chain is:

1. A relative ISD error ``delta`` perturbs the normalization output
   multiplicatively: ``s = alpha * (z - mu) * ISD + beta``, so the centred
   part of the output is scaled by exactly ``(1 + delta)``.
2. Each perturbed layer injects that relative error into the residual
   stream; layers closer to the output have fewer opportunities for the
   error to be attenuated (or amplified) downstream, which is captured with
   a per-layer attenuation factor.
3. The accumulated logit perturbation is compared against the model's
   decision margins: a flip happens when the perturbation exceeds the
   margin between the top two choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.isd import IsdProfile
from repro.core.predictor import IsdPredictor


def isd_relative_errors(profile: IsdProfile, predictor: IsdPredictor) -> np.ndarray:
    """Per-token, per-layer relative ISD error of the paper's predictor.

    Returns an array of shape ``(num_tokens, num_skipped_layers)`` with
    ``|ISD_pred - ISD_true| / ISD_true`` for every layer the predictor
    covers.
    """
    start, end = predictor.skip_range
    layers = np.arange(start + 1, end + 1)
    anchor = profile.isd_matrix[:, start]
    errors = np.zeros((profile.num_tokens, layers.size))
    for column, layer in enumerate(layers):
        predicted = predictor.predict_from_anchor(anchor, int(layer))
        actual = profile.isd_matrix[:, layer]
        errors[:, column] = np.abs(predicted - actual) / actual
    return errors


def output_relative_error(isd_relative_error: np.ndarray) -> np.ndarray:
    """Relative error of the centred normalization output.

    Because the output is linear in the ISD, the relative error of
    ``alpha * (z - mu) * ISD`` equals the relative error of the ISD itself;
    the affine ``beta`` shift is unaffected.
    """
    return np.asarray(isd_relative_error, dtype=np.float64)


def accumulated_logit_perturbation(
    per_layer_relative_error: np.ndarray,
    attenuation: float = 0.5,
) -> float:
    """Combine per-layer output errors into one relative logit perturbation.

    Layer errors are assumed to be independent zero-mean perturbations that
    are attenuated by downstream processing; combining them in quadrature
    with a per-layer ``attenuation`` factor gives

    ``sqrt(sum_l (attenuation * err_l)^2)``

    which is deliberately conservative (no cancellation assumed beyond
    independence).
    """
    if not 0.0 < attenuation <= 1.0:
        raise ValueError("attenuation must be in (0, 1]")
    arr = np.asarray(per_layer_relative_error, dtype=np.float64)
    per_layer = np.mean(arr, axis=0) if arr.ndim == 2 else arr
    return float(np.sqrt(np.sum((attenuation * per_layer) ** 2)))


def flip_probability(
    logit_perturbation: float,
    margin_mean: float,
    margin_std: float,
) -> float:
    """Probability that a perturbation of the logits flips a decision.

    Decision margins (difference between the best and second-best choice
    log-likelihood) are modelled as Gaussian; a flip happens when the margin
    is smaller than the logit perturbation.  The Gaussian CDF is evaluated in
    closed form, ``Phi(z) = erfc(-z / sqrt(2)) / 2``.
    """
    if margin_std <= 0:
        return float(logit_perturbation >= margin_mean)
    z = (logit_perturbation - margin_mean) / margin_std
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class ErrorPropagationReport:
    """Summary of the analytic error chain for one skip configuration."""

    skip_range: tuple[int, int]
    mean_isd_relative_error: float
    max_isd_relative_error: float
    logit_perturbation: float
    flip_probability: float

    def as_row(self) -> list:
        """Row representation for the table formatter."""
        return [
            f"({self.skip_range[0]}, {self.skip_range[1]})",
            f"{self.mean_isd_relative_error * 100:.2f}%",
            f"{self.max_isd_relative_error * 100:.2f}%",
            f"{self.logit_perturbation * 100:.2f}%",
            f"{self.flip_probability * 100:.2f}%",
        ]

    @staticmethod
    def header() -> list:
        """Column names matching :meth:`as_row`."""
        return ["skip range", "mean ISD err", "max ISD err", "logit perturbation", "flip prob"]


def propagate(
    profile: IsdProfile,
    predictor: IsdPredictor,
    margin_mean: float = 0.5,
    margin_std: float = 0.25,
    attenuation: float = 0.5,
) -> ErrorPropagationReport:
    """Run the full analytic chain for one predictor on one profile."""
    errors = isd_relative_errors(profile, predictor)
    perturbation = accumulated_logit_perturbation(errors, attenuation=attenuation)
    return ErrorPropagationReport(
        skip_range=predictor.skip_range,
        mean_isd_relative_error=float(np.mean(errors)),
        max_isd_relative_error=float(np.max(errors)),
        logit_perturbation=perturbation,
        flip_probability=flip_probability(perturbation, margin_mean, margin_std),
    )


def compare_skip_ranges(
    profile: IsdProfile,
    ranges_and_decays: Dict[tuple[int, int], float],
    **kwargs,
) -> Dict[tuple[int, int], ErrorPropagationReport]:
    """Propagate the error model for several candidate skip ranges.

    This reproduces the qualitative finding of Table II analytically: early
    skip ranges produce large ISD errors and near-certain decision flips,
    deep ranges produce tiny ones.
    """
    reports: Dict[tuple[int, int], ErrorPropagationReport] = {}
    for skip_range, decay in ranges_and_decays.items():
        start, end = skip_range
        anchor_log = float(np.log(profile.isd_matrix[:, start]).mean())
        predictor = IsdPredictor(
            anchor_layer=start, last_layer=end, decay=decay, anchor_log_isd=anchor_log
        )
        reports[skip_range] = propagate(profile, predictor, **kwargs)
    return reports
