"""Tests for alternative ISD predictors and the analytic error-propagation model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.error_model import (
    ErrorPropagationReport,
    accumulated_logit_perturbation,
    compare_skip_ranges,
    flip_probability,
    isd_relative_errors,
    output_relative_error,
    propagate,
)
from repro.core.isd import IsdProfile
from repro.core.predictor import IsdPredictor
from repro.core.predictors import (
    AnchoredLogLinearPredictor,
    CalibrationMeanPredictor,
    FlatAnchorPredictor,
    LeastSquaresPredictor,
    evaluate_predictors,
    evaluate_strategy,
    rank_strategies,
)


def synthetic_profile(
    num_tokens: int = 32,
    num_layers: int = 48,
    decay: float = -0.05,
    noise: float = 0.01,
    seed: int = 0,
) -> IsdProfile:
    """Log-linear ISD profile with per-token offsets and small noise.

    Mirrors the structure the paper observes (Figure 2): log-ISD decreases
    roughly linearly with depth, each token riding its own offset.
    """
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, 0.3, size=(num_tokens, 1))
    layers = np.arange(num_layers)[None, :]
    log_isd = offsets + decay * layers + rng.normal(0.0, noise, size=(num_tokens, num_layers))
    return IsdProfile(
        layer_names=[f"layer-{i}" for i in range(num_layers)],
        isd_matrix=np.exp(log_isd),
    )


SKIP_RANGE = (36, 46)
DECAY = -0.05


class TestPredictionStrategies:
    def test_anchored_predictor_shape(self):
        profile = synthetic_profile()
        predicted = AnchoredLogLinearPredictor(decay=DECAY).predict_log_isd(profile, SKIP_RANGE)
        assert predicted.shape == (profile.num_tokens, SKIP_RANGE[1] - SKIP_RANGE[0])

    def test_anchored_predictor_is_accurate_on_log_linear_data(self):
        profile = synthetic_profile(noise=0.005)
        evaluation = evaluate_strategy(
            AnchoredLogLinearPredictor(decay=DECAY), profile, SKIP_RANGE
        )
        assert evaluation.mean_abs_log_error < 0.05
        assert evaluation.mean_relative_isd_error < 0.05

    def test_flat_anchor_worse_than_anchored(self):
        profile = synthetic_profile()
        results = evaluate_predictors(profile, SKIP_RANGE, decay=DECAY)
        assert (
            results["anchored-log-linear"].mean_abs_log_error
            < results["flat-anchor"].mean_abs_log_error
        )

    def test_calibration_mean_ignores_token_variation(self):
        profile = synthetic_profile()
        results = evaluate_predictors(profile, SKIP_RANGE, decay=DECAY)
        # Per-token offsets are +/-0.3 in log domain, so a static predictor
        # cannot do better than that spread.
        assert results["calibration-mean"].mean_abs_log_error > 0.1

    def test_least_squares_competitive_with_anchored(self):
        profile = synthetic_profile(noise=0.005)
        results = evaluate_predictors(profile, SKIP_RANGE, decay=DECAY)
        assert results["least-squares-window"].mean_abs_log_error < 0.1

    def test_least_squares_requires_window(self):
        profile = synthetic_profile()
        with pytest.raises(ValueError):
            LeastSquaresPredictor(window=1).predict_log_isd(profile, (0, 5))

    def test_ranking_orders_by_error(self):
        profile = synthetic_profile()
        results = evaluate_predictors(profile, SKIP_RANGE, decay=DECAY)
        ranking = rank_strategies(results)
        errors = [results[name].mean_abs_log_error for name in ranking]
        assert errors == sorted(errors)
        assert ranking[0] in ("anchored-log-linear", "least-squares-window")

    def test_wrong_decay_hurts_anchored_predictor(self):
        profile = synthetic_profile()
        right = evaluate_strategy(AnchoredLogLinearPredictor(decay=DECAY), profile, SKIP_RANGE)
        wrong = evaluate_strategy(AnchoredLogLinearPredictor(decay=-0.5), profile, SKIP_RANGE)
        assert right.mean_abs_log_error < wrong.mean_abs_log_error

    def test_custom_strategy_list(self):
        profile = synthetic_profile()
        results = evaluate_predictors(
            profile, SKIP_RANGE, decay=DECAY, strategies=[FlatAnchorPredictor()]
        )
        assert set(results) == {"flat-anchor"}

    def test_evaluation_row_format(self):
        profile = synthetic_profile()
        evaluation = evaluate_strategy(FlatAnchorPredictor(), profile, SKIP_RANGE)
        row = evaluation.as_row()
        assert row[0] == "flat-anchor"
        assert len(row) == 4

    def test_calibration_profile_transfer(self):
        calibration = synthetic_profile(seed=1)
        downstream = synthetic_profile(seed=2)
        strategy = CalibrationMeanPredictor(calibration)
        evaluation = evaluate_strategy(strategy, downstream, SKIP_RANGE)
        assert evaluation.mean_abs_log_error > 0


class TestErrorPropagation:
    def _predictor(self, profile: IsdProfile, skip_range=SKIP_RANGE, decay=DECAY) -> IsdPredictor:
        anchor_log = float(np.log(profile.isd_matrix[:, skip_range[0]]).mean())
        return IsdPredictor(
            anchor_layer=skip_range[0],
            last_layer=skip_range[1],
            decay=decay,
            anchor_log_isd=anchor_log,
        )

    def test_relative_errors_shape_and_magnitude(self):
        profile = synthetic_profile(noise=0.005)
        errors = isd_relative_errors(profile, self._predictor(profile))
        assert errors.shape == (profile.num_tokens, SKIP_RANGE[1] - SKIP_RANGE[0])
        assert float(np.mean(errors)) < 0.05

    def test_output_error_equals_isd_error(self):
        errors = np.array([[0.01, 0.02], [0.03, 0.04]])
        np.testing.assert_array_equal(output_relative_error(errors), errors)

    def test_accumulation_grows_with_layer_count(self):
        few = accumulated_logit_perturbation(np.full((4, 2), 0.02))
        many = accumulated_logit_perturbation(np.full((4, 10), 0.02))
        assert many > few

    def test_accumulation_attenuation_bounds(self):
        with pytest.raises(ValueError):
            accumulated_logit_perturbation(np.full(3, 0.01), attenuation=0.0)
        with pytest.raises(ValueError):
            accumulated_logit_perturbation(np.full(3, 0.01), attenuation=1.5)

    def test_flip_probability_monotone_in_perturbation(self):
        small = flip_probability(0.01, margin_mean=0.5, margin_std=0.25)
        large = flip_probability(1.0, margin_mean=0.5, margin_std=0.25)
        assert small < large
        assert 0.0 <= small <= 1.0

    def test_flip_probability_degenerate_margin(self):
        assert flip_probability(0.6, margin_mean=0.5, margin_std=0.0) == 1.0
        assert flip_probability(0.4, margin_mean=0.5, margin_std=0.0) == 0.0

    # Reference standard normal CDF values, computed with scipy.stats.norm.cdf.
    GOLDEN_PHI = {
        -8.0: 6.22096057427174e-16,
        -3.0: 0.0013498980316300933,
        -1.0: 0.15865525393145707,
        -0.5: 0.3085375387259869,
        0.0: 0.5,
        0.5: 0.6914624612740131,
        1.0: 0.8413447460685429,
        3.0: 0.9986501019683699,
        8.0: 0.9999999999999993,
    }

    @pytest.mark.parametrize("z", sorted(GOLDEN_PHI))
    def test_flip_probability_golden_normal_cdf(self, z):
        phi = flip_probability(z, margin_mean=0.0, margin_std=1.0)
        assert math.isclose(phi, self.GOLDEN_PHI[z], rel_tol=1e-13, abs_tol=1e-16)
        mirrored = flip_probability(-z, margin_mean=0.0, margin_std=1.0)
        assert math.isclose(mirrored, 1.0 - phi, rel_tol=1e-13, abs_tol=1e-16)

    def test_propagate_report_fields(self):
        profile = synthetic_profile(noise=0.005)
        report = propagate(profile, self._predictor(profile))
        assert report.skip_range == SKIP_RANGE
        assert report.max_isd_relative_error >= report.mean_isd_relative_error
        assert 0.0 <= report.flip_probability <= 1.0
        assert len(report.as_row()) == len(ErrorPropagationReport.header())

    def test_deep_skip_range_safer_than_early(self):
        """Analytic counterpart of the Table II skip-range ablation."""
        # Early layers deviate strongly from the deep-layer log-linear trend.
        rng = np.random.default_rng(3)
        num_tokens, num_layers = 24, 64
        layers = np.arange(num_layers)[None, :]
        early_curve = 1.5 * np.exp(-layers / 6.0)  # fast non-linear decay early on
        log_isd = early_curve - 0.04 * layers + rng.normal(0, 0.01, size=(num_tokens, num_layers))
        log_isd += rng.normal(0, 0.2, size=(num_tokens, 1))
        profile = IsdProfile(
            layer_names=[f"l{i}" for i in range(num_layers)], isd_matrix=np.exp(log_isd)
        )
        reports = compare_skip_ranges(
            profile, {(10, 20): -0.04, (50, 60): -0.04}
        )
        assert reports[(10, 20)].mean_isd_relative_error > reports[(50, 60)].mean_isd_relative_error
        assert reports[(10, 20)].flip_probability >= reports[(50, 60)].flip_probability
