"""Inverse-standard-deviation (ISD) statistics and analysis.

Section III-A of the paper studies the distribution of the ISD (``1/sigma``)
of normalization-layer inputs across the depth of an LLM and observes that
(a) it decays with depth and (b) its logarithm is close to linear over the
deeper layers.  This module provides the measurement and analysis utilities
behind that study: direct ISD computation, layer-wise profiling of a model,
Pearson correlation against layer index, and linear fitting in the log
domain (the ``calDecay`` of Algorithm 1 lives in
:mod:`repro.core.skipping`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.llm.config import ModelConfig, NormKind
from repro.llm.hooks import StatisticsTrace
from repro.llm.model import TransformerModel
from repro.llm.tokenizer import Tokenizer


def compute_isd(rows: np.ndarray, kind: NormKind = NormKind.LAYERNORM, eps: float = 1e-5) -> np.ndarray:
    """Per-row ISD of a ``(num_rows, hidden)`` array.

    For LayerNorm the ISD is ``1/sqrt(var + eps)``; for RMSNorm it is
    ``1/sqrt(mean(x^2) + eps)`` (no re-centering).
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if kind is NormKind.LAYERNORM:
        spread = arr.var(axis=1)
    else:
        spread = np.mean(np.square(arr), axis=1)
    return 1.0 / np.sqrt(spread + eps)


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length sequences.

    Returns 0.0 for degenerate inputs (fewer than two points or zero
    variance), which keeps Algorithm 1 well-defined on flat ISD profiles.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.size != y_arr.size:
        raise ValueError("sequences must have equal length")
    if x_arr.size < 2:
        return 0.0
    x_std = np.std(x_arr)
    y_std = np.std(y_arr)
    if x_std == 0.0 or y_std == 0.0:
        return 0.0
    cov = np.mean((x_arr - x_arr.mean()) * (y_arr - y_arr.mean()))
    return float(cov / (x_std * y_std))


def linear_fit(indices: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of ``values`` against ``indices``."""
    x_arr = np.asarray(indices, dtype=np.float64)
    y_arr = np.asarray(values, dtype=np.float64)
    if x_arr.size < 2:
        raise ValueError("need at least two points for a linear fit")
    slope, intercept = np.polyfit(x_arr, y_arr, deg=1)
    return float(slope), float(intercept)


@dataclass
class IsdProfile:
    """Per-layer ISD profile of one model over a token population.

    Attributes
    ----------
    layer_names:
        Normalization-layer names, execution order.
    isd_matrix:
        ``(num_tokens, num_layers)`` matrix of ISD samples.
    """

    layer_names: List[str]
    isd_matrix: np.ndarray

    @property
    def num_layers(self) -> int:
        return self.isd_matrix.shape[1]

    @property
    def num_tokens(self) -> int:
        return self.isd_matrix.shape[0]

    def mean_isd(self) -> np.ndarray:
        """Per-layer mean ISD."""
        return np.mean(self.isd_matrix, axis=0)

    def mean_log_isd(self) -> np.ndarray:
        """Per-layer mean of ``log(ISD)`` -- the Figure 2 curve."""
        return np.mean(np.log(self.isd_matrix), axis=0)

    def log_isd_of_token(self, token_index: int) -> np.ndarray:
        """Per-layer ``log(ISD)`` of one token (one line of Figure 2)."""
        return np.log(self.isd_matrix[token_index])

    def correlation_with_depth(self, start: int = 0, end: Optional[int] = None) -> float:
        """Pearson correlation of mean log-ISD against layer index over [start, end)."""
        end = self.num_layers if end is None else end
        values = self.mean_log_isd()[start:end]
        return pearson_correlation(np.arange(start, end), values)

    def tail_linearity(self, tail_fraction: float = 0.33) -> float:
        """Correlation over the deepest ``tail_fraction`` of layers.

        The paper's observation is that this is strongly negative (close to
        -1) for the models it profiles.
        """
        if not 0.0 < tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")
        start = int(self.num_layers * (1.0 - tail_fraction))
        return self.correlation_with_depth(start=start)

    def decay_slope(self, start: int, end: int) -> float:
        """Slope of mean log-ISD against layer index over [start, end]."""
        indices = np.arange(start, end + 1)
        values = self.mean_log_isd()[start : end + 1]
        slope, _ = linear_fit(indices, values)
        return slope

    @classmethod
    def from_trace(cls, trace: StatisticsTrace) -> "IsdProfile":
        """Build a profile from a recorded statistics trace."""
        return cls(layer_names=list(trace.layer_names), isd_matrix=trace.isd_matrix())


def calibration_batches(
    config: ModelConfig, texts: Sequence[str], max_seq_len: int, batch_size: int
) -> List[np.ndarray]:
    """Tokenize texts into the padded ``(batch, seq)`` id batches a profile runs."""
    tokenizer = Tokenizer(vocab_size=config.vocab_size)
    token_matrix = np.asarray(
        tokenizer.encode_batch(list(texts), max_len=max_seq_len), dtype=np.int64
    )
    return [
        token_matrix[start : start + batch_size]
        for start in range(0, token_matrix.shape[0], batch_size)
    ]


def profile_model_isd(
    model: TransformerModel,
    texts: Sequence[str],
    max_seq_len: int = 64,
    batch_size: int = 8,
) -> IsdProfile:
    """Run texts through a model and collect its per-layer ISD profile.

    This is the measurement behind Figure 2: feed tokens, record the ISD at
    every normalization layer.
    """
    batches = calibration_batches(model.config, texts, max_seq_len, batch_size)
    return IsdProfile.from_trace(model.collect_statistics(batches))

