"""Shared fixtures: tiny models, calibration results and task suites.

Everything here is session-scoped and built from the deterministic "tiny"
configurations so the full test suite stays fast while still exercising the
real code paths (forward passes, calibration, HAAN installation).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.calibration import CalibrationSettings, calibrate_model
from repro.llm.datasets import calibration_texts
from repro.llm.model import TransformerModel


@pytest.fixture(scope="session")
def tiny_model() -> TransformerModel:
    """A small LayerNorm (GPT-2 style) model."""
    return TransformerModel.from_name("tiny")


@pytest.fixture(scope="session")
def tiny_rms_model() -> TransformerModel:
    """A small RMSNorm (LLaMA style) model."""
    return TransformerModel.from_name("tiny-rms")


@pytest.fixture(scope="session")
def tiny_calibration(tiny_model):
    """Calibration result of the tiny model over a few synthetic documents."""
    texts = calibration_texts(6, seed=3)
    settings = CalibrationSettings(window=3, max_seq_len=24, batch_size=3, min_start_fraction=0.3)
    return calibrate_model(tiny_model, texts=texts, settings=settings)


@pytest.fixture(scope="session")
def small_token_batch(tiny_model) -> np.ndarray:
    """A deterministic (batch, seq) token-id matrix for the tiny model."""
    rng = np.random.default_rng(0)
    return rng.integers(3, tiny_model.config.vocab_size, size=(4, 20))


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def hold_engine():
    """Hold a threaded service's batches in the engine until released.

    ``entered, release = hold_engine(service)`` wraps the service's batch
    executor (``service._execute_batch``): every batch sets ``entered``,
    then blocks until the test sets ``release``.  Work held this way stays
    in flight for exactly as long as the test says, with no timing window.
    Tests set ``release`` before closing the service (its scheduler thread
    is joined there); teardown sets it too, and a batch held for 30 s runs
    anyway so a broken test fails instead of hanging.
    """
    releases = []

    def hold(service):
        entered, release = threading.Event(), threading.Event()
        execute = service._execute_batch

        def gated(key, batch, total_rows):
            entered.set()
            release.wait(timeout=30.0)
            execute(key, batch, total_rows)

        service.batcher._execute = gated
        releases.append(release)
        return entered, release

    yield hold
    for release in releases:
        release.set()
