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


class _Release(threading.Event):
    """An event whose ``set`` also re-arms a server's engine tick."""

    def __init__(self, server=None):
        super().__init__()
        self._server = server

    def set(self) -> None:
        super().set()
        server = self._server
        if server is not None and server._loop is not None:
            try:
                server._loop.call_soon_threadsafe(server._schedule_tick)
            except RuntimeError:
                pass  # loop already closed


@pytest.fixture()
def hold_engine():
    """Hold a service's batch release until the test says so.

    ``entered, release = hold_engine(service, server=None)`` gates the
    scheduler's ``drain_once``, which the server's engine tick and every
    draining thread call.  While held, the first drain that finds work
    pops one batch, keeps it and sets ``entered``; every drain returns 0
    without popping more.  Nothing blocks: an event loop holding the work
    keeps reading, shedding and answering other frames.  ``release.set()``
    lets drains through again -- the next one executes the kept batch --
    and, given the ``server``, re-arms its engine tick with
    ``call_soon_threadsafe``.  Work held this way stays in flight for
    exactly as long as the test says, with no timing window.  Teardown
    releases every hold and executes a batch still kept.
    """
    holds = []

    def hold(service, server=None):
        batcher = service.batcher
        entered, release = threading.Event(), _Release(server)
        drain_once = batcher.drain_once
        kept = []
        lock = threading.Lock()

        def run_kept():
            key, batch, rows = kept.pop()
            batcher._run_batch(key, batch, rows)
            return len(batch)

        def gated():
            with lock:
                if not release.is_set():
                    if not kept:
                        with batcher._lock:
                            ready = batcher._pop_batch_locked(batcher._clock())
                        if ready is not None:
                            kept.append(ready)
                            entered.set()
                    return 0
                if kept:
                    return run_kept()
            return drain_once()

        batcher.drain_once = gated
        holds.append((release, lock, kept, run_kept))
        return entered, release

    yield hold
    for release, lock, kept, run_kept in holds:
        release.set()
        with lock:
            if kept:
                run_kept()
