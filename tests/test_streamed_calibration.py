"""Serving calibration holds one block at a time and keeps only the norms.

The registry's loader calibrates with a layer-major pass over a weight
stream (:func:`repro.llm.model.stream_statistics`): it never builds the
whole model, and the artifact it returns holds the normalization layers,
the HAAN config and the calibration result -- no projection weights.
These tests pin that the result is bit-identical to the batch-major pass
over an eagerly built model, for every model in the zoo, and bound what
the loader allocates and what a cached artifact keeps alive.
"""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.core.calibration import apply_haan, calibrate_profile, resolve_config_and_predictor
from repro.core.config import PAPER_MODEL_SETTINGS
from repro.core.isd import IsdProfile
from repro.engine.spec import spec_for_layer
from repro.llm.config import available_models, get_model_config
from repro.llm.datasets import calibration_texts
from repro.llm.hooks import ActivationContext, StatisticsTrace
from repro.llm.layers import Linear
from repro.llm.model import TransformerModel, stream_statistics
from repro.llm.weights import WeightStream, generate_model_weights
from repro.serving.registry import (
    CalibrationRegistry,
    default_artifact_loader,
    default_calibration_settings,
)

#: Most the llama-7b loader may allocate at once (one block is ~4.7 MiB).
LOADER_PEAK_BOUND_MIB = 32


def _batch_major_trace(model, batches):
    """The oracle: one eager forward pass per batch, absorbed in order."""
    trace = StatisticsTrace(
        num_layers=model.num_norm_layers,
        layer_names=[norm.name for norm in model.norm_layers],
    )
    for batch in batches:
        context = ActivationContext(record_statistics=True)
        model.forward_hidden(batch, context)
        trace.absorb(context)
    return trace


def _batches(model, settings):
    texts = calibration_texts(settings.num_samples, seed=settings.seed)
    tokens = model.encode_texts(texts, max_len=settings.max_seq_len)
    return [
        tokens[start : start + settings.batch_size]
        for start in range(0, tokens.shape[0], settings.batch_size)
    ]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reachable(root, kind):
    """Objects of ``kind`` reachable from ``root`` through plain references.

    The walk stops at modules, classes and functions, so it follows what an
    object holds rather than the whole interpreter.
    """
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("name", available_models())
def test_streamed_artifact_matches_batch_major_oracle(name):
    artifact = default_artifact_loader(name)

    model_config = get_model_config(name)
    settings = default_calibration_settings(model_config)
    model = TransformerModel(model_config)
    trace = _batch_major_trace(model, _batches(model, settings))
    calibration = calibrate_profile(name, IsdProfile.from_trace(trace), settings)
    config = PAPER_MODEL_SETTINGS.get(name)
    if (
        config is not None
        and config.skipping_enabled
        and config.skip_range[1] >= model_config.num_norm_layers
    ):
        config = config.with_overrides(skip_range=calibration.skip_range)
    config, predictor = resolve_config_and_predictor(model_config, calibration, config)
    reference_layers = list(model.norm_layers)
    haan_layers = apply_haan(model, config, predictor=predictor)

    got = artifact.calibration
    assert _same_bytes(got.profile.isd_matrix, calibration.profile.isd_matrix)
    assert got.profile.layer_names == calibration.profile.layer_names
    assert got.skip_range == calibration.skip_range
    assert got.search == calibration.search
    assert got.predictor == calibration.predictor
    assert artifact.config == config
    for served, expected in (
        (artifact.haan_layers, haan_layers),
        (artifact.reference_layers, reference_layers),
    ):
        assert len(served) == len(expected) == model_config.num_norm_layers
        assert [spec_for_layer(layer).to_dict() for layer in served] == [
            spec_for_layer(layer).to_dict() for layer in expected
        ]
        for layer, oracle in zip(served, expected):
            assert _same_bytes(layer.gamma, oracle.gamma)
            assert _same_bytes(layer.beta, oracle.beta)
    assert artifact.hidden_size == model_config.sim_hidden_size


@pytest.mark.parametrize("name", ["tiny", "tiny-rms"])
def test_model_collect_statistics_matches_batch_major_oracle(name):
    """The built model's pass is the same layer-major loop as the streamed one."""
    model = TransformerModel.from_name(name)
    settings = default_calibration_settings(model.config)
    batches = _batches(model, settings)
    oracle = _batch_major_trace(model, batches).isd_matrix()
    assert _same_bytes(model.collect_statistics(batches).isd_matrix(), oracle)
    streamed, norm_layers = stream_statistics(model.config, batches)
    assert _same_bytes(streamed.isd_matrix(), oracle)
    assert [norm.name for norm in norm_layers] == [norm.name for norm in model.norm_layers]


def test_weight_stream_draws_the_model_weights():
    config = get_model_config("tiny")
    built = generate_model_weights(config)
    stream = WeightStream(config)
    with pytest.raises(RuntimeError):
        stream.final_norm()
    assert _same_bytes(stream.embedding, built.embedding)
    for streamed, block in zip(stream.blocks(), built.blocks, strict=True):
        assert _same_bytes(streamed.mlp.w_out.weight, block.mlp.w_out.weight)
        assert _same_bytes(streamed.attn_norm.gamma, block.attn_norm.gamma)
    assert _same_bytes(stream.final_norm().gamma, built.final_norm.gamma)


def test_loader_peak_and_cached_artifact_hold_no_projection_weights():
    registry = CalibrationRegistry()
    tracemalloc.start()
    try:
        artifact = registry.get("llama-7b")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= LOADER_PEAK_BOUND_MIB * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
    assert registry.get("llama-7b") is artifact
    assert _reachable(artifact, Linear) == []
    # The walk does find projection weights where they exist.
    assert len(_reachable(TransformerModel.from_name("tiny"), Linear)) == 4 * 6
