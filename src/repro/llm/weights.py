"""Deterministic synthetic weight generation.

Real checkpoints are unavailable offline, so models are populated with
seeded random weights whose *scales* are chosen to reproduce the activation
statistics HAAN exploits (paper Section III-A):

* In a pre-norm transformer the residual stream accumulates the output of
  every attention/MLP branch.  We scale the branch output projections so the
  branch added at block ``l`` contributes variance ``c0 * r**l`` (with
  ``r = config.residual_growth``), which makes the residual-stream variance
  grow geometrically with depth.  The ISD seen by deeper normalization
  layers therefore decays, and ``log(ISD)`` becomes linear in the layer
  index over the deep layers -- the exact phenomenon Figure 2 of the paper
  reports for LLaMA-7B and that Algorithm 1 searches for.
* The affine parameters ``alpha``/``beta`` get small per-layer variation so
  the normalization layers are not trivially identical.

Everything is derived from ``config.seed``; two processes construct
bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.llm.config import ModelConfig, NormKind
from repro.llm.layers import AttentionWeights, Linear, MLPWeights


@dataclass
class NormParameters:
    """Affine parameters of one normalization layer."""

    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class BlockWeights:
    """All parameters of one transformer block."""

    attention: AttentionWeights
    mlp: MLPWeights
    attn_norm: NormParameters
    mlp_norm: NormParameters


@dataclass
class ModelWeights:
    """All parameters of one synthetic model."""

    config: ModelConfig
    embedding: np.ndarray
    positional: np.ndarray
    blocks: List[BlockWeights] = field(default_factory=list)
    final_norm: NormParameters | None = None

    @property
    def num_parameters(self) -> int:
        """Actual parameter count of the simulation model (not the real LLM)."""
        count = self.embedding.size + self.positional.size
        for block in self.blocks:
            for lin in (
                block.attention.wq,
                block.attention.wk,
                block.attention.wv,
                block.attention.wo,
                block.mlp.w_in,
                block.mlp.w_out,
            ):
                count += lin.weight.size + lin.bias.size
            count += block.attn_norm.gamma.size + block.attn_norm.beta.size
            count += block.mlp_norm.gamma.size + block.mlp_norm.beta.size
        if self.final_norm is not None:
            count += self.final_norm.gamma.size + self.final_norm.beta.size
        return int(count)


def _linear(rng: np.random.Generator, fan_in: int, fan_out: int, std: float) -> Linear:
    """A bias-free linear layer with i.i.d. Gaussian weights of the given std."""
    weight = rng.normal(0.0, std, size=(fan_in, fan_out))
    return Linear(weight, bias=np.zeros(fan_out))


def _norm_parameters(rng: np.random.Generator, hidden: int, kind: NormKind) -> NormParameters:
    """Affine parameters: gamma near 1, beta near 0 (zero for RMSNorm)."""
    gamma = 1.0 + 0.05 * rng.standard_normal(hidden)
    if kind is NormKind.RMSNORM:
        beta = np.zeros(hidden)
    else:
        beta = 0.02 * rng.standard_normal(hidden)
    return NormParameters(gamma=gamma, beta=beta)


def branch_variance_schedule(config: ModelConfig) -> np.ndarray:
    """Target variance contributed by each block's branches.

    Block ``l`` contributes ``c0 * r**l``; this geometric schedule is what
    produces the log-linear ISD decay in the deeper layers.
    """
    exponents = np.arange(config.num_blocks, dtype=np.float64)
    return config.initial_branch_variance * np.power(config.residual_growth, exponents)


def generate_block_weights(config: ModelConfig, block_index: int, rng: np.random.Generator) -> BlockWeights:
    """Generate the weights of one block with the depth-dependent branch scale."""
    hidden = config.sim_hidden_size
    mlp_hidden = config.mlp_hidden_size
    branch_var = float(branch_variance_schedule(config)[block_index])
    # The attention and MLP branches each contribute half of the target
    # block variance.  Output-projection std is derived assuming roughly
    # unit-variance branch-internal activations (the pre-norm input is
    # normalized, Q/K/V and w_in use 1/sqrt(fan_in) scaling).
    branch_std = np.sqrt(branch_var / 2.0)
    qkv_std = 1.0 / np.sqrt(hidden)
    attention = AttentionWeights(
        wq=_linear(rng, hidden, hidden, qkv_std),
        wk=_linear(rng, hidden, hidden, qkv_std),
        wv=_linear(rng, hidden, hidden, qkv_std),
        wo=_linear(rng, hidden, hidden, branch_std / np.sqrt(hidden)),
    )
    # GeLU roughly halves the variance of a zero-mean input; compensate so
    # the MLP branch lands near its target contribution.
    gelu_compensation = 1.6
    mlp = MLPWeights(
        w_in=_linear(rng, hidden, mlp_hidden, 1.0 / np.sqrt(hidden)),
        w_out=_linear(rng, mlp_hidden, hidden, gelu_compensation * branch_std / np.sqrt(mlp_hidden)),
    )
    return BlockWeights(
        attention=attention,
        mlp=mlp,
        attn_norm=_norm_parameters(rng, hidden, config.norm_kind),
        mlp_norm=_norm_parameters(rng, hidden, config.norm_kind),
    )


def sinusoidal_positions(max_seq_len: int, hidden: int) -> np.ndarray:
    """Deterministic sinusoidal positional embeddings."""
    positions = np.arange(max_seq_len, dtype=np.float64)[:, None]
    dims = np.arange(hidden, dtype=np.float64)[None, :]
    angle_rates = 1.0 / np.power(10000.0, (2.0 * (dims // 2)) / hidden)
    angles = positions * angle_rates
    table = np.zeros((max_seq_len, hidden))
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return 0.1 * table


class WeightStream:
    """A model's weights drawn in seed order, one block at a time.

    The embedding tables are drawn on construction, :meth:`blocks` yields
    each block's weights in turn and :meth:`final_norm` draws the final
    norm's parameters after the last block.  This is the RNG stream
    :func:`generate_model_weights` consumes, so a streamed block is
    bit-identical to the same block of a fully built model, and a caller
    that drops each block before drawing the next holds one at a time.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        hidden = config.sim_hidden_size
        self.embedding = self._rng.normal(0.0, 0.7, size=(config.vocab_size, hidden))
        self.positional = sinusoidal_positions(config.max_seq_len, hidden)
        self._blocks_drawn = 0

    def blocks(self) -> Iterator[BlockWeights]:
        """Draw the remaining blocks' weights, one per step."""
        for block_index in range(self._blocks_drawn, self.config.num_blocks):
            self._blocks_drawn = block_index + 1
            # Yielded unnamed: the generator keeps no reference to a block
            # while it draws the next one.
            yield generate_block_weights(self.config, block_index, self._rng)

    def final_norm(self) -> Optional[NormParameters]:
        """The final norm's parameters (``None`` without one); draw every block first."""
        if self._blocks_drawn != self.config.num_blocks:
            raise RuntimeError("the final norm is drawn after every block")
        if not self.config.final_norm:
            return None
        return _norm_parameters(self._rng, self.config.sim_hidden_size, self.config.norm_kind)


def generate_model_weights(config: ModelConfig) -> ModelWeights:
    """Generate all parameters of a model from its configuration seed."""
    stream = WeightStream(config)
    blocks = list(stream.blocks())
    return ModelWeights(
        config=config,
        embedding=stream.embedding,
        positional=stream.positional,
        blocks=blocks,
        final_norm=stream.final_norm(),
    )
