"""Decoder-only transformer inference engine.

:class:`TransformerModel` wires the layers of :mod:`repro.llm.layers`, the
normalization layers of :mod:`repro.llm.normalization` and the synthetic
weights of :mod:`repro.llm.weights` into a complete pre-norm decoder stack:

``embed -> [norm -> attention -> add, norm -> mlp -> add] * L -> (final norm) -> logits``

The model exposes exactly the hooks HAAN needs:

* ``norm_layers`` is the ordered list of normalization layers; HAAN replaces
  entries in place (:meth:`replace_norm_layer`) with its approximating layer.
* every forward pass threads an :class:`~repro.llm.hooks.ActivationContext`
  through the normalization layers so predicted ISDs can reference earlier
  layers and calibration can record statistics.
* :meth:`collect_statistics` runs a calibration set through the model and
  returns the per-layer ISD trace consumed by Algorithm 1.

:func:`stream_statistics` runs the same layer-major pass without building
the model: it draws, runs and drops one block at a time and keeps only the
normalization layers, which is all the online phase serves.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.llm.config import ModelConfig, get_model_config
from repro.llm.hooks import ActivationContext, StatisticsTrace
from repro.llm.layers import FeedForward, MultiHeadAttention, log_softmax
from repro.llm.normalization import BaseNorm, make_norm
from repro.llm.tokenizer import Tokenizer
from repro.llm.weights import (
    BlockWeights,
    ModelWeights,
    NormParameters,
    WeightStream,
    generate_model_weights,
)


class TransformerBlock:
    """One pre-norm transformer block (attention + MLP sublayers)."""

    def __init__(
        self,
        attention: MultiHeadAttention,
        mlp: FeedForward,
        attn_norm: BaseNorm,
        mlp_norm: BaseNorm,
    ):
        self.attention = attention
        self.mlp = mlp
        self.attn_norm = attn_norm
        self.mlp_norm = mlp_norm

    def __call__(self, x: np.ndarray, context: Optional[ActivationContext] = None) -> np.ndarray:
        x = x + self.attention(self.attn_norm(x, context))
        x = x + self.mlp(self.mlp_norm(x, context))
        return x


class TransformerModel:
    """A complete synthetic LLM with pluggable normalization layers."""

    def __init__(self, config: ModelConfig, weights: Optional[ModelWeights] = None):
        self.config = config
        self.weights = weights if weights is not None else generate_model_weights(config)
        if self.weights.config.name != config.name:
            raise ValueError("weights were generated for a different configuration")
        self.tokenizer = Tokenizer(vocab_size=config.vocab_size)
        self.norm_layers: List[BaseNorm] = []
        self.blocks: List[TransformerBlock] = []
        self._build()

    @classmethod
    def from_name(cls, name: str, **overrides) -> "TransformerModel":
        """Construct a model from a registered configuration name."""
        return cls(get_model_config(name, **overrides))

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for block_index, block_weights in enumerate(self.weights.blocks):
            block = build_block(self.config, block_index, block_weights)
            self.blocks.append(block)
            self.norm_layers.extend([block.attn_norm, block.mlp_norm])
        self.final_norm = build_final_norm(self.config, self.weights.final_norm)
        if self.final_norm is not None:
            self.norm_layers.append(self.final_norm)

    @property
    def num_norm_layers(self) -> int:
        """Number of normalization layers (matches ``config.num_norm_layers``)."""
        return len(self.norm_layers)

    def replace_norm_layer(self, layer_index: int, new_norm: BaseNorm) -> None:
        """Swap a normalization layer in place (used to install HAAN layers)."""
        if not 0 <= layer_index < len(self.norm_layers):
            raise IndexError(f"no normalization layer {layer_index}")
        old = self.norm_layers[layer_index]
        if new_norm.hidden_size != old.hidden_size:
            raise ValueError("replacement layer has a different hidden size")
        new_norm.layer_index = old.layer_index
        new_norm.name = old.name
        self.norm_layers[layer_index] = new_norm
        # Re-wire the block (or final norm) that owns this layer.
        block_index, position = divmod(layer_index, 2)
        if block_index < len(self.blocks):
            if position == 0:
                self.blocks[block_index].attn_norm = new_norm
            else:
                self.blocks[block_index].mlp_norm = new_norm
        else:
            self.final_norm = new_norm

    def norm_layer(self, layer_index: int) -> BaseNorm:
        """Return the normalization layer at the given execution-order index."""
        return self.norm_layers[layer_index]

    # -- forward -------------------------------------------------------------

    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        """Token plus positional embedding of an id batch (batch, seq)."""
        weights = self.weights
        return embed_tokens(self.config, weights.embedding, weights.positional, token_ids)

    def forward_hidden(
        self, token_ids: np.ndarray, context: Optional[ActivationContext] = None
    ) -> np.ndarray:
        """Run the block stack and return the final hidden states."""
        hidden = self.embed(token_ids)
        for block in self.blocks:
            hidden = block(hidden, context)
        if self.final_norm is not None:
            hidden = self.final_norm(hidden, context)
        return hidden

    def forward(
        self, token_ids: np.ndarray, context: Optional[ActivationContext] = None
    ) -> np.ndarray:
        """Full forward pass returning logits of shape (batch, seq, vocab)."""
        hidden = self.forward_hidden(token_ids, context)
        return hidden @ self.weights.embedding.T

    def log_probs(
        self, token_ids: np.ndarray, context: Optional[ActivationContext] = None
    ) -> np.ndarray:
        """Log-softmax of the logits over the vocabulary."""
        return log_softmax(self.forward(token_ids, context), axis=-1)

    # -- scoring helpers (used by the evaluation harness) --------------------

    def sequence_log_likelihood(
        self,
        token_ids: Sequence[int],
        score_from: int = 1,
        context: Optional[ActivationContext] = None,
    ) -> float:
        """Sum of next-token log-probabilities of a single sequence.

        ``score_from`` is the first *target* position included in the score;
        the default of 1 scores every token after the BOS token.  To score
        only a continuation, pass the index of its first token.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("sequence_log_likelihood expects a 1-D token list")
        if ids.size < 2 or score_from < 1 or score_from >= ids.size:
            raise ValueError("need at least one target position to score")
        logp = self.log_probs(ids[None, :], context)[0]
        targets = ids[score_from:]
        positions = np.arange(score_from - 1, ids.size - 1)
        return float(np.sum(logp[positions, targets]))

    def continuation_log_likelihood(
        self,
        prefix_ids: Sequence[int],
        continuation_ids: Sequence[int],
        normalize_by_length: bool = False,
        context: Optional[ActivationContext] = None,
    ) -> float:
        """Log-likelihood of a continuation given a prefix (lm-eval style)."""
        prefix = list(prefix_ids)
        continuation = list(continuation_ids)
        if not continuation:
            raise ValueError("continuation must be non-empty")
        full = np.asarray(prefix + continuation, dtype=np.int64)
        score = self.sequence_log_likelihood(full, score_from=len(prefix), context=context)
        if normalize_by_length:
            score /= len(continuation)
        return score

    def score_continuations(
        self,
        prefix_ids: Sequence[int],
        continuations: Sequence[Sequence[int]],
        normalize_by_length: bool = True,
        context: Optional[ActivationContext] = None,
    ) -> np.ndarray:
        """Log-likelihood of several continuations of one prefix, batched.

        All candidate continuations share the prefix, so they are padded to
        a common length and scored in a single batched forward pass -- the
        lm-eval-harness access pattern the accuracy experiments use.
        Padding positions do not contribute to any score.
        """
        prefix = list(prefix_ids)
        conts = [list(c) for c in continuations]
        if not conts or any(len(c) == 0 for c in conts):
            raise ValueError("every continuation must be non-empty")
        max_len = len(prefix) + max(len(c) for c in conts)
        batch = np.full((len(conts), max_len), self.tokenizer.pad_id, dtype=np.int64)
        for row, cont in enumerate(conts):
            ids = prefix + cont
            batch[row, : len(ids)] = ids
        logp = self.log_probs(batch, context)
        scores = np.zeros(len(conts))
        for row, cont in enumerate(conts):
            start = len(prefix)
            end = start + len(cont)
            targets = batch[row, start:end]
            positions = np.arange(start - 1, end - 1)
            score = float(np.sum(logp[row, positions, targets]))
            if normalize_by_length:
                score /= len(cont)
            scores[row] = score
        return scores

    # -- calibration ----------------------------------------------------------

    def collect_statistics(
        self,
        token_batches: Iterable[np.ndarray],
        max_tokens_per_batch: Optional[int] = None,
    ) -> StatisticsTrace:
        """Run batches through the model recording per-layer ISD statistics.

        The pass is layer-major (:func:`record_statistics`): each block runs
        over every batch before the next block starts.

        Parameters
        ----------
        token_batches:
            Iterable of (batch, seq) or (seq,) token-id arrays.
        max_tokens_per_batch:
            Optional cap on sequence length, to bound calibration cost.
        """
        return record_statistics(
            [norm.name for norm in self.norm_layers],
            [self.embed(_token_batch(batch, max_tokens_per_batch)) for batch in token_batches],
            self.blocks,
            lambda: self.final_norm,
        )

    def encode_texts(self, texts: Sequence[str], max_len: int) -> np.ndarray:
        """Tokenize and pad a list of texts into an id matrix."""
        return np.asarray(self.tokenizer.encode_batch(texts, max_len=max_len), dtype=np.int64)


# -- construction and the statistics pass, shared with the streamed path ------


def _norm(config: ModelConfig, layer_index: int, params: NormParameters) -> BaseNorm:
    return make_norm(
        config.norm_kind,
        config.sim_hidden_size,
        layer_index,
        config.norm_layer_names()[layer_index],
        gamma=params.gamma,
        beta=params.beta,
    )


def build_block(config: ModelConfig, block_index: int, weights: BlockWeights) -> TransformerBlock:
    """One pre-norm block; its norms take the block's two execution-order indices."""
    first = block_index * config.norms_per_block
    return TransformerBlock(
        MultiHeadAttention(weights.attention, config.num_heads),
        FeedForward(weights.mlp),
        _norm(config, first, weights.attn_norm),
        _norm(config, first + 1, weights.mlp_norm),
    )


def build_final_norm(config: ModelConfig, params: Optional[NormParameters]) -> Optional[BaseNorm]:
    """The final normalization layer, or ``None`` for a model without one."""
    if not config.final_norm:
        return None
    return _norm(config, config.num_norm_layers - 1, params)


def embed_tokens(
    config: ModelConfig, embedding: np.ndarray, positional: np.ndarray, token_ids: np.ndarray
) -> np.ndarray:
    """Token plus positional embedding of an id batch (batch, seq)."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] > config.max_seq_len:
        raise ValueError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len {config.max_seq_len}"
        )
    hidden = embedding[ids]
    hidden = hidden + positional[None, : ids.shape[1], :]
    return hidden


def _token_batch(batch: np.ndarray, max_tokens_per_batch: Optional[int]) -> np.ndarray:
    ids = np.asarray(batch, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if max_tokens_per_batch is not None:
        ids = ids[:, :max_tokens_per_batch]
    return ids


def record_statistics(
    layer_names: Sequence[str],
    hidden: List[np.ndarray],
    blocks: Iterable[TransformerBlock],
    final_norm: Callable[[], Optional[BaseNorm]],
) -> StatisticsTrace:
    """The layer-major statistics pass over embedded calibration batches.

    Each block runs over every batch, each batch with its own recording
    :class:`ActivationContext`, before the next block starts; the final
    norm (fetched once the blocks are done) runs last.  Every batch sees
    the operations of a batch-at-a-time forward pass in the same order, and
    the contexts are absorbed in batch order, so the trace is bit-identical
    to one.  ``hidden`` is overwritten with each batch's running state.
    """
    contexts = [ActivationContext(record_statistics=True) for _ in hidden]
    for block in blocks:
        for index, context in enumerate(contexts):
            hidden[index] = block(hidden[index], context)
        # A streamed block is released before the next one is drawn.
        del block
    norm = final_norm()
    if norm is not None:
        for states, context in zip(hidden, contexts):
            norm(states, context)
    trace = StatisticsTrace(num_layers=len(layer_names), layer_names=list(layer_names))
    for context in contexts:
        trace.absorb(context)
    return trace


def stream_statistics(
    config: ModelConfig, token_batches: Iterable[np.ndarray]
) -> Tuple[StatisticsTrace, List[BaseNorm]]:
    """:meth:`TransformerModel.collect_statistics` without building the model.

    Draws each block's weights from a :class:`WeightStream`, runs the block
    over every batch and drops it before drawing the next, so at most one
    block's projection weights are alive.  Returns the trace, bit-identical
    to the built model's, and the model's reference normalization layers in
    execution order.
    """
    weights = WeightStream(config)
    hidden = [
        embed_tokens(config, weights.embedding, weights.positional, batch)
        for batch in token_batches
    ]
    norm_layers: List[BaseNorm] = []

    def blocks():
        drawn = weights.blocks()
        for block_index in range(config.num_blocks):
            block = build_block(config, block_index, next(drawn))
            norm_layers.extend([block.attn_norm, block.mlp_norm])
            yield block
            del block

    def final_norm() -> Optional[BaseNorm]:
        norm = build_final_norm(config, weights.final_norm())
        if norm is not None:
            norm_layers.append(norm)
        return norm

    trace = record_statistics(config.norm_layer_names(), hidden, blocks(), final_norm)
    return trace, norm_layers
