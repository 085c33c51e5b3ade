"""Reference ResMADE forwards: the numpy forward and the autograd-graph
forward that ``src/`` ran before the shared trunk kernel
(:mod:`repro.nn.trunk`).

The oracle the kernel and everything built on it — the compiled
engine's ``position_logits``, the fused data loss, ``UAE.loglikelihood``
— is checked against.  Moved here from ``ResMADE.hidden_np`` /
``column_logits_np`` / ``forward_np`` / ``nll_np`` / ``logits_for_np``,
``ResMADE.forward`` / ``forward_codes`` / ``encode_tuples_tensor`` /
``logits_for`` / ``hidden_tensor`` / ``column_logits_from_hidden``, and
the encoders' ``encode_soft`` /
``EmbeddingEncoder.encode_hard_tensor``; functions take the model (or
encoder) as their first argument.  :func:`encode_hard_tensor` routes an
embedding column's lookups through the graph for every non-wildcarded
entry, so the tables get a data-loss gradient, as in the fused kernel.
:func:`encode_tuples_concat` is the per-encoder ``encode_tuples``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.encoders import (BinaryEncoder, ColumnEncoder,
                               EmbeddingEncoder, OneHotEncoder)
from repro.nn.made import ResMADE

from .modules import (embedding, masked_linear, masked_linear_rows,
                      residual_block, soft_lookup)
from .tensor import Tensor, concatenate


# ----------------------------------------------------------------------
# Numpy forward
# ----------------------------------------------------------------------
def hidden_np(model: ResMADE, x: np.ndarray) -> np.ndarray:
    """Encoded input ``[n, input_width]`` -> pre-ReLU final hidden."""
    h = x @ model.input_layer.fused_weight_t()
    h += model.input_layer.bias.data
    for block in model.blocks:
        a = np.maximum(h, 0.0)
        a = a @ block.fc1.fused_weight_t() + block.fc1.bias.data
        np.maximum(a, 0.0, out=a)
        a = a @ block.fc2.fused_weight_t() + block.fc2.bias.data
        h = h + a
    return h


def column_logits_np(model: ResMADE, h: np.ndarray, col: int) -> np.ndarray:
    sl = model.logit_slices[col]
    w = model.output_layer.fused_weight()[sl]
    return np.maximum(h, 0.0) @ w.T + model.output_layer.bias.data[sl]


def forward_np(model: ResMADE, x: np.ndarray) -> np.ndarray:
    """Encoded input -> all logits ``[n, total_logits]``."""
    h = np.maximum(hidden_np(model, x), 0.0)
    return h @ model.output_layer.fused_weight_t() \
        + model.output_layer.bias.data


def logits_for(model: ResMADE, all_logits, col: int):
    """Column ``col``'s slice of a full logit matrix (array or Tensor)."""
    return all_logits[:, model.logit_slices[col]]


def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def nll_np(model: ResMADE, codes: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood of fully specified code rows."""
    codes = np.asarray(codes)
    logits = forward_np(model, model.encode_tuples(codes))
    total = np.zeros(len(codes), dtype=np.float64)
    for c in range(model.num_cols):
        logp = log_softmax_np(logits_for(model, logits, c))
        total -= logp[np.arange(len(codes)), codes[:, c]]
    return total


# ----------------------------------------------------------------------
# Autograd-graph forward
# ----------------------------------------------------------------------
def hidden_tensor(model: ResMADE, x: Tensor) -> Tensor:
    """Differentiable trunk: encoded input -> pre-ReLU final hidden."""
    h = masked_linear(model.input_layer, x)
    for block in model.blocks:
        h = residual_block(block, h)
    return h


def column_logits_from_hidden(model: ResMADE, h: Tensor, col: int) -> Tensor:
    """Project hidden state to just column ``col``'s logits."""
    return masked_linear_rows(model.output_layer, h.relu(),
                              model.logit_slices[col])


def forward(model: ResMADE, x: Tensor) -> Tensor:
    """Differentiable encoded input -> all logits."""
    return masked_linear(model.output_layer, hidden_tensor(model, x).relu())


def encode_hard_tensor(enc: ColumnEncoder, codes: np.ndarray,
                       wildcard: np.ndarray | None = None) -> Tensor:
    """``enc.encode_hard`` as a graph node; an embedding table joins the
    graph through the rows its non-wildcarded entries look up."""
    if not isinstance(enc, EmbeddingEncoder):
        return Tensor(enc.encode_hard(codes, wildcard))
    n = len(np.asarray(codes))
    wc = np.zeros(n, dtype=bool) if wildcard is None \
        else np.asarray(wildcard, dtype=bool)
    keep = Tensor((~wc).astype(np.float32)[:, None])
    flag = Tensor(wc.astype(np.float32)[:, None])
    return concatenate([embedding(enc.table, codes) * keep, flag], axis=-1)


def encode_tuples_tensor(model: ResMADE, codes: np.ndarray,
                         wildcard: np.ndarray | None = None) -> Tensor:
    codes = np.asarray(codes)
    return concatenate(
        [encode_hard_tensor(enc, codes[:, c],
                            None if wildcard is None else wildcard[:, c])
         for c, enc in enumerate(model.encoders)], axis=-1)


def forward_codes(model: ResMADE, codes: np.ndarray,
                  wildcard: np.ndarray | None = None) -> Tensor:
    return forward(model, encode_tuples_tensor(model, codes, wildcard))


def encode_soft(enc: ColumnEncoder, weights: Tensor) -> Tensor:
    """Differentiable encoding of a soft one-hot ``[batch, domain]``
    sample (a Gumbel-Softmax draw); the wildcard slot is 0."""
    if isinstance(enc, OneHotEncoder):
        values = weights
    elif isinstance(enc, BinaryEncoder):
        values = weights @ Tensor(enc.code_matrix)
    else:
        values = soft_lookup(enc.table, weights)
    zeros = Tensor(np.zeros((weights.shape[0], 1), dtype=np.float32))
    return concatenate([values, zeros], axis=-1)


def encode_tuples_concat(model: ResMADE, codes: np.ndarray,
                         wildcard: np.ndarray | None = None) -> np.ndarray:
    """``ResMADE.encode_tuples`` as the concatenation of every encoder's
    ``encode_hard``: the oracle of its one-gather encoding."""
    codes = np.asarray(codes)
    return np.concatenate(
        [enc.encode_hard(codes[:, c],
                         None if wildcard is None else wildcard[:, c])
         for c, enc in enumerate(model.encoders)], axis=1)
