"""Graph forwards of the shipped layers: the oracle side of every
hand-written layer gradient.

Moved here from ``Linear.forward``, ``MaskedLinear.forward`` /
``forward_rows``, ``ResidualBlock.forward``, ``Embedding.forward`` and
``Embedding.soft_lookup``; each takes the layer as its first argument
and reads the layer's parameters through :func:`reference.tensor.leaf`,
so a ``backward()`` fills the parameters' ``.grad`` buffers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.made import ResidualBlock
from repro.nn.modules import Embedding, Linear, MaskedLinear

from .tensor import Tensor, leaf


def linear(layer: Linear, x: Tensor) -> Tensor:
    """``x W^T + b``."""
    out = x @ leaf(layer.weight).T
    if layer.bias is not None:
        out = out + leaf(layer.bias)
    return out


def masked_linear(layer: MaskedLinear, x: Tensor) -> Tensor:
    return masked_linear_rows(layer, x, slice(None))


def masked_linear_rows(layer: MaskedLinear, x: Tensor, rows: slice) -> Tensor:
    """Affine map restricted to output units ``rows``.

    Forward uses the cached fused weight; backward applies the mask to
    the weight gradient directly — identical math to multiplying
    ``weight * mask`` inside the graph, without the per-call product.
    The fast closure assumes the usual ``[batch, features]`` input;
    higher-rank inputs take the explicit graph (general broadcasting
    gradients).
    """
    weight = leaf(layer.weight)
    bias = None if layer.bias is None else leaf(layer.bias)
    if x.ndim != 2:
        masked = (weight * Tensor(layer.mask))[rows]
        out = x @ masked.T
        if bias is not None:
            out = out + bias[rows]
        return out
    fused = layer.fused_weight()[rows]
    data = x.data @ fused.T
    if bias is not None:
        data = data + bias.data[rows]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def make(out: Tensor):
        def backward():
            if x.requires_grad:
                x._accumulate(out.grad @ fused)
            rows_grad = (out.grad.T @ x.data) * layer.mask[rows]
            if rows == slice(None):
                grad_w = rows_grad
            else:
                grad_w = np.zeros_like(weight.data)
                grad_w[rows] = rows_grad
            weight._accumulate(grad_w)
            if bias is not None:
                rows_grad = out.grad.sum(axis=0)
                if rows == slice(None):
                    grad_b = rows_grad
                else:
                    grad_b = np.zeros_like(bias.data)
                    grad_b[rows] = rows_grad
                bias._accumulate(grad_b)
        return backward

    return Tensor._make(data, parents, make)


def residual_block(block: ResidualBlock, x: Tensor) -> Tensor:
    h = masked_linear(block.fc1, x.relu())
    h = masked_linear(block.fc2, h.relu())
    return x + h


def embedding(emb: Embedding, codes: np.ndarray) -> Tensor:
    """Differentiable lookup of the rows ``codes``."""
    return leaf(emb.weight).gather_rows(np.asarray(codes, dtype=np.int64))


def soft_lookup(emb: Embedding, weights: Tensor) -> Tensor:
    """Differentiable lookup with a soft one-hot ``weights`` matrix.

    ``weights``: ``[batch, num_embeddings]`` — e.g. a Gumbel-Softmax
    sample — returns ``weights @ table``.
    """
    return weights @ leaf(emb.weight)
