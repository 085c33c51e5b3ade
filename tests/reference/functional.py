"""The graph softmax family: the reference paths' building blocks.

``softmax``, ``log_softmax``, ``cross_entropy`` and ``masked_fill``
moved here unchanged from ``repro.nn.functional`` once no shipped path
built a graph over them.  Built from the primitive ops in
:mod:`reference.tensor`, so gradients flow automatically; the
numerically sensitive pieces subtract a *detached* running maximum, the
standard stabilisation that does not change the mathematical gradient.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import NEG_INF

from .tensor import Tensor, add_constant, where


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shift = logits.data.max(axis=axis, keepdims=True)
    shifted = add_constant(logits, -shift)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shift = logits.data.max(axis=axis, keepdims=True)
    shifted = add_constant(logits, -shift)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits``: ``[batch, num_classes]``; ``targets``: ``[batch]`` ints.
    """
    logp = log_softmax(logits, axis=-1)
    picked = logp.take_along_last(np.asarray(targets).reshape(-1, 1))
    return -picked.mean()


def masked_fill(logits: Tensor, invalid: np.ndarray, value: float = NEG_INF) -> Tensor:
    """Set ``logits`` to ``value`` where ``invalid`` is True (constant mask).

    Used to zero-out probabilities outside a query region (Algorithm 2,
    line 7) without breaking differentiability at the valid positions.
    """
    fill = Tensor(np.full(logits.shape, value, dtype=np.float32))
    return where(~np.asarray(invalid, dtype=bool), logits, fill)
