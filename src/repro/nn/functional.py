"""Composite differentiable functions used by the UAE model.

Everything here is built from the primitive ops in :mod:`repro.nn.tensor`, so
gradients flow automatically.  The numerically sensitive pieces (softmax,
log-softmax) subtract a *detached* running maximum, the standard
stabilisation that does not change the mathematical gradient.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add_constant, where

NEG_INF = -1e9  # Finite stand-in for -inf so softmax stays NaN-free.


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


def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax for plain numpy arrays."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def softmax_nll(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-row ``-log softmax(logits)[target]`` as float64.

    Stable (max-shifted); overwrites ``logits`` with the softmax.  The
    one softmax cross-entropy forward outside the autograd graph: the
    fused data loss (:class:`repro.train.FusedDataLoss`) runs it per
    column, and the uniform sampler per queried column.
    """
    ridx = np.arange(len(logits))
    logits -= logits.max(axis=1, keepdims=True)
    target_shift = logits[ridx, target].astype(np.float64)
    np.exp(logits, out=logits)
    z = logits.sum(axis=1)
    logits /= z[:, None]
    return np.log(z) - target_shift


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits``: ``[batch, num_classes]``; ``targets``: ``[batch]`` ints.
    """
    logp = log_softmax(logits, axis=-1)
    picked = logp.take_along_last(np.asarray(targets).reshape(-1, 1))
    return -picked.mean()


def nll_from_logprobs(logp: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given precomputed log-probs."""
    picked = logp.take_along_last(np.asarray(targets).reshape(-1, 1))
    return -picked.mean()


def sample_gumbel(shape, rng: np.random.Generator, eps: float = 1e-20,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Draw Gumbel(0, 1) noise: ``g = -log(-log(u))``, Eq. 9 of the paper.

    Drawn directly in float32 and transformed in place — noise generation
    sits on the per-step DPS hot path, where the old float64 draw plus
    ``astype`` copy was a measurable share of the query-loss step.  Pass
    a pooled float32 ``out`` buffer to make the draw allocation-free; the
    consumed random stream is identical either way.
    """
    if out is not None:
        u = out
        rng.random(out=u, dtype=np.float32)
    else:
        u = rng.random(shape, dtype=np.float32)
    u += np.float32(eps)
    np.log(u, out=u)
    np.negative(u, out=u)
    u += np.float32(eps)
    np.log(u, out=u)
    np.negative(u, out=u)
    return u


def masked_fill(logits: Tensor, invalid: np.ndarray, value: float = NEG_INF) -> Tensor:
    """Set ``logits`` to ``value`` where ``invalid`` is True (constant mask).

    Used to zero-out probabilities outside a query region (Algorithm 2,
    line 7) without breaking differentiability at the valid positions.
    """
    fill = Tensor(np.full(logits.shape, value, dtype=np.float32))
    return where(~np.asarray(invalid, dtype=bool), logits, fill)


def qerror_loss(est: Tensor, true_sel: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Mean Q-error (Eq. 6) between estimated and true selectivities.

    ``est`` is a differentiable tensor of selectivities in [0, 1];
    ``true_sel`` is the constant ground truth.  Q-error is
    ``max(sel/est, est/sel)`` clamped below at 1; its subgradient is well
    defined everywhere except the kink, which is fine for SGD.
    """
    true = Tensor(np.maximum(np.asarray(true_sel, dtype=np.float32), eps))
    est = est.clamp(low=eps)
    ratio = est / true
    inverse = true / est
    q = ratio.maximum(inverse)
    return q.mean()


def mse_loss(est: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = est - Tensor(np.asarray(target, dtype=np.float32))
    return (diff * diff).mean()


def msle_loss(est: Tensor, target: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Mean squared log error — a smoother alternative discrepancy."""
    target = np.maximum(np.asarray(target, dtype=np.float32), eps)
    diff = est.clamp(low=eps).log() - Tensor(np.log(target))
    return (diff * diff).mean()
