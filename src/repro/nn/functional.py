"""Numpy softmax helpers, Gumbel noise and categorical sampling for the
shipped kernels.  The graph softmax family the kernels replaced lives
in ``tests/reference/functional.py``.
"""

from __future__ import annotations

import numpy as np

NEG_INF = -1e9  # Finite stand-in for -inf so softmax stays NaN-free.


def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax for plain numpy arrays."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def hard_sample_np(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Categorical sample per row via inverse CDF (vectorised).

    ``probs``: ``[batch, k]`` non-negative rows (normalised here); returns
    int codes.  Draws one uniform per row from ``rng``.  Used where no
    gradient flows through the draw: ``UAE.sample_tuples`` and the
    REINFORCE sampler.
    """
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random((len(probs), 1))
    idx = (u > cdf).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1).astype(np.int64)


def softmax_nll(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-row ``-log softmax(logits)[target]`` as float64.

    Stable (max-shifted); overwrites ``logits`` with the softmax.  Its
    caller in ``src/`` is the uniform sampler, per queried column.  The
    fused data loss (:meth:`repro.train.FusedDataLoss.cross_entropy`)
    runs the same arithmetic over all columns at once; the per-column
    loop over this function is its oracle in ``tests/reference/fused.py``.
    """
    ridx = np.arange(len(logits))
    logits -= logits.max(axis=1, keepdims=True)
    target_shift = logits[ridx, target].astype(np.float64)
    np.exp(logits, out=logits)
    z = logits.sum(axis=1)
    logits /= z[:, None]
    return np.log(z) - target_shift


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
