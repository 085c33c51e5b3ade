"""Closed-form query-loss discrepancies (paper Eq. 5/6, Section 4.7):
the batch mean of q-error, MSE or MSLE and its gradient w.r.t. the
estimates, which the samplers' ``accumulate_grad`` takes directly.

The float32 ops mirror the graph losses they replaced
(``tests/reference/losses.py``) in order, so values and gradients match
them to the bit, subgradient conventions included: estimates below
``eps`` are clamped and get no gradient, and where q-error's
``est/true`` and ``true/est`` tie the gradient splits 0.5 / 0.5.
"""

from __future__ import annotations

import numpy as np

DISCREPANCIES = ("qerror", "mse", "msle")


def discrepancy(kind: str, est: np.ndarray, true_sels: np.ndarray,
                scale: float = 1.0, eps: float = 1e-9
                ) -> tuple[float, np.ndarray]:
    """Mean ``kind`` discrepancy and ``scale * dL/d est`` (float32)."""
    est = np.asarray(est, dtype=np.float32)
    g = np.float32(scale) * np.float32(1.0 / est.size)  # scale * d mean
    if kind == "qerror":
        true = np.maximum(np.asarray(true_sels, dtype=np.float32), eps)
        inside = est >= eps
        est_c = np.clip(est, eps, None)
        ratio = est_c / true
        inverse = true / est_c
        q = np.maximum(ratio, inverse)
        ratio_wins = ratio > inverse
        tie = ratio == inverse
        g_ratio = (g * (ratio_wins + 0.5 * tie)).astype(np.float32)
        g_inverse = g * (~ratio_wins & ~tie) + g * 0.5 * tie
        grad = g_ratio / true + -g_inverse * true / (est_c * est_c)
        return _mean(q), grad * inside
    if kind == "mse":
        diff = est - np.asarray(true_sels, dtype=np.float32)
        half = g * diff
        return _mean(diff * diff), half + half
    if kind == "msle":
        target = np.maximum(np.asarray(true_sels, dtype=np.float32), eps)
        inside = est >= eps
        est_c = np.clip(est, eps, None)
        diff = np.log(est_c) - np.log(target)
        half = g * diff
        return _mean(diff * diff), (half + half) / est_c * inside
    raise ValueError(f"unknown discrepancy {kind!r}")


def _mean(terms: np.ndarray) -> float:
    return float(terms.sum() * np.float32(1.0 / terms.size))
