"""Graph-built losses: the oracle for :func:`repro.train.discrepancy`
and for the MSCN baselines' hand-written MSE backward.

``qerror_loss``, ``msle_loss`` and ``mse_loss`` moved here unchanged from
``repro.nn.functional``.  The closed form mirrors these float32 ops in
order, so ``tests/test_nn_functional.py`` holds it to them bit for bit.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def mse_loss(est: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = est - Tensor(np.asarray(target, dtype=np.float32))
    return (diff * diff).mean()


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


def msle_loss(est: Tensor, target: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Mean squared log error — a smoother alternative discrepancy."""
    target = np.maximum(np.asarray(target, dtype=np.float32), eps)
    diff = est.clamp(low=eps).log() - Tensor(np.log(target))
    return (diff * diff).mean()


#: ``UAEConfig.discrepancy`` -> its graph-built loss
GRAPH_DISCREPANCY = {"qerror": qerror_loss, "mse": mse_loss,
                     "msle": msle_loss}
