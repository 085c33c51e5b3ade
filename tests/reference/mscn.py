"""Graph forward of the MSCN set-MLP: the oracle for its hand-written
backward (``repro.estimators.mscn._SetMLP.accumulate_grad``).

Moved here from ``_SetMLP.forward``; it reads the layers through
:func:`reference.modules.linear`, so ``mse_loss(...).backward()`` fills
the same parameter ``.grad`` buffers ``_SetMLP.mse_loss`` does.
"""

from __future__ import annotations

import numpy as np

from .modules import linear
from .tensor import Tensor, concatenate


def set_mlp_forward(net, pred_feats: Tensor, pred_mask: np.ndarray,
                    extra: Tensor | None = None) -> Tensor:
    """Shared predicate MLP -> mean pool -> output MLP -> sigmoid."""
    b, p, d = pred_feats.shape
    flat = pred_feats.reshape(b * p, d)
    h = linear(net.pred_fc2, linear(net.pred_fc1, flat).relu()).relu()
    h = h * Tensor(pred_mask.reshape(b * p, 1).astype(np.float32))
    pooled = h.reshape(b, p, -1).sum(axis=1)
    counts = np.maximum(pred_mask.sum(axis=1, keepdims=True), 1.0)
    pooled = pooled * Tensor((1.0 / counts).astype(np.float32))
    if net.extra_fc is not None:
        if extra is None:
            raise ValueError("extra branch configured but no input given")
        pooled = concatenate([pooled, linear(net.extra_fc, extra).relu()],
                             axis=-1)
    out = linear(net.out_fc2, linear(net.out_fc1, pooled).relu())
    return out.reshape(b).sigmoid()
