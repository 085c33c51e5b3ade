"""The fused data loss's per-column cross-entropy loop (the oracle of
its one-pass kernel).

:class:`LoopDataLoss` is a :class:`repro.train.FusedDataLoss` whose
``cross_entropy`` runs :func:`repro.nn.functional.softmax_nll` column by
column and scatters the ``-1`` of each column's target on its strided
slice, as the kernel did before it became whole-matrix passes.  The
forward, backward and embedding-table gradient are inherited, so
``tests/test_train_engine.py`` can require the two to agree to the bit:
loss, ``dL/dlogits`` and every parameter gradient.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax_nll
from repro.train import FusedDataLoss


class LoopDataLoss(FusedDataLoss):
    def cross_entropy(self, logits: np.ndarray, codes: np.ndarray) -> float:
        model = self.model
        n = len(codes)
        ridx = np.arange(n)
        total = 0.0
        for c in range(model.num_cols):
            lg = logits[:, model.logit_slices[c]]
            total += softmax_nll(lg, codes[:, c]).sum() / n
            lg[ridx, codes[:, c]] -= 1.0
        logits *= np.float32(1.0 / n)
        return total

