"""Compiled hybrid-training engine (the training fast path).

Mirror of the PR 1 inference engine for the *training* side of the paper
(Sections 4.3-4.5): hand-fused forward/backward kernels over the masked
layers' cached fused weights, pooled activation and gradient buffers, and
float32 discipline end to end.

* :class:`FusedDataLoss` — one fused pass for the data NLL (Eq. 2),
  replacing the per-column ``F.cross_entropy`` graph;
* :class:`FusedDPS` — the vectorized differentiable-progressive-sampling
  step (Algorithm 2) behind ``DifferentiableProgressiveSampler``.

These are the only training kernels ``UAE`` runs.  The original autograd
paths they replaced live under ``tests/reference/`` as the oracle for the
1e-4 gradient-parity contract (``tests/test_train_engine.py``,
``tests/test_backend_matrix.py``).
"""

from .fused import BufferPool, FusedDataLoss, TrunkGrads, trunk_backward, \
    trunk_forward
from .dps_fused import FusedDPS

__all__ = [
    "BufferPool", "FusedDataLoss", "TrunkGrads", "trunk_backward",
    "trunk_forward", "FusedDPS",
]
