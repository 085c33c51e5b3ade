"""Compiled hybrid-training engine (the training fast path).

Mirror of the inference engine for the *training* side of the paper
(Sections 4.3-4.5): hand-fused forward/backward kernels around the shared
ResMADE trunk (:mod:`repro.nn.trunk`), pooled activation and gradient
buffers, and float32 discipline end to end.

* :class:`FusedDataLoss` — one fused pass for the data NLL (Eq. 2),
  replacing the per-column ``F.cross_entropy`` graph;
* :class:`FusedDPS` — the vectorized differentiable-progressive-sampling
  step (Algorithm 2) that ``UAE.query_loss`` runs;
* :func:`discrepancy` — the query loss's q-error / MSE / MSLE and its
  gradient w.r.t. the estimates, in closed form.

No autograd graph is built: each loss writes ``scale * dL/dtheta``
straight into the parameters' ``.grad``, and ``UAE._step`` adds the data
term and the lambda-scaled query term before ``optimizer.step()``.  The
autograd paths they replaced live under ``tests/reference/`` as the
oracle for the 1e-4 gradient-parity contract.
"""

from .fused import FusedDataLoss
from .dps_fused import FusedDPS
from .discrepancy import DISCREPANCIES, discrepancy

__all__ = ["FusedDataLoss", "FusedDPS", "DISCREPANCIES", "discrepancy"]
