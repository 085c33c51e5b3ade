"""``ReferenceUAE``: a :class:`repro.core.UAE` whose two training losses
run the original autograd paths instead of the fused kernels.

Everything else — model construction, RNG streams, the one training
step behind ``fit`` / ``ingest_*``, optimizer — is inherited, so a
``ReferenceUAE`` and a ``UAE`` built from the same seed differ *only* in
how each loss writes its gradient.  That is what lets
``tests/test_backend_matrix.py`` and ``tests/test_train_engine.py`` hold
the fused kernels to the 1e-4 contract over whole seeded fits.  The
``data_loss`` body is the per-column ``F.cross_entropy`` branch moved out
of ``UAE.data_loss``; its graph forward is
:func:`reference.made.forward_codes`.  Both losses keep the shipped
entry points' contract: add ``scale * gradient`` into ``.grad`` (here
by ``Tensor.backward``) and return the value.
"""

from __future__ import annotations

import numpy as np

from repro.core import UAE

from . import functional as F
from .dps import estimate_batch_legacy
from .losses import GRAPH_DISCREPANCY
from .made import forward_codes, logits_for
from .tensor import Tensor


def backward_scaled(loss: Tensor, scale: float) -> float:
    """``(loss * scale).backward()``; returns the unscaled loss value."""
    (loss * scale).backward()
    return loss.item()


class ReferenceUAE(UAE):
    def data_loss(self, batch_codes: np.ndarray) -> float:
        n = len(batch_codes)
        frac = self.rng.uniform(0.0, self.config.wildcard_max_frac, size=(n, 1))
        wildcard = self.rng.random((n, self.model.num_cols)) < frac
        logits = forward_codes(self.model, batch_codes, wildcard=wildcard)
        loss: Tensor | None = None
        for col in range(self.model.num_cols):
            term = F.cross_entropy(logits_for(self.model, logits, col),
                                   batch_codes[:, col])
            loss = term if loss is None else loss + term
        return backward_scaled(loss, 1.0)

    def query_loss(self, constraints: list[list], true_sels: np.ndarray,
                   scale: float = 1.0) -> float:
        if self.config.gradient_estimator == "reinforce":
            return super().query_loss(constraints, true_sels, scale)
        est = estimate_batch_legacy(self.model, constraints,
                                    self.config.dps_samples,
                                    self.config.temperature, self.dps_rng)
        loss = GRAPH_DISCREPANCY[self.config.discrepancy](est, true_sels)
        return backward_scaled(loss, scale)


#: the parity tests' parametrize ids -> the class that trains that way
UAE_CLASS = {"legacy": ReferenceUAE, "engine": UAE}
