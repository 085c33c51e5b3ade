"""``ReferenceUAE``: a :class:`repro.core.UAE` whose two training losses
run the original autograd paths instead of the fused kernels.

Everything else — model construction, RNG streams, ``fit`` /
``ingest_*`` loops, optimizer — is inherited, so a ``ReferenceUAE`` and a
``UAE`` built from the same seed differ *only* in how each loss is
computed.  That is what lets ``tests/test_backend_matrix.py`` and
``tests/test_train_engine.py`` hold the fused kernels to the 1e-4
contract over whole seeded fits.  The ``data_loss`` body is the
per-column ``F.cross_entropy`` branch moved unchanged out of
``UAE.data_loss``.
"""

from __future__ import annotations

import numpy as np

from repro.core import UAE
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .dps import estimate_batch_legacy


class ReferenceUAE(UAE):
    def data_loss(self, batch_codes: np.ndarray) -> Tensor:
        n = len(batch_codes)
        frac = self.rng.uniform(0.0, self.config.wildcard_max_frac, size=(n, 1))
        wildcard = self.rng.random((n, self.model.num_cols)) < frac
        logits = self.model.forward_codes(batch_codes, wildcard=wildcard)
        loss: Tensor | None = None
        for col in range(self.model.num_cols):
            term = F.cross_entropy(self.model.logits_for(logits, col),
                                   batch_codes[:, col])
            loss = term if loss is None else loss + term
        return loss

    def query_loss(self, constraints: list[list],
                   true_sels: np.ndarray) -> Tensor:
        if self.config.gradient_estimator == "reinforce":
            return super().query_loss(constraints, true_sels)
        est = estimate_batch_legacy(self.dps, constraints)
        return self._discrepancy(est, true_sels)


#: the parity tests' parametrize ids -> the class that trains that way
UAE_CLASS = {"legacy": ReferenceUAE, "engine": UAE}
