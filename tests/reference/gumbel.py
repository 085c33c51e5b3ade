"""The Gumbel-Softmax trick (paper Algorithm 1, "GS-Sampling") on the
autograd graph: the reference DPS loop's sampler.

Given a categorical distribution ``pi`` (here: the model's predicted
conditional ``P_theta(Z_i | .)`` restricted to a query region), draws a
*differentiable* approximately-one-hot sample

    y = softmax((log pi + g) / tau),     g ~ Gumbel(0, 1)   (Eq. 10)

The Gumbel noise ``g`` enters the graph as a constant, so gradients flow
from the sample back into ``pi`` — this is precisely what lets the deep
autoregressive model learn from queries (Section 4.3).  The fused DPS
kernel (:class:`repro.train.FusedDPS`) inlines the same draw.  Moved
here from ``repro.core.gumbel``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import sample_gumbel

from .functional import log_softmax, softmax
from .tensor import Tensor, add_constant


def gs_sample(log_probs: Tensor, tau: float,
              rng: np.random.Generator) -> Tensor:
    """Differentiable one-hot sample from (log-) categorical ``log_probs``.

    Parameters
    ----------
    log_probs:
        ``[batch, k]`` log-probabilities (may contain large negative values
        for masked-out categories — Algorithm 2, line 7).
    tau:
        Temperature; ``tau -> 0`` approaches exact one-hot, larger values
        trade sample fidelity for lower gradient variance.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    noise = sample_gumbel(log_probs.shape, rng)
    scores = add_constant(log_probs, noise) * (1.0 / tau)
    return softmax(scores, axis=-1)


def gs_sample_from_logits(logits: Tensor, tau: float,
                          rng: np.random.Generator) -> Tensor:
    """Same as :func:`gs_sample` but normalises raw logits first."""
    return gs_sample(log_softmax(logits, axis=-1), tau, rng)
