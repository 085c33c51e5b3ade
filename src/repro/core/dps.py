"""Differentiable Progressive Sampling (paper Algorithm 2).

The inference-time sampler (:mod:`repro.infer`) draws *hard*
categorical samples, through which gradients cannot flow (Figure 2(2) of the
paper).  DPS replaces every hard draw with a Gumbel-Softmax sample
(Algorithm 1): a *continuous* soft one-hot vector ``y_i`` whose encoding
feeds the next sampling step, so the full chain

    logits -> truncate to region -> GS-sample -> encode -> next logits -> ...

is differentiable end-to-end and the query loss (Eq. 5/6) trains the model
weights directly (Figure 2(3)).

Per Algorithm 2:

* line 6 — the per-sample density estimate accumulates
  ``P_theta(z_i in R_i | z_<i)``;
* line 7 — probabilities outside ``R_i`` are masked to −inf;
* line 9 — the next value is GS-sampled from the truncated conditional;
* line 13 — estimates of the S samples are averaged.

Factorized low digits use the *hard* argmax of the high digit's soft sample
to pick the conditional mask — a straight-through-style approximation (the
mask choice itself carries no gradient).

DPS runs as the hand-fused training kernel
(:class:`repro.train.FusedDPS`), which :meth:`repro.core.UAE.query_loss`
drives with its config's ``dps_samples`` and ``temperature``; the
graph-built loop is the tests' oracle (``tests/reference/dps.py``), and
both consume the Gumbel stream identically.  This module keeps the
score-function alternative for the gradient-estimator ablation.
Neither builds an autograd graph: ``estimate_batch`` returns an array,
and ``accumulate_grad(g_est)`` adds the gradient of ``sum(g_est * est)``
(or its score-function estimate) into ``.grad``.
"""

from __future__ import annotations

import numpy as np

from ..infer import compile_constraints
from ..nn.buffers import BufferPool
from ..nn.functional import NEG_INF, hard_sample_np, softmax_np
from ..nn.made import ResMADE
from ..nn.trunk import trunk_forward
from ..train.fused import network_backward


class ScoreFunctionSampler:
    """REINFORCE / score-function alternative to DPS (paper Section 4.3).

    Kept for the gradient-estimator ablation: the paper argues SF has higher
    variance than Gumbel-Softmax.  :meth:`estimate_batch` draws *hard*
    samples on the trunk kernel; :meth:`accumulate_grad` writes
    ``sum_r w_r * grad log P_valid(z_r)`` with the detached weight
    ``w_r = g_est[q(r)] / S * density_r``: a row-weighted, region-masked
    softmax cross-entropy, in one pass over the *final* encoded input
    (MADE masks make a column's logits blind to later positions).  The
    graph surrogate it replaced is the tests' oracle.
    """

    def __init__(self, model: ResMADE, num_samples: int = 8, seed: int = 0):
        self.model = model
        self.num_samples = num_samples
        self.rng = np.random.default_rng(seed)
        self.pool = BufferPool()
        self._state: tuple | None = None

    def estimate_batch(self, constraint_lists: list[list]) -> np.ndarray:
        """Hard-sampled selectivity estimates ``[num_queries]`` (float64);
        the samples stay here for :meth:`accumulate_grad`."""
        model = self.model
        out_l = model.output_layer
        n_queries = len(constraint_lists)
        s = self.num_samples
        batch = n_queries * s
        queried = [any(cl[c] is not None for cl in constraint_lists)
                   for c in range(model.num_cols)]
        last_pos = max((model.position[c] for c in range(model.num_cols)
                        if queried[c]), default=-1)

        x = model.encode_tuples(
            np.zeros((batch, model.num_cols), dtype=np.int64),
            wildcard=np.ones((batch, model.num_cols), dtype=bool))
        density = np.ones(batch, dtype=np.float64)
        hard: dict[int, np.ndarray] = {}
        sampled: list[tuple[int, np.ndarray, np.ndarray]] = []
        compiled = compile_constraints(constraint_lists, model.domain_sizes)

        for pos in range(last_pos + 1):
            col = model.order[pos]
            if not queried[col]:
                continue
            valid, gain = compiled.valid_gain_rows(col, s, hard)
            if gain is not None:
                raise NotImplementedError(
                    "the REINFORCE ablation does not support fanout-scaled "
                    "join columns; use the Gumbel-Softmax estimator")
            k = int(model.hidden_prefix[pos])
            sl = model.logit_slices[col]
            h, _ = trunk_forward(model, x, width=k)
            np.maximum(h, 0.0, out=h)
            probs = softmax_np(h @ out_l.fused_weight_t()[:k, sl]
                               + out_l.bias.data[sl])
            truncated = probs * valid
            in_region = truncated.sum(axis=1)
            density *= in_region
            if pos == last_pos:
                break
            # A row with no mass left has density 0: any code will do.
            truncated[in_region <= 0] = 1.0
            codes = hard_sample_np(truncated, self.rng)
            hard[col] = codes
            sampled.append((col, valid, codes))
            x[:, model.input_slices[col]] = \
                model.encoders[col].encode_hard(codes)

        self._state = (x, sampled, density)
        return density.reshape(n_queries, s).mean(axis=1)

    def accumulate_grad(self, g_est: np.ndarray) -> None:
        """Add the score-function gradient for the last batch, weighting
        each sample by ``g_est`` of its query (``dL/d est``)."""
        state, self._state = self._state, None
        if state is None or not state[1]:
            return
        x, sampled, density = state
        model = self.model
        pool = self.pool
        out_l = model.output_layer
        s = self.num_samples
        n = len(x)
        # sum(w * log P(z)) is a cross-entropy weighted by -w.
        weight = (np.repeat(np.asarray(g_est, dtype=np.float64) / s, s)
                  * -density).astype(np.float32)

        h, acts = trunk_forward(model, x, pool=pool, tag="sf")
        fr = pool.get("sf.fr", n, out_l.in_features)
        np.maximum(h, 0.0, out=fr)
        grad_logits = pool.zeros("sf.logits", n, out_l.out_features)
        ridx = np.arange(n)
        for col, valid, codes in sampled:
            sl = model.logit_slices[col]
            # d CE / d logits = softmax(masked) - onehot(z), valid only.
            logits = fr @ out_l.fused_weight_t()[:, sl] + out_l.bias.data[sl]
            logits[~valid] = NEG_INF
            g = softmax_np(logits)
            g[ridx, codes] -= 1.0
            g *= valid
            g *= weight[:, None]
            grad_logits[:, sl] = g
        network_backward(model, pool, "sf", x, acts, fr, grad_logits)
