"""Differentiable Progressive Sampling (paper Algorithm 2).

The inference-time sampler in :mod:`repro.core.progressive` draws *hard*
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
"""

from __future__ import annotations

import numpy as np

from ..infer import compile_constraints
from ..nn import functional as F
from ..nn.made import ResMADE
from ..nn.tensor import Tensor, concatenate, stack


class DifferentiableProgressiveSampler:
    """Batched DPS over model-column constraint lists.

    Runs the hand-fused training kernel
    (:class:`repro.train.dps_fused.FusedDPS`): persistent input buffer,
    step-0 wildcard dedup, one hand-written backward.  The original
    graph-built loop is the tests' oracle
    (``tests/reference/dps.py``); both consume the Gumbel stream
    identically, so a shared seed gives draw-for-draw agreement.
    """

    def __init__(self, model: ResMADE, num_samples: int = 8,
                 temperature: float = 1.0, seed: int = 0):
        if num_samples < 1:
            raise ValueError("need at least one sample")
        self.model = model
        self.num_samples = num_samples
        self.temperature = temperature
        self.rng = np.random.default_rng(seed)
        self._fused = None

    def estimate_batch(self, constraint_lists: list[list]) -> Tensor:
        """Differentiable selectivity estimates ``[num_queries]``."""
        if self._fused is None:
            from ..train.dps_fused import FusedDPS
            self._fused = FusedDPS(self.model)
        return self._fused.estimate_batch(
            constraint_lists, self.num_samples, self.temperature, self.rng)


class ScoreFunctionSampler:
    """REINFORCE / score-function alternative to DPS (paper Section 4.3).

    Kept for the gradient-estimator ablation: the paper argues SF has higher
    variance than Gumbel-Softmax.  The implementation draws hard samples and
    returns both the (non-differentiable) per-query estimates and the
    surrogate loss ``sum(stop_grad(weight) * log P(z))`` whose gradient is
    the score-function estimator of the query loss.
    """

    def __init__(self, model: ResMADE, num_samples: int = 8, seed: int = 0):
        self.model = model
        self.num_samples = num_samples
        self.rng = np.random.default_rng(seed)

    def surrogate(self, constraint_lists: list[list],
                  true_sels: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Returns (surrogate loss tensor, detached selectivity estimates)."""
        model = self.model
        n_queries = len(constraint_lists)
        s = self.num_samples
        batch = n_queries * s
        queried = [any(cl[c] is not None for cl in constraint_lists)
                   for c in range(model.num_cols)]
        last_pos = max((model.position[c] for c in range(model.num_cols)
                        if queried[c]), default=-1)

        zero_codes = np.zeros((batch, model.num_cols), dtype=np.int64)
        all_wild = np.ones((batch, model.num_cols), dtype=bool)
        x_np = model.encode_tuples(zero_codes, wildcard=all_wild)
        segments = [Tensor(x_np[:, model.input_slices[c]])
                    for c in range(model.num_cols)]

        density = np.ones(batch, dtype=np.float64)
        log_prob_terms: list[Tensor] = []
        hard: dict[int, np.ndarray] = {}
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
            x = concatenate(segments, axis=-1)
            h = model.hidden_tensor(x)
            logits = model.column_logits_from_hidden(h, col)
            probs_np = _softmax_np(logits.data)
            in_region = (probs_np * valid).sum(axis=1)
            density *= in_region
            if pos == last_pos:
                break
            truncated = probs_np * valid
            mass = truncated.sum(axis=1, keepdims=True)
            bad = mass[:, 0] <= 0
            if bad.any():
                fb = valid[bad].astype(np.float64)
                fb[fb.sum(axis=1) == 0] = 1.0
                truncated[bad] = fb / fb.sum(axis=1, keepdims=True)
                mass = truncated.sum(axis=1, keepdims=True)
            truncated /= np.maximum(mass, 1e-30)
            cdf = np.cumsum(truncated, axis=1)
            cdf /= cdf[:, -1:]
            codes = np.minimum((self.rng.random((batch, 1)) > cdf).sum(axis=1),
                               probs_np.shape[1] - 1)
            hard[col] = codes
            # log P_theta(z_col | prefix), differentiable w.r.t. theta.
            logp = F.log_softmax(F.masked_fill(logits, ~valid), axis=-1)
            log_prob_terms.append(logp.take_along_last(
                codes.reshape(-1, 1)).reshape(batch))
            enc = model.encoders[col].encode_hard(codes)
            segments[col] = Tensor(enc)

        est = density.reshape(n_queries, s).mean(axis=1)
        # Per-sample REINFORCE weight: d qerror / d estimate, detached.
        eps = 1e-9
        true = np.maximum(true_sels, eps)
        est_c = np.maximum(est, eps)
        dq = np.where(est_c >= true, 1.0 / true, -true / est_c ** 2)
        weight = np.repeat(dq / s, s) * density
        if not log_prob_terms:
            return Tensor(np.zeros(1, dtype=np.float32)), est
        total_logp = log_prob_terms[0]
        for term in log_prob_terms[1:]:
            total_logp = total_logp + term
        surrogate = (total_logp * Tensor(weight.astype(np.float32))).sum() \
            * (1.0 / n_queries)
        return surrogate, est


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
