"""Reference differentiable progressive sampling (paper Algorithm 2):
the original loop that builds the autograd graph step by step, and the
graph-built REINFORCE surrogate.

The oracles the fused kernel (:class:`repro.train.FusedDPS`) and the
score-function sampler's hand-written backward
(:class:`repro.core.dps.ScoreFunctionSampler`) are checked against —
estimates draw for draw, gradients to 1e-4 — by
``tests/test_train_engine.py`` and ``tests/test_backend_matrix.py``.
:func:`estimate_batch_legacy` takes the same arguments as
:meth:`repro.train.FusedDPS.estimate_batch` plus the ``model``, and
consumes the seeded Gumbel ``rng`` in the same order.
:func:`surrogate_legacy` moved here from ``ScoreFunctionSampler.surrogate``
(its private softmax helper swapped for ``softmax_np``, the same
computation) and reads ``model``, ``num_samples`` and ``rng`` off a
``ScoreFunctionSampler``.
"""

from __future__ import annotations

import numpy as np

from repro.infer import compile_constraints
from repro.nn.functional import softmax_np

from . import functional as F
from .gumbel import gs_sample
from .made import column_logits_from_hidden, encode_soft, hidden_tensor
from .tensor import Tensor, add_constant, concatenate


def estimate_batch_legacy(model, constraint_lists: list[list],
                          num_samples: int, temperature: float,
                          rng: np.random.Generator) -> Tensor:
    """The original autograd-graph loop (reference implementation)."""
    n_queries = len(constraint_lists)
    s = num_samples
    batch = n_queries * s

    queried = [any(cl[c] is not None for cl in constraint_lists)
               for c in range(model.num_cols)]
    last_pos = max((model.position[c] for c in range(model.num_cols)
                    if queried[c]), default=-1)
    if last_pos < 0:
        return Tensor(np.ones(n_queries, dtype=np.float32))

    zero_codes = np.zeros((batch, model.num_cols), dtype=np.int64)
    all_wild = np.ones((batch, model.num_cols), dtype=bool)
    x_np = model.encode_tuples(zero_codes, wildcard=all_wild)

    # Per-column input segments; queried columns get replaced by the
    # differentiable soft encoding as sampling progresses.
    segments: list[Tensor] = [
        Tensor(x_np[:, model.input_slices[c]])
        for c in range(model.num_cols)]

    density: Tensor | None = None
    hard_hi: dict[int, np.ndarray] = {}
    compiled = compile_constraints(constraint_lists, model.domain_sizes)

    for pos in range(last_pos + 1):
        col = model.order[pos]
        if not queried[col]:
            continue
        valid, gain = compiled.valid_gain_rows(col, s, hard_hi)
        x = concatenate(segments, axis=-1)
        h = hidden_tensor(model, x)
        logits = column_logits_from_hidden(model, h, col)
        probs = F.softmax(logits, axis=-1)
        weight = valid.astype(np.float32) if gain is None \
            else (valid * gain).astype(np.float32)
        in_region = (probs * Tensor(weight)).sum(axis=-1)
        density = in_region if density is None else density * in_region
        if pos == last_pos:
            break
        # Truncate the conditional to the region (Alg. 2 lines 7-8) and
        # GS-sample a differentiable soft one-hot (line 9).  Gains fold
        # into the proposal as constant log-offsets so join fanout
        # scaling stays unbiased under DPS too.
        masked_logits = F.masked_fill(logits, ~valid)
        if gain is not None:
            masked_logits = add_constant(
                masked_logits,
                np.log(np.maximum(gain, 1e-30)).astype(np.float32))
        log_cond = F.log_softmax(masked_logits, axis=-1)
        y = gs_sample(log_cond, temperature, rng)
        hard_hi[col] = np.argmax(y.data, axis=-1)
        segments[col] = encode_soft(model.encoders[col], y)

    est = density.reshape(n_queries, s).mean(axis=1)
    return est


def surrogate_legacy(sf, constraint_lists: list[list],
                     true_sels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Returns (surrogate loss tensor, detached selectivity estimates):
    ``sum(stop_grad(weight) * log P(z))``, whose gradient is the
    score-function estimator of the mean q-error's."""
    model = sf.model
    n_queries = len(constraint_lists)
    s = sf.num_samples
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
        h = hidden_tensor(model, x)
        logits = column_logits_from_hidden(model, h, col)
        probs_np = softmax_np(logits.data, axis=1)
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
        codes = np.minimum((sf.rng.random((batch, 1)) > cdf).sum(axis=1),
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
