"""Reference differentiable progressive sampling (paper Algorithm 2):
the original loop that builds the autograd graph step by step.

The oracle the fused kernel (:class:`repro.train.FusedDPS`) is checked
against — estimates draw for draw, gradients to 1e-4 — by
``tests/test_train_engine.py`` and ``tests/test_backend_matrix.py``.
Moved here unchanged from
``DifferentiableProgressiveSampler.estimate_batch_legacy``; it reads
``model``, ``num_samples``, ``temperature`` and the seeded ``rng`` off a
:class:`repro.core.dps.DifferentiableProgressiveSampler`.
"""

from __future__ import annotations

import numpy as np

from repro.core.gumbel import gs_sample
from repro.infer import compile_constraints
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concatenate


def estimate_batch_legacy(dps, constraint_lists: list[list]) -> Tensor:
    """The original autograd-graph loop (reference implementation)."""
    model = dps.model
    n_queries = len(constraint_lists)
    s = dps.num_samples
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
        h = model.hidden_tensor(x)
        logits = model.column_logits_from_hidden(h, col)
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
            from repro.nn.tensor import add_constant
            masked_logits = add_constant(
                masked_logits,
                np.log(np.maximum(gain, 1e-30)).astype(np.float32))
        log_cond = F.log_softmax(masked_logits, axis=-1)
        y = gs_sample(log_cond, dps.temperature, dps.rng)
        hard_hi[col] = np.argmax(y.data, axis=-1)
        segments[col] = model.encoders[col].encode_soft(y)

    est = density.reshape(n_queries, s).mean(axis=1)
    return est
