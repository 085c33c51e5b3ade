"""Reference progressive sampling (paper Section 4.2): the original
per-row numpy loop.

The oracle the compiled inference engine (:mod:`repro.infer`) is checked
against, draw for draw, by ``tests/test_infer_engine.py`` and
``tests/test_backend_matrix.py``.  It takes the same arguments as
:meth:`repro.infer.InferenceEngine.estimate_batch` plus the ``model``,
and consumes the seeded ``rng`` in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import hard_sample_np

from .made import column_logits_np, hidden_np


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def estimate_batch_legacy(model, constraint_lists: list[list],
                          num_samples: int, rng: np.random.Generator,
                          with_error: bool = False):
    """The original per-row numpy loop, kept as the reference the
    compiled engine is validated (and benchmarked) against."""
    n_queries = len(constraint_lists)
    s = num_samples
    batch = n_queries * s

    # Which columns are queried by at least one query in the batch;
    # iteration follows the model's autoregressive order.
    queried = [any(cl[c] is not None for cl in constraint_lists)
               for c in range(model.num_cols)]
    last_pos = max((model.position[c] for c in range(model.num_cols)
                    if queried[c]), default=-1)

    # Start fully wildcarded.
    zero_codes = np.zeros((batch, model.num_cols), dtype=np.int64)
    all_wild = np.ones((batch, model.num_cols), dtype=bool)
    x = model.encode_tuples(zero_codes, wildcard=all_wild)

    density = np.ones(batch, dtype=np.float64)
    sampled: dict[int, np.ndarray] = {}

    for pos in range(last_pos + 1):
        col = model.order[pos]
        if not queried[col]:
            continue
        valid, gain = _valid_matrix(model, constraint_lists, col, s, sampled)
        h = hidden_np(model, x)
        logits = column_logits_np(model, h, col)
        probs = _softmax_np(logits)
        weight = valid if gain is None else valid * gain
        in_region = (probs * weight).sum(axis=1)
        density *= in_region
        if pos == last_pos:
            break  # no need to sample the final queried column
        # Truncate + renormalise; the proposal is reweighted by the
        # gain so downstream contributions stay unbiased.  Rows with
        # zero mass sample uniformly over the valid set (their density
        # is already 0).
        truncated = probs * weight
        mass = truncated.sum(axis=1, keepdims=True)
        dead = mass[:, 0] <= 0
        if dead.any():
            fallback = valid[dead].astype(np.float64)
            empty = fallback.sum(axis=1) == 0
            fallback[empty] = 1.0  # empty region: sample anywhere
            fallback /= fallback.sum(axis=1, keepdims=True)
            truncated[dead] = fallback
            mass = truncated.sum(axis=1, keepdims=True)
        truncated = truncated / np.maximum(mass, 1e-30)
        codes = hard_sample_np(truncated, rng)
        sampled[col] = codes
        enc = model.encoders[col].encode_hard(codes)
        x[:, model.input_slices[col]] = enc
    per_sample = density.reshape(n_queries, s)
    result = np.clip(per_sample.mean(axis=1), 0.0, 1.0)
    if with_error:
        std_err = per_sample.std(axis=1, ddof=1) / np.sqrt(s) \
            if s > 1 else np.zeros(n_queries)
        return result, std_err
    return result


def _valid_matrix(model, constraint_lists: list[list], col: int, s: int,
                  sampled: dict[int, np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Validity (and optional gain) matrices for model column ``col``.

    Fixed masks broadcast per query; ``("lo", grid)`` masks are looked
    up per-sample using the high digit sampled at ``col - 1``;
    ``("scaled", mask, g)`` contributes the per-value gain ``g`` (the
    join estimator's ``1/fanout`` factors).  The compiled-constraint
    equivalent is :meth:`repro.infer.CompiledConstraints.valid_gain_rows`.
    """
    domain = model.domain_sizes[col]
    rows = []
    gains: list[np.ndarray] | None = None
    for qi, cl in enumerate(constraint_lists):
        cons = cl[col]
        if cons is None:
            rows.append(np.ones((s, domain), dtype=bool))
        elif cons[0] == "fixed":
            rows.append(np.broadcast_to(cons[1], (s, domain)))
        elif cons[0] == "scaled":
            rows.append(np.broadcast_to(cons[1], (s, domain)))
            if gains is None:
                gains = [np.ones((s, domain))] * qi
            gains.append(np.broadcast_to(cons[2], (s, domain)))
        elif cons[0] == "lo":
            hi_codes = sampled.get(col - 1)
            if hi_codes is None:
                # High digit was the final sampled column for another
                # query; fall back to the union over high digits.
                union = cons[1].any(axis=0)
                rows.append(np.broadcast_to(union, (s, domain)))
            else:
                grid = cons[1]
                rows.append(grid[hi_codes[qi * s:(qi + 1) * s]])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown constraint kind {cons[0]!r}")
        if gains is not None and len(gains) < qi + 1:
            gains.append(np.ones((s, domain)))
    valid = np.concatenate(rows, axis=0)
    gain = None if gains is None else np.concatenate(gains, axis=0)
    return valid, gain
