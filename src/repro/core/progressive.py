"""Sampling-based inference for range queries (paper Section 4.2).

Progressive sampling — Monte-Carlo integration over the query region,
sampling each attribute in autoregressive order from the model's
conditional *truncated to the region* and averaging the per-sample
products of retained mass — runs on the compiled inference engine
(:mod:`repro.infer`), driven by :meth:`repro.core.UAE.cardinalities`.
The original pure-numpy loop is the tests' oracle
(``tests/reference/progressive.py``), checked draw for draw against
the engine.

This module keeps the uniform-sampling baseline (Eq. 4) that the
sampler ablation compares against.
"""

from __future__ import annotations

import numpy as np

from ..infer import CompiledModel
from ..nn.functional import softmax_nll
from ..nn.trunk import trunk_forward


class UniformSampler:
    """Uniform-sampling baseline for range queries (paper Eq. 4).

    Samples tuples uniformly from the query region and averages the model
    density times the region volume — higher variance than progressive
    sampling on skewed data, kept for the ablation benchmark.  Reads the
    caller's compiled snapshot (input deltas and column heads) and runs
    the shared trunk kernel once over the sampled rows.
    """

    def __init__(self, compiled: CompiledModel, num_samples: int = 200,
                 seed: int = 0):
        self.compiled = compiled
        self.model = compiled.model
        self.num_samples = num_samples
        self.rng = np.random.default_rng(seed)

    def estimate(self, constraints: list) -> float:
        model = self.model
        s = self.num_samples
        # Per queried column, the codes its draws come from.  A factorized
        # column's region is the grid of valid (hi, lo) digit pairs, not
        # the box of valid his times valid los, so the pair is drawn
        # jointly from the grid's cells at the low digit's column.
        cells: dict[int, np.ndarray] = {}
        for col, cons in enumerate(constraints):
            if cons is None:
                continue
            if cons[0] == "scaled":
                raise NotImplementedError(
                    "UniformSampler does not support fanout-scaled columns; "
                    "use progressive sampling for join estimation")
            if cons[0] == "lo":
                cells.pop(col - 1, None)
            cells[col] = np.flatnonzero(cons[1])
            if len(cells[col]) == 0:
                return 0.0
        volume = 1.0
        codes = {}
        for col, valid in cells.items():
            volume *= len(valid)
            drawn = self.rng.choice(valid, size=s)
            if constraints[col][0] == "lo":
                codes[col - 1], codes[col] = np.divmod(
                    drawn, constraints[col][1].shape[1])
            else:
                codes[col] = drawn
        # Model density of each sampled point, with wildcards marginalised
        # by the wildcard-trained network.
        compiled = self.compiled
        compiled.ensure_current()
        pre = np.repeat(compiled.wildcard_pre, s, axis=0)
        for col, drawn in codes.items():
            pre += compiled.code_delta[col][drawn]
        h, _ = trunk_forward(model, pre=pre)
        np.maximum(h, 0.0, out=h)
        logp = np.zeros(s, dtype=np.float64)
        for col, drawn in codes.items():
            logits = h @ compiled.heads[col]
            logits += compiled.head_bias[col]
            logp -= softmax_nll(logits, drawn)
        return float(np.clip(np.exp(logp).mean() * volume, 0.0, 1.0))
