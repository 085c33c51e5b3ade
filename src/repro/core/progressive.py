"""Progressive sampling for range-query inference (paper Section 4.2).

Monte-Carlo integration over the query region: sample each attribute in
autoregressive order from the model's conditional distribution *truncated to
the query region*, accumulating the probability mass the region retains at
every step.  The average of the per-sample products is an unbiased estimate
of the query selectivity.

Estimation runs on the compiled inference engine (:mod:`repro.infer`):
fused masked weights, packed constraints, prefix-state deduplication and a
signature-grouping batch scheduler.  The original pure-numpy loop is the
tests' oracle (``tests/reference/progressive.py``): the engine's
equivalence tests check it draw for draw against that loop.  Both share:

* **wildcard skipping** — unqueried columns keep their wildcard encoding
  and are skipped entirely (Section 4.6, Liang et al. 2020);
* **factorized columns** — low-digit masks are resolved per-sample from the
  sampled high digit (``("lo", grid)`` constraints, see
  :mod:`repro.data.encoding`);
* **query batching** — many queries are stacked into one matrix so the
  network forward passes amortise.
"""

from __future__ import annotations

import numpy as np

from ..infer import BatchScheduler, CompiledModel, InferenceEngine
from ..nn.functional import softmax_nll
from ..nn.made import ResMADE
from ..nn.trunk import trunk_forward


class ProgressiveSampler:
    """Estimates selectivities for constraint lists over *model columns*.

    A constraint list is what :meth:`ColumnFactorization.expand_masks`
    produces: per model column either ``None``, ``("fixed", mask)``,
    ``("scaled", mask, gain)`` or ``("lo", grid)``.
    """

    def __init__(self, model: ResMADE, num_samples: int = 200,
                 seed: int = 0, max_batch_rows: int = 8192):
        self.model = model
        self.num_samples = num_samples
        self.rng = np.random.default_rng(seed)
        self.max_batch_rows = max_batch_rows
        self._engine: InferenceEngine | None = None
        self._scheduler: BatchScheduler | None = None

    @property
    def engine(self) -> InferenceEngine:
        """Compiled engine, built on first use: constructing a sampler
        (every ``UAE`` builds one) does not pay for the weight snapshot."""
        if self._engine is None:
            self._engine = InferenceEngine(self.model)
        return self._engine

    @property
    def scheduler(self) -> BatchScheduler:
        if self._scheduler is None:
            self._scheduler = BatchScheduler(self.engine,
                                             max_rows=self.max_batch_rows)
        return self._scheduler

    # ------------------------------------------------------------------
    def estimate(self, constraints: list) -> float:
        return float(self.estimate_batch([constraints])[0])

    def estimate_with_error(self, constraints: list) -> tuple[float, float]:
        """Estimate plus its Monte-Carlo standard error.

        Progressive sampling averages independent per-sample densities, so
        the standard error of the mean quantifies the estimate's
        uncertainty — useful for choosing the sample count and for
        risk-aware optimizers.
        """
        sels, errs = self.estimate_batch([constraints], with_error=True)
        return float(sels[0]), float(errs[0])

    def estimate_batch(self, constraint_lists: list[list],
                       with_error: bool = False):
        """Selectivity estimates for a batch of queries."""
        return self.engine.estimate_batch(
            constraint_lists, self.num_samples, self.rng,
            with_error=with_error)

    def estimate_many(self, constraint_lists: list[list],
                      with_error: bool = False):
        """Estimates for a large query mix, scheduled by signature.

        Unlike :meth:`estimate_batch` — which runs every query through the
        union of the batch's queried columns — signature groups execute
        only their own autoregressive steps.  Groups below the
        scheduler's ``min_group_size`` are coalesced into mixed batches
        for throughput; configure the scheduler with ``min_group_size=1``
        when exact single-query-path execution matters more.
        """
        return self.scheduler.estimate_many(
            constraint_lists, self.num_samples, self.rng,
            with_error=with_error)


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
                    "use ProgressiveSampler for join estimation")
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
