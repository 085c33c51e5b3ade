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
from ..nn.functional import log_softmax_np
from ..nn.made import ResMADE


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
    sampling on skewed data, kept for the ablation benchmark.  The forward
    pass runs through the compiled model snapshot.
    """

    def __init__(self, model: ResMADE, num_samples: int = 200, seed: int = 0):
        self.model = model
        self.compiled = CompiledModel(model)
        self.num_samples = num_samples
        self.rng = np.random.default_rng(seed)

    def estimate(self, constraints: list) -> float:
        model = self.model
        s = self.num_samples
        volume = 1.0
        columns = []
        for col in range(model.num_cols):
            cons = constraints[col]
            if cons is None:
                columns.append(None)
                continue
            if cons[0] == "scaled":
                raise NotImplementedError(
                    "UniformSampler does not support fanout-scaled columns; "
                    "use ProgressiveSampler for join estimation")
            if cons[0] == "lo":
                mask = cons[1].any(axis=0)
            else:
                mask = cons[1]
            valid_codes = np.flatnonzero(mask)
            if len(valid_codes) == 0:
                return 0.0
            volume *= len(valid_codes)
            columns.append(valid_codes)
        codes = np.zeros((s, model.num_cols), dtype=np.int64)
        wildcard = np.zeros((s, model.num_cols), dtype=bool)
        for col, valid_codes in enumerate(columns):
            if valid_codes is None:
                wildcard[:, col] = True
            else:
                codes[:, col] = self.rng.choice(valid_codes, size=s)
        # Model density of each sampled point, with wildcards marginalised
        # by the wildcard-trained network.
        self.compiled.ensure_current()
        x = model.encode_tuples(codes, wildcard=wildcard)
        logits = self.compiled.all_logits(x)
        logp = np.zeros(s, dtype=np.float64)
        for col, valid_codes in enumerate(columns):
            if valid_codes is None:
                continue
            lp = log_softmax_np(model.logits_for_np(logits, col))
            logp += lp[np.arange(s), codes[:, col]]
        return float(np.clip(np.exp(logp).mean() * volume, 0.0, 1.0))
