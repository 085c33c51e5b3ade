"""UAE: the unified deep autoregressive estimator (paper Section 4).

One ResMADE model, one set of weights, two information sources:

* **UAE-D** — unsupervised: cross-entropy of tuples under the
  autoregressive factorization (Eq. 2).  Equivalent to Naru (Section 4.7).
* **UAE-Q** — supervised: Q-error between true and DPS-estimated
  selectivities (Eq. 5/6), trainable thanks to Gumbel-Softmax.
* **UAE** — hybrid: ``L = L_data + lambda * L_query`` (Eq. 11, Algorithm 3).

The class also implements Section 4.5's incremental ingestion: new tuples
refine the model through the data loss, new (shifted) query workloads
through the query loss, no retraining from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from ..data.encoding import ColumnFactorization
from ..data.table import Table
from ..estimators.base import TrainableEstimator
from ..nn import functional as F
from ..nn.made import ResMADE
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..workload.predicate import LabeledWorkload, Query
from .dps import DifferentiableProgressiveSampler, ScoreFunctionSampler
from .progressive import ProgressiveSampler, UniformSampler


@dataclass
class UAEConfig:
    """Hyper-parameters; defaults follow the paper scaled for CPU.

    Paper values are noted in parentheses where ours differ for runtime:
    ``dps_samples`` (S=200), ``est_samples`` (200 in-workload / 1000
    random), ``hidden`` (128).
    """

    hidden: int = 64
    num_blocks: int = 2
    encoding: str = "binary"
    embedding_threshold: int = 8192
    embedding_dim: int = 32
    factor_threshold: int = 2048
    factor_bits: int = 11
    lr: float = 2e-3
    batch_size: int = 512
    query_batch_size: int = 16
    dps_samples: int = 8
    est_samples: int = 128
    temperature: float = 1.0
    lam: float = 1e-4
    lr_decay: float = 1.0   # per-epoch multiplicative LR decay
    wildcard_max_frac: float = 0.5
    discrepancy: str = "qerror"
    gradient_estimator: str = "gumbel"  # or "reinforce" (ablation)
    column_order: str = "natural"       # or "random" (ordering ablation)
    grad_clip: float | None = 8.0
    seed: int = 0


class UAE(TrainableEstimator):
    """The unified estimator.  ``mode`` at fit time selects D/Q/hybrid."""

    name = "UAE"

    def __init__(self, table: Table, config: UAEConfig | None = None,
                 **overrides):
        super().__init__(table)
        config = config or UAEConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.fact = ColumnFactorization(table, threshold=config.factor_threshold,
                                        bits=config.factor_bits)
        self._init_model_stack(self._build_order(config.column_order))
        self.model_codes = self.fact.encode_rows(table.codes)
        self.history: list[dict[str, float]] = []
        # Optional repro.obs.MetricsRegistry: when set (e.g. by
        # UAEServer), fit() records per-step counters/latency under
        # repro_train_*{mode=...}.  Not carried by snapshot()/clone().
        self.metrics = None

    def _init_model_stack(self, order: list[int] | None) -> None:
        """Model, optimizer, and samplers (shared by ``__init__`` and the
        lightweight :meth:`snapshot` path)."""
        config = self.config
        self.model = ResMADE(self.fact.model_domains, hidden=config.hidden,
                             num_blocks=config.num_blocks, rng=self.rng,
                             encoding=config.encoding,
                             embedding_threshold=config.embedding_threshold,
                             embedding_dim=config.embedding_dim,
                             order=order)
        self.optimizer = Adam(self.model.parameters(), lr=config.lr,
                              grad_clip=config.grad_clip)
        self.sampler = ProgressiveSampler(self.model,
                                          num_samples=config.est_samples,
                                          seed=config.seed + 1)
        self.dps = DifferentiableProgressiveSampler(
            self.model, num_samples=config.dps_samples,
            temperature=config.temperature, seed=config.seed + 2)
        self.sf = ScoreFunctionSampler(self.model,
                                       num_samples=config.dps_samples,
                                       seed=config.seed + 2)
        self._fused_data = None  # lazy FusedDataLoss

    def _build_order(self, strategy: str) -> list[int] | None:
        """Column-ordering strategies (paper Section 4.2 / Naru, MADE).

        ``natural`` is the paper's left-to-right default.  ``random``
        permutes *original* columns but keeps each factored column's
        hi/lo digits adjacent (the low digit's constraint depends on the
        sampled high digit).
        """
        if strategy == "natural":
            return None
        if strategy != "random":
            raise ValueError(f"unknown column_order {strategy!r}")
        groups: list[list[int]] = []
        j = 0
        for spec in self.fact.specs:
            width = 2 if spec.factored else 1
            groups.append(list(range(j, j + width)))
            j += width
        self.rng.shuffle(groups)
        return [idx for group in groups for idx in group]

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------
    def data_loss(self, batch_codes: np.ndarray) -> Tensor:
        """Eq. 2 with Naru-style wildcard dropout for skipping support.

        Runs the hand-fused forward/backward kernel
        (:class:`repro.train.FusedDataLoss`).  The original per-column
        ``F.cross_entropy`` graph is the tests' oracle
        (``tests/reference/uae.py``): it consumes the wildcard-dropout
        RNG identically and agrees on gradients to float32 rounding.
        """
        n = len(batch_codes)
        frac = self.rng.uniform(0.0, self.config.wildcard_max_frac, size=(n, 1))
        wildcard = self.rng.random((n, self.model.num_cols)) < frac
        if self._fused_data is None:
            from ..train import FusedDataLoss
            self._fused_data = FusedDataLoss(self.model)
        return self._fused_data.loss(batch_codes, wildcard)

    def _discrepancy(self, est: Tensor, true_sels: np.ndarray) -> Tensor:
        kind = self.config.discrepancy
        if kind == "qerror":
            return F.qerror_loss(est, true_sels)
        if kind == "mse":
            return F.mse_loss(est, true_sels)
        if kind == "msle":
            return F.msle_loss(est, true_sels)
        raise ValueError(f"unknown discrepancy {kind!r}")

    def query_loss(self, constraints: list[list],
                   true_sels: np.ndarray) -> Tensor:
        """Eq. 5 through DPS (or the REINFORCE surrogate for the ablation)."""
        if self.config.gradient_estimator == "reinforce":
            surrogate, _ = self.sf.surrogate(constraints, true_sels)
            return surrogate
        est = self.dps.estimate_batch(constraints)
        return self._discrepancy(est, true_sels)

    # ------------------------------------------------------------------
    # Training (Algorithm 3)
    # ------------------------------------------------------------------
    def fit(self, epochs: int = 10, workload: LabeledWorkload | None = None,
            mode: str = "hybrid",
            on_epoch_end: Callable[[int, "UAE"], None] | None = None,
            query_steps_per_epoch: int | None = None,
            validation: LabeledWorkload | None = None,
            patience: int | None = None) -> "UAE":
        """Train the single set of weights from data and/or queries.

        ``mode``: ``"data"`` (UAE-D / Naru), ``"query"`` (UAE-Q) or
        ``"hybrid"`` (Algorithm 3 — requires ``workload``).

        With ``validation`` and ``patience``, training stops early once
        the validation mean q-error fails to improve for ``patience``
        epochs, restoring the best weights seen.
        """
        if mode not in ("data", "query", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("query", "hybrid") and workload is None:
            raise ValueError(f"mode {mode!r} needs a labeled workload")

        prepared = self._prepare_workload(workload) if workload else None
        rows = self.model_codes
        steps = max(1, int(np.ceil(len(rows) / self.config.batch_size)))
        if mode == "query":
            steps = query_steps_per_epoch or max(
                1, len(workload) // self.config.query_batch_size)

        best_score = np.inf
        best_state = None
        best_opt_state = None
        stale_epochs = 0
        base_lr = self.optimizer.lr

        step_counter = step_timer = None
        if self.metrics is not None:
            step_counter = self.metrics.counter(
                "repro_train_steps_total", "Optimizer steps taken",
                ("mode",)).labels(mode=mode)
            step_timer = self.metrics.histogram(
                "repro_train_step_seconds", "Wall time per optimizer step",
                ("mode",)).labels(mode=mode)

        for epoch in range(epochs):
            self.optimizer.lr = base_lr * self.config.lr_decay ** epoch
            epoch_data, epoch_query, count = 0.0, 0.0, 0
            for _ in range(steps):
                step_t0 = time.perf_counter() if step_timer is not None \
                    else 0.0
                loss: Tensor | None = None
                if mode in ("data", "hybrid"):
                    idx = self.rng.integers(0, len(rows),
                                            self.config.batch_size)
                    loss = self.data_loss(rows[idx])
                    epoch_data += loss.item()
                if mode in ("query", "hybrid"):
                    q_loss = self._query_step_loss(prepared)
                    epoch_query += q_loss.item()
                    scale = self.config.lam if mode == "hybrid" else 1.0
                    loss = q_loss * scale if loss is None \
                        else loss + q_loss * scale
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                count += 1
                if step_timer is not None:
                    step_timer.observe(time.perf_counter() - step_t0)
                    step_counter.inc()
            record = {
                "epoch": len(self.history),
                "data_loss": epoch_data / count,
                "query_loss": epoch_query / count,
                "mode": mode,
            }
            if validation is not None:
                record["val_qerror"] = self._validation_qerror(validation)
            self.history.append(record)
            if on_epoch_end is not None:
                on_epoch_end(epoch, self)
            if validation is not None and patience is not None:
                score = record["val_qerror"]
                if score < best_score - 1e-9:
                    best_score = score
                    best_state = self.model.state_dict()
                    best_opt_state = self.optimizer.state_dict()
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= patience:
                        break
        self.optimizer.lr = base_lr
        if best_state is not None:
            # Restore the optimizer moments/step counter captured with
            # the best weights: rewinding weights alone would leave Adam
            # state accumulated toward the discarded trajectory, so a
            # follow-up ``ingest_*`` call would warm-start its first
            # steps from mismatched moments.
            self.model.load_state_dict(best_state)
            self.optimizer.load_state_dict(best_opt_state)
        return self

    def _validation_qerror(self, validation: LabeledWorkload,
                           max_queries: int = 64) -> float:
        queries = validation.queries[:max_queries]
        truths = validation.cardinalities[:max_queries]
        estimates = self.estimate_many(queries)
        from ..workload.metrics import qerrors
        return float(qerrors(estimates, truths).mean())

    def _prepare_workload(self, workload: LabeledWorkload) -> dict:
        constraints = [self.fact.expand_masks(q.masks(self.table))
                       for q in workload.queries]
        sels = workload.selectivities(self.table.num_rows)
        return {"constraints": constraints,
                "sels": sels.astype(np.float64)}

    def _query_step_loss(self, prepared: dict) -> Tensor:
        n = len(prepared["constraints"])
        take = min(self.config.query_batch_size, n)
        idx = self.rng.choice(n, size=take, replace=False)
        constraints = [prepared["constraints"][i] for i in idx]
        sels = prepared["sels"][idx]
        return self.query_loss(constraints, sels)

    # ------------------------------------------------------------------
    # Incremental ingestion (Section 4.5)
    # ------------------------------------------------------------------
    def ingest_data(self, new_codes: np.ndarray, epochs: int = 3) -> "UAE":
        """Refine on freshly inserted tuples via the data loss only."""
        new_model_codes = self.fact.encode_rows(
            np.asarray(new_codes, dtype=np.int32))
        steps = max(1, int(np.ceil(len(new_model_codes)
                                   / self.config.batch_size)))
        for _ in range(epochs):
            for _ in range(steps):
                idx = self.rng.integers(0, len(new_model_codes),
                                        min(self.config.batch_size,
                                            len(new_model_codes)))
                loss = self.data_loss(new_model_codes[idx])
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
        self.model_codes = np.vstack([self.model_codes, new_model_codes])
        self.table = self.table.append_rows(new_codes)
        return self

    def ingest_queries(self, workload: LabeledWorkload,
                       epochs: int = 10) -> "UAE":
        """Adapt to a shifted workload via the query loss only.

        The paper finds 10-20 epochs suffice without catastrophic
        forgetting (Section 4.5).
        """
        prepared = self._prepare_workload(workload)
        return self.ingest_constraints(prepared["constraints"],
                                       prepared["sels"], epochs=epochs)

    def ingest_constraints(self, constraints: list[list],
                           true_sels: np.ndarray,
                           epochs: int = 10) -> "UAE":
        """Query-driven refinement from pre-expanded constraint lists.

        The serving layer's join path lands here: ``JoinQuery`` feedback
        arrives already translated into fanout-scaled constraints (which
        :meth:`_prepare_workload` cannot produce from table-qualified
        predicates), with true cardinalities normalized by the join size
        instead of the table's row count.
        """
        prepared = {"constraints": list(constraints),
                    "sels": np.asarray(true_sels, dtype=np.float64)}
        steps = max(1, len(prepared["constraints"])
                    // self.config.query_batch_size)
        for _ in range(epochs):
            for _ in range(steps):
                loss = self._query_step_loss(prepared)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
        return self

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_selectivity(self, query: Query) -> float:
        constraints = self.fact.expand_masks(query.masks(self.table))
        return self.sampler.estimate(constraints)

    def estimate(self, query: Query) -> float:
        return self._clamp_card(self.estimate_selectivity(query))

    def estimate_interval(self, query: Query,
                          z: float = 1.96) -> tuple[float, float, float]:
        """Cardinality estimate with a normal-approximation confidence
        interval from the progressive-sampling Monte-Carlo error."""
        constraints = self.fact.expand_masks(query.masks(self.table))
        sel, err = self.sampler.estimate_with_error(constraints)
        n = self.table.num_rows
        low = max((sel - z * err) * n, 0.0)
        high = min((sel + z * err) * n, float(n))
        return sel * n, low, high

    def estimate_many(self, queries: list[Query],
                      batch_queries: int | None = None) -> np.ndarray:
        """Batched estimation through the inference engine's scheduler.

        Queries are grouped by queried-column signature so each group runs
        only the autoregressive steps it needs; ``batch_queries`` caps the
        per-call group size (default: the scheduler's row budget).
        """
        if not queries:
            return np.zeros(0, dtype=np.float64)
        constraints = [self.fact.expand_masks(q.masks(self.table))
                       for q in queries]
        sels = self.estimate_constraints_many(constraints,
                                              batch_queries=batch_queries)
        return np.clip(sels, 0.0, 1.0) * self.table.num_rows

    def estimate_constraints_many(self, constraint_lists: list[list],
                                  batch_queries: int | None = None
                                  ) -> np.ndarray:
        """Scheduled selectivity estimates for raw constraint lists."""
        if not constraint_lists:
            return np.zeros(0, dtype=np.float64)
        if batch_queries is not None:
            base = self.sampler.scheduler
            scheduler = type(base)(
                self.sampler.engine,
                max_rows=batch_queries * self.sampler.num_samples,
                min_group_size=base.min_group_size,
                coalesce_rows=base.coalesce_rows)
            return scheduler.estimate_many(
                constraint_lists, self.sampler.num_samples, self.sampler.rng)
        return self.sampler.estimate_many(constraint_lists)

    def estimate_uniform(self, query: Query, num_samples: int = 200) -> float:
        """Uniform-sampling inference (Eq. 4) for the sampler ablation."""
        uniform = UniformSampler(self.model, num_samples=num_samples,
                                 seed=self.config.seed + 3)
        constraints = self.fact.expand_masks(query.masks(self.table))
        return self._clamp_card(uniform.estimate(constraints))

    # ------------------------------------------------------------------
    # Database generation (paper Section 6: the generative nature of UAE-Q
    # enables sampling tuples for DBMS testing / benchmarking).
    # ------------------------------------------------------------------
    def sample_tuples(self, n: int, seed: int | None = None) -> np.ndarray:
        """Ancestral sampling of ``n`` tuples from the learned joint.

        Returns code rows in the *original* table's column space (factored
        model columns are recombined).  Because UAE is a proper generative
        model — unlike discriminative query-driven estimators — this is a
        plain forward pass per column, no normalizing constant needed.
        """
        rng = np.random.default_rng(self.config.seed + 17 if seed is None
                                    else seed)
        model = self.model
        compiled = self.sampler.engine.compiled
        compiled.ensure_current()
        x = np.repeat(compiled.wildcard_row, n, axis=0)
        sampled = np.zeros((n, model.num_cols), dtype=np.int32)
        from ..nn.functional import softmax_np
        from .gumbel import hard_sample_np
        for col in model.order:
            h = compiled.hidden(x)
            probs = softmax_np(compiled.column_logits(h, col))
            codes = hard_sample_np(probs, rng)
            sampled[:, col] = codes
            x[:, model.input_slices[col]] = \
                model.encoders[col].encode_hard(codes)
        return self.fact.decode_rows(sampled)

    def sample_table(self, n: int, seed: int | None = None) -> Table:
        """Sampled tuples as a full :class:`Table` (decoded raw values)."""
        codes = self.sample_tuples(n, seed=seed)
        data = {col.name: col.decode(codes[:, j])
                for j, col in enumerate(self.table.columns)}
        return Table.from_raw(f"{self.table.name}_generated", data)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Save weights + config to an ``.npz`` checkpoint."""
        import json
        from dataclasses import asdict
        state = self.model.state_dict()
        meta = {"config": asdict(self.config),
                "domains": self.fact.model_domains,
                "table_name": self.table.name,
                "num_rows": self.table.num_rows}
        np.savez(path, __meta__=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8), **state)

    @classmethod
    def load(cls, path: str, table: Table) -> "UAE":
        """Rebuild a UAE from a checkpoint; ``table`` must match the one
        the model was trained on (same columns and domains)."""
        import json
        with np.load(path) as payload:
            meta = json.loads(bytes(payload["__meta__"]).decode())
            state = {k: payload[k] for k in payload.files if k != "__meta__"}
        # An older checkpoint may carry hyper-parameters retired since it
        # was written; they no longer select anything, so drop them.
        known = {f.name for f in fields(UAEConfig)}
        config = UAEConfig(**{k: v for k, v in meta["config"].items()
                              if k in known})
        model = cls(table, config)
        if model.fact.model_domains != meta["domains"]:
            raise ValueError(
                "table schema does not match the checkpoint: model domains "
                f"{meta['domains']} != {model.fact.model_domains}")
        model.model.load_state_dict(state)
        return model

    # ------------------------------------------------------------------
    def clone(self, **overrides) -> "UAE":
        """A new UAE with the same table and copied weights.

        Used by the hyper-parameter studies (Section 5.3): pretrain once
        with UAE-D, then refine copies under different tau / S / lambda.
        """
        other = UAE(self.table, self.config, **overrides)
        other.model.load_state_dict(self.model.state_dict())
        return other

    def snapshot(self) -> "UAE":
        """Detached serving copy with a warm compiled engine.

        The hook behind :class:`repro.serve.ModelRegistry`'s hot-swap:
        the copy owns its weights (``load_state_dict`` deep-copies and
        bumps parameter versions, see :mod:`repro.infer.compiled`), so
        continued training on this estimator can never corrupt or stale
        an estimate in flight on the snapshot.  Unlike :meth:`clone`, the
        immutable data artifacts — ``table``, the factorization, and the
        encoded ``model_codes`` — are *shared*, not rebuilt: publishing a
        snapshot costs O(weights), not O(rows), and the registry's
        retained versions do not each hold an encoded table copy
        (``ingest_data`` replaces rather than mutates those objects, so
        sharing is safe).  The engine is compiled eagerly so the first
        estimate after a swap pays no rebuild.
        """
        import copy
        snap = copy.copy(self)
        snap.rng = np.random.default_rng(self.config.seed)
        # Fresh model stack with the trainer's realized column order
        # (preserves "random"-order models), then adopt the weights.
        snap._init_model_stack(list(self.model.order))
        snap.model.load_state_dict(self.model.state_dict())
        snap.history = list(self.history)
        snap.sampler.engine.compiled.ensure_current()
        return snap

    def swap_weights(self, state: dict[str, np.ndarray]) -> "UAE":
        """Atomically adopt a full weight set (registry rollback hook).

        ``load_state_dict`` bumps every parameter version, which
        invalidates this estimator's compiled inference caches on the
        next use — estimates issued after the swap always see the new
        weights.  The optimizer is rebuilt (current learning rate kept):
        Adam moments accumulated toward the replaced weights would bias
        the first steps after a rollback back toward the rejected
        trajectory.
        """
        self.model.load_state_dict(state)
        lr = self.optimizer.lr
        self.optimizer = Adam(self.model.parameters(), lr=lr,
                              grad_clip=self.config.grad_clip)
        return self

    def size_bytes(self) -> int:
        return self.model.size_bytes()

    def loglikelihood(self, codes: np.ndarray) -> float:
        """Mean log-likelihood of raw-table code rows (diagnostics)."""
        model_codes = self.fact.encode_rows(np.asarray(codes, dtype=np.int32))
        return float(-self.model.nll_np(model_codes).mean())
