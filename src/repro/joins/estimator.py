"""Join cardinality estimation on top of the flat join sample.

:class:`UAEJoin` trains the single autoregressive model on the Exact-Weight
sample of the full outer join (Section 4.6) — exactly the single-table UAE
machinery, pointed at the join sample's virtual columns.  A join query over
a table subset S becomes a constraint list over the flat columns:

* content predicates -> masks on the child columns;
* every child in S -> indicator ``__in_child = 1``;
* every child *not* in S -> its fanout column gets a ``("scaled", all,
  1/value)`` constraint so the estimate downscales the outer join:

  ``Card(q) = |J| * E_J[ 1(preds ∧ inds) * prod_{k∉S} 1/fanout_k ]``

NeuroCard (Yang et al. 2021) is this estimator trained with data only;
``mode="hybrid"`` adds the paper's query-driven loss through DPS with the
same scaled constraints, which is UAE's join variant.
"""

from __future__ import annotations

import numpy as np

from ..core.uae import UAE, UAEConfig
from ..data.schema import Schema
from ..workload.predicate import LabeledWorkload, Query
from .sampler import StarJoinSampler
from .workload import FragmentCardinality, JoinQuery, LabeledJoinWorkload


class UAEJoin(FragmentCardinality):
    """UAE/NeuroCard-style estimator over a star schema."""

    name = "UAE-join"

    def __init__(self, schema: Schema, sample_size: int = 20_000,
                 config: UAEConfig | None = None, seed: int = 0, **overrides):
        self.schema = schema
        self.sampler = StarJoinSampler(schema, seed=seed)
        self.join_size = self.sampler.join_size
        self.sample_table = self.sampler.sample(sample_size)
        self.uae = UAE(self.sample_table, config, **overrides)
        self._fanout_gain = self._precompute_gains()

    def _precompute_gains(self) -> dict[str, np.ndarray]:
        gains = {}
        for child in self.schema.children:
            col = self.sample_table.column(f"__fan_{child}")
            gains[child] = 1.0 / col.values.astype(np.float64)
        return gains

    # ------------------------------------------------------------------
    # Query translation
    # ------------------------------------------------------------------
    def _constraints(self, query: JoinQuery) -> list:
        table = self.sample_table
        masks: dict[int, np.ndarray] = {}
        for pred in query.predicates:
            idx = table.column_index(pred.column)
            mask = table.columns[idx].valid_mask(pred.op, pred.value)
            masks[idx] = masks[idx] & mask if idx in masks else mask
        for child in self.schema.children:
            ind_idx = table.column_index(f"__in_{child}")
            fan_idx = table.column_index(f"__fan_{child}")
            if child in query.tables:
                ind_col = table.columns[ind_idx]
                masks[ind_idx] = ind_col.valid_mask("=", 1)
            else:
                # Mark for scaling; handled after expand_masks.
                masks.setdefault(fan_idx, None)
        constraints = self.uae.fact.expand_masks(
            {k: v for k, v in masks.items() if v is not None})
        # Scaled fanout constraints (fanout columns are never factorized —
        # their domains are tiny counts).
        for child in self.schema.children:
            if child in query.tables:
                continue
            fan_idx = table.column_index(f"__fan_{child}")
            model_idx = self._model_index(fan_idx)
            domain = self.uae.fact.model_domains[model_idx]
            all_valid = np.ones(domain, dtype=bool)
            constraints[model_idx] = ("scaled", all_valid,
                                      self._fanout_gain[child])
        return constraints

    def _model_index(self, original_index: int) -> int:
        for j, (orig, part) in enumerate(self.uae.fact.model_owner):
            if orig == original_index:
                if part != 0:
                    raise AssertionError("fanout column unexpectedly factored")
                return j
        raise KeyError(original_index)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, epochs: int = 10,
            workload: LabeledJoinWorkload | None = None,
            mode: str = "data", **kwargs) -> "UAEJoin":
        if mode == "data" or workload is None:
            self.uae.fit(epochs=epochs, mode="data", **kwargs)
            return self
        prepared = {
            "constraints": [self._constraints(q) for q in workload.queries],
            "sels": workload.cardinalities / self.join_size,
        }
        uae = self.uae
        rows = uae.model_codes
        steps = max(1, int(np.ceil(len(rows) / uae.config.batch_size)))
        for _ in range(epochs * steps):
            uae._step("hybrid", rows, uae.config.batch_size, prepared)
        return self

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, query: JoinQuery) -> float:
        return float(self.uae.cardinalities([self._constraints(query)],
                                            scale=self.join_size)[0])

    def constraint_expander(self):
        """Serving-layer hook: ``expander(model, query) -> constraints``.

        The translation depends only on the (immutable, snapshot-shared)
        factorization, sample table, and fanout gains — never on model
        weights — so one expander serves every registry snapshot of
        ``self.uae``.  Used by
        :meth:`repro.serve.RoutedEstimateService.add_join` together with
        ``join_size`` as the cardinality scale.
        """
        def expand(model, query: JoinQuery) -> list:
            return self._constraints(query)
        return expand

    def estimate_many(self, queries: list[JoinQuery]) -> np.ndarray:
        """Batched join estimation through the engine's scheduler.

        The fanout-scaled constraint lists are grouped by queried-column
        signature like single-table queries — scaled columns count as
        queried, so a group shares both its predicate columns and its
        downscaling columns.
        """
        return self.uae.cardinalities([self._constraints(q) for q in queries],
                                      scale=self.join_size)

    def size_bytes(self) -> int:
        return self.uae.size_bytes()


class NeuroCard(UAEJoin):
    """NeuroCard = the join estimator trained with data only."""

    name = "NeuroCard"

    def fit(self, epochs: int = 10,
            workload: LabeledJoinWorkload | None = None,
            mode: str = "data", **kwargs) -> "NeuroCard":
        if mode != "data":
            raise ValueError("NeuroCard is data-only; use UAEJoin for hybrid")
        super().fit(epochs=epochs, workload=None, mode="data", **kwargs)
        return self
