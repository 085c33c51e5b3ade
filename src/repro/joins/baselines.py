"""Join baselines for Table 5: sample-scan oracle, DeepDB and MSCN variants.

All of them consume the same flat Exact-Weight join sample as
:class:`~repro.joins.estimator.UAEJoin`, differing only in the model fitted
on it — which isolates the estimator comparison exactly as the paper does.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import Schema
from ..estimators.mscn import MSCNSampling
from ..estimators.spn import SPNEstimator
from ..workload.predicate import LabeledWorkload, Predicate, Query
from .sampler import StarJoinSampler
from .workload import FragmentCardinality, JoinQuery, LabeledJoinWorkload


class _JoinSampleMixin(FragmentCardinality):
    """Shared query translation onto the flat join sample."""

    def _init_sample(self, schema: Schema, sample_size: int, seed: int):
        self.schema = schema
        self.sampler = StarJoinSampler(schema, seed=seed)
        self.join_size = self.sampler.join_size
        self.sample_table = self.sampler.sample(sample_size)

    def _flat_query(self, query: JoinQuery) -> Query:
        preds = [Predicate(p.column, p.op, p.value) for p in query.predicates]
        for child in self.schema.children:
            if child in query.tables:
                preds.append(Predicate(f"__in_{child}", "=", 1))
        return Query(tuple(preds))

    def _downscale_columns(self, query: JoinQuery) -> dict[int, np.ndarray]:
        """value-function vectors g = 1/fanout for children outside S."""
        out = {}
        for child in self.schema.children:
            if child in query.tables:
                continue
            idx = self.sample_table.column_index(f"__fan_{child}")
            out[idx] = 1.0 / self.sample_table.columns[idx].values.astype(
                np.float64)
        return out


class JoinSampleScan(_JoinSampleMixin):
    """Scan the materialised join sample (the joins "Sampling" analogue).

    Also serves as the *oracle for the downscaling identity*: with enough
    sample rows it converges to the true cardinality, which the tests use
    to validate the formula every learned join estimator shares.
    """

    name = "JoinSampleScan"

    def __init__(self, schema: Schema, sample_size: int = 20_000,
                 seed: int = 0):
        self._init_sample(schema, sample_size, seed)

    def estimate(self, query: JoinQuery) -> float:
        table = self.sample_table
        flat = self._flat_query(query)
        keep = np.ones(table.num_rows, dtype=bool)
        for idx, mask in flat.masks(table).items():
            keep &= mask[table.codes[:, idx]]
        weight = keep.astype(np.float64)
        for idx, gain in self._downscale_columns(query).items():
            weight *= gain[table.codes[:, idx]]
        return float(weight.mean() * self.join_size)

    def estimate_many(self, queries: list[JoinQuery]) -> np.ndarray:
        return np.array([self.estimate(q) for q in queries])

    def size_bytes(self) -> int:
        return int(self.sample_table.codes.size * 4)


class SPNJoin(_JoinSampleMixin):
    """DeepDB's join path: an SPN over the outer-join sample with fanout
    expectations at the leaves."""

    name = "DeepDB"

    def __init__(self, schema: Schema, sample_size: int = 20_000,
                 seed: int = 0, **spn_kwargs):
        self._init_sample(schema, sample_size, seed)
        self.spn = SPNEstimator(self.sample_table, seed=seed, **spn_kwargs)

    def fit(self, *args, **kwargs) -> "SPNJoin":
        return self  # structure learned at construction

    def estimate(self, query: JoinQuery) -> float:
        flat = self._flat_query(query)
        masks = flat.masks(self.sample_table)
        value_fns = self._downscale_columns(query)
        expectation = self.spn.expectation(masks, value_fns)
        return float(max(expectation, 0.0) * self.join_size)

    def estimate_many(self, queries: list[JoinQuery]) -> np.ndarray:
        return np.array([self.estimate(q) for q in queries])

    def size_bytes(self) -> int:
        return self.spn.size_bytes()


class MSCNJoin(_JoinSampleMixin):
    """MSCN+sampling adapted to joins: query features plus join-sample
    bitmaps, trained on labeled join queries."""

    name = "MSCN+sampling"

    def __init__(self, schema: Schema, sample_size: int = 4_000,
                 seed: int = 0, hidden: int = 64, epochs: int = 60):
        self._init_sample(schema, sample_size, seed)
        self.net = MSCNSampling(self.sample_table, hidden=hidden,
                                epochs=epochs, seed=seed)
        # Normalise against the full outer join size, not the sample size.
        self.net._log_norm = np.log(self.join_size + 1.0)
        self.net._max_card = self.join_size

    def fit(self, workload: LabeledJoinWorkload, **kwargs) -> "MSCNJoin":
        flat = [self._flat_query(q) for q in workload.queries]
        self.net.fit(LabeledWorkload(flat, workload.cardinalities))
        return self

    def estimate(self, query: JoinQuery) -> float:
        return float(self.estimate_many([query])[0])

    def estimate_many(self, queries: list[JoinQuery]) -> np.ndarray:
        return self.net.estimate_many([self._flat_query(q) for q in queries])

    def size_bytes(self) -> int:
        return self.net.size_bytes()
