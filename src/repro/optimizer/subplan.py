"""Optimizer-in-the-loop: sub-plan cardinalities from the serving tier.

The DP planner asks for the cardinality of every connected fragment of a
query.  :class:`ServingCardinalityProvider` answers through a live
serving front (either front of the serving tier's front contract:
:class:`~repro.serve.router.RoutedEstimateService`, in-process, or
:class:`~repro.serve.cluster.ClusterEstimateService`) the way the related work's
``CardinalityGenerator`` adapters do — but instead of up to ``2^N``
per-fragment round trips per plan it collects the query's connected
fragments up front (deterministic order: smallest subsets first,
lexicographic within a size) and issues **one batched, seeded**
``estimate_batch`` call, so every sub-plan answer is bit-reproducible
against the single-process engine reference (``estimate_on`` with the
same snapshot, fragment order, and seed).  The front routes each query
to its namespace, and the per-plan seed derives from the class constant
:attr:`ServingCardinalityProvider.SEED`.

Each plan's answers are kept as that plan's own array, in one
:class:`~repro.serve.cache.ResultCache` per namespace keyed by the
query's signature, and a subset is read from it by position.  A seeded
batch shares one Monte-Carlo stream, so a fragment's answer belongs to
the plan it was drawn for; two plans sharing a fragment never read each
other's value.  The cache is tied to the namespace's model version: a
newer published version clears it, so a hot-swap is immediately visible
to the planner.

:class:`UESPessimisticProvider` is the pessimistic baseline: an
UES-style upper bound (Hertzschuch et al., CIDR 2021) propagating
per-edge frequency bounds, never below the true cardinality.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from ..data.schema import Schema
from ..joins.workload import JoinQuery
from ..serve.cache import ResultCache
from ..workload.fragments import (FragmentError, extract_fragment,
                                  fragment_signature)
from .planner import JoinGraph


class ServingCardinalityProvider:
    """A planner cardinality source answered by the live serving tier.

    ``service`` is any serving front (``resolve`` + ``estimate_batch``
    are all the provider calls; :meth:`reference` additionally needs an
    in-process one).  Counters the plan-quality bench gates on:
    ``batched_calls`` counts every ``estimate_batch`` the provider
    issues, so it equals the number of distinct plans (per model
    version) it answered.
    """

    name = "UAE-serving"
    #: Base of every per-plan sampling seed (see :meth:`seed_for`).
    SEED = 1234
    #: Plans kept per namespace (LRU).  The largest shipped profile
    #: plans 50 queries, so no shipped run evicts.
    PLAN_CAPACITY = 1024

    def __init__(self, service, schema: Schema):
        self.service = service
        self.schema = schema
        self.graph = JoinGraph.from_schema(schema)
        self._lock = threading.Lock()
        self._plans: dict[str, ResultCache] = {}
        self.batched_calls = 0
        self.fragments_estimated = 0

    @property
    def invalidations(self) -> int:
        """Hot-swaps that cleared a namespace's cached plans."""
        with self._lock:
            return sum(cache.invalidations for cache in self._plans.values())

    # ------------------------------------------------------------------
    # Fragment plumbing
    # ------------------------------------------------------------------
    def plan_fragments(self, query: JoinQuery) -> list[JoinQuery]:
        """The query's connected fragments in the (deterministic) order
        the batched call estimates them."""
        return [extract_fragment(query, subset)
                for subset in self.graph.connected_subsets(query.tables)]

    def seed_for(self, query: JoinQuery) -> int:
        """Per-query sampling seed: derived from the provider seed and
        the query's signature via crc32 (stable across processes, unlike
        builtin ``hash``), so reference recomputations agree bit-for-bit
        wherever they run."""
        digest = zlib.crc32(repr(fragment_signature(query)).encode("utf-8"))
        return int((self.SEED * 0x9E3779B1 + digest) % (2 ** 31 - 1))

    # ------------------------------------------------------------------
    # Serving-tier access
    # ------------------------------------------------------------------
    def _target(self, query) -> tuple[str, int]:
        """(namespace name, live model version) serving ``query``."""
        space = self.service.resolve(query)
        return space.name, space.version

    def reference(self, query: JoinQuery) -> np.ndarray:
        """Single-process seeded engine answers for the plan's fragments
        — what :meth:`prefetch` must match bit-for-bit."""
        space = self.service.resolve(query)
        return space.service.estimate_on(
            space.registry.active(), self.plan_fragments(query),
            seed=self.seed_for(query))

    # ------------------------------------------------------------------
    # Per-plan answers
    # ------------------------------------------------------------------
    def prefetch(self, query: JoinQuery) -> np.ndarray:
        """All connected fragment cardinalities of ``query`` (raw, in
        :meth:`plan_fragments` order), via at most one batched seeded
        round trip per model version.  Read-only."""
        name, version = self._target(query)
        key = fragment_signature(query)
        with self._lock:
            plans = self._plans.get(name)
            if plans is None:
                plans = self._plans[name] = ResultCache(self.PLAN_CAPACITY)
        cached = plans.get(key, version)
        if cached is not None:
            return cached
        fragments = self.plan_fragments(query)
        values = np.asarray(self.service.estimate_batch(
            fragments, seed=self.seed_for(query)), dtype=np.float64)
        values.setflags(write=False)
        with self._lock:
            self.batched_calls += 1
            self.fragments_estimated += len(fragments)
        plans.put(key, version, values)
        return values

    def cardinality(self, query: JoinQuery, subset: frozenset) -> float:
        """The served answer for ``subset``, read from the plan's own
        batch and floored at one row.  Raises :class:`FragmentError` for
        a subset that is not a connected fragment of ``query``."""
        subsets = self.graph.connected_subsets(query.tables)
        if subset not in subsets:
            raise FragmentError(f"tables {sorted(subset)} are not a "
                                f"connected fragment of {query!s}")
        return max(float(self.prefetch(query)[subsets.index(subset)]), 1.0)


class UESPessimisticProvider:
    """UES-style pessimistic cardinality bounds for the planner.

    Upper-bound propagation (Hertzschuch et al., CIDR 2021): base-table
    cardinalities after filters, and per-edge *global* frequency bounds —
    ``MF(child)`` the maximum rows any key matches in a child, and
    ``U(child)`` the maximum multiplicity of its parent key (1 for a
    unique primary key).  The bound for a fragment is the minimum over
    anchor tables of ``filtered(anchor) * prod(edge bounds)``, which
    never falls below the true cardinality — the defining property the
    plan-quality bench verifies fragment by fragment.
    """

    name = "UES"

    def __init__(self, schema: Schema):
        self.schema = schema
        self.center = schema.center
        self.max_child_fanout: dict[str, float] = {}
        self.max_center_mult: dict[str, float] = {}
        for fk in schema.foreign_keys:
            child_keys = schema.tables[fk.child].raw_column(
                fk.child_col).astype(np.int64)
            self.max_child_fanout[fk.child] = \
                float(np.bincount(child_keys).max()) if child_keys.size \
                else 0.0
            parent_keys = schema.tables[fk.parent].raw_column(
                fk.parent_col).astype(np.int64)
            self.max_center_mult[fk.child] = \
                float(np.bincount(parent_keys).max()) if parent_keys.size \
                else 0.0
        self._filter_cache: dict[tuple, float] = {}

    def _filtered_count(self, query: JoinQuery, name: str) -> float:
        predicates = query.predicates_for(name)
        key = (name, tuple((p.column, p.op, repr(p.value))
                           for p in predicates))
        if key not in self._filter_cache:
            table = self.schema.tables[name]
            keep = np.ones(table.num_rows, dtype=bool)
            for pred in predicates:
                idx = table.column_index(pred.column)
                mask = table.columns[idx].valid_mask(pred.op, pred.value)
                keep &= mask[table.codes[:, idx]]
            self._filter_cache[key] = float(keep.sum())
        return self._filter_cache[key]

    def upper_bound(self, query: JoinQuery, subset: frozenset) -> float:
        """The raw bound, floored at 1e-6 only — what the plan bench
        holds against the truth, where a one-row floor would hide a
        bound of 0 under a true count of 1."""
        subset = frozenset(subset)
        counts = {name: self._filtered_count(query, name) for name in subset}
        if len(subset) == 1:
            return max(next(iter(counts.values())), 1e-6)
        bounds = []
        for anchor in sorted(subset):
            bound = counts[anchor]
            for other in sorted(subset):
                if other == anchor:
                    continue
                if other == self.center:
                    # Crossing from a child into the center: each row
                    # matches at most U(anchor) center rows.
                    bound *= self.max_center_mult[anchor]
                else:
                    bound *= self.max_child_fanout[other]
            bounds.append(bound)
        return max(min(bounds), 1e-6)

    def cardinality(self, query: JoinQuery, subset: frozenset) -> float:
        return max(self.upper_bound(query, subset), 1.0)
