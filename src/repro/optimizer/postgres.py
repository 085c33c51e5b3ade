"""Postgres-style heuristic cardinality estimation for the planner.

Classic System-R machinery, reproducing what vanilla PostgreSQL would feed
the planner in the paper's Figure 6 comparison:

* base-table selectivities from per-column equi-depth histograms under
  attribute-value independence;
* equi-join selectivity ``1 / max(ndv(left key), ndv(right key))`` under
  the containment assumption, applied per join edge.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import Schema
from ..estimators.histogram import Histogram1D
from ..joins.workload import JoinQuery
from ..workload.predicate import Predicate


class PostgresHeuristic:
    """Heuristic card function over a star schema."""

    name = "PostgreSQL"

    def __init__(self, schema: Schema, bins: int = 64):
        self.schema = schema
        self.center = schema.center
        self.histograms: dict[str, dict[str, Histogram1D]] = {}
        for tname, table in schema.tables.items():
            self.histograms[tname] = {
                col.name: Histogram1D(table.codes[:, j], col.size, bins)
                for j, col in enumerate(table.columns)}
        # Containment selectivity is per join edge: each edge divides by
        # max(ndv of *its own* parent column, ndv of its child column).
        # Multi-key stars (edges referencing different parent columns)
        # would otherwise all be scaled by foreign_keys[0]'s NDV.
        self.center_key_ndv: dict[str, int] = {}
        self.child_ndv: dict[str, int] = {}
        for fk in schema.foreign_keys:
            parent = schema.tables[fk.parent]
            self.center_key_ndv[fk.child] = parent.column(fk.parent_col).size
            child = schema.tables[fk.child]
            self.child_ndv[fk.child] = child.column(fk.child_col).size

    # ------------------------------------------------------------------
    def base_selectivity(self, tname: str,
                         predicates: list[Predicate]) -> float:
        table = self.schema.tables[tname]
        sel = 1.0
        for pred in predicates:
            col = table.column(pred.column)
            mask = col.valid_mask(pred.op, pred.value)
            sel *= self.histograms[tname][pred.column].selectivity_mask(mask)
        return sel

    def base_cardinality(self, tname: str,
                         predicates: list[Predicate]) -> float:
        return self.base_selectivity(tname, predicates) \
            * self.schema.tables[tname].num_rows

    # ------------------------------------------------------------------
    def cardinality(self, query: JoinQuery, subset: frozenset) -> float:
        """System-R estimate for the join of ``subset`` under the query.

        Floored at 1e-6, not at one row like the other sources: the
        heuristics' sub-row estimates are part of the plans they pick.
        """
        card = 1.0
        for tname in subset:
            card *= max(self.base_cardinality(
                tname, query.predicates_for(tname)), 1e-6)
        if self.center in subset:
            for fk in self.schema.foreign_keys:
                if fk.child in subset:
                    card /= max(self.center_key_ndv[fk.child],
                                self.child_ndv[fk.child])
        return max(card, 1e-6)

    def size_bytes(self) -> int:
        return sum(h.size_bytes()
                   for cols in self.histograms.values()
                   for h in cols.values())


class MagicConstantHeuristic:
    """System-R's textbook fallback: every predicate is worth a fixed
    selectivity (no statistics at all).  Included in the Figure 6 study as
    the lower-bound contrast — it demonstrates that the planner *is*
    sensitive to cardinality quality, which the near-Postgres results of
    the learned estimators would otherwise leave unshown."""

    name = "MagicConstants"

    def __init__(self, schema: Schema, per_predicate_selectivity: float = 0.1):
        self.schema = schema
        self.center = schema.center
        self.selectivity = per_predicate_selectivity
        key_col = schema.foreign_keys[0].parent_col
        self.center_ndv = schema.tables[self.center].column(key_col).size

    def cardinality(self, query: JoinQuery, subset: frozenset) -> float:
        card = 1.0
        for tname in subset:
            rows = self.schema.tables[tname].num_rows
            n_preds = len(query.predicates_for(tname))
            card *= max(rows * self.selectivity ** n_preds, 1e-6)
        if self.center in subset:
            joins = sum(1 for fk in self.schema.foreign_keys
                        if fk.child in subset)
            card /= max(self.center_ndv, 1) ** joins
        return max(card, 1e-6)
