"""Plan representation and a textbook hash-join cost model.

"Execution time" in this reproduction is the plan's cost evaluated with
*true* cardinalities: the planner picks a join order using an
estimator's cardinalities, then we score the chosen plan with ground truth,
which is precisely the mechanism Figure 6 demonstrates (better estimates →
better plans → faster execution).  :class:`TrueCardOracle` is that ground
truth as a cardinality source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..data.schema import Schema
from ..joins.workload import (FragmentCardinality, JoinQuery,
                              true_join_cardinality)

CardFn = Callable[[frozenset], float]


class TrueCardOracle(FragmentCardinality):
    """Perfect cardinalities — the upper bound on plan quality, and the
    card function every chosen plan is scored with."""

    name = "TrueCard"

    def __init__(self, schema: Schema):
        self.schema = schema

    def estimate(self, query: JoinQuery) -> int:
        return true_join_cardinality(self.schema, query)


@dataclass(frozen=True)
class Plan:
    """A binary join tree over table names."""

    tables: frozenset
    left: "Plan | None" = None
    right: "Plan | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __str__(self) -> str:
        if self.is_leaf:
            return next(iter(self.tables))
        return f"({self.left} ⋈ {self.right})"


def scan_cost(rows: float) -> float:
    """Cost of scanning a (filtered) base table."""
    return rows


def join_cost(build_rows: float, probe_rows: float, out_rows: float) -> float:
    """Hash join: build the smaller side, probe the larger, emit output."""
    build = min(build_rows, probe_rows)
    probe = max(build_rows, probe_rows)
    return 2.0 * build + probe + out_rows


def plan_cost(plan: Plan, card: CardFn) -> float:
    """Total cost of ``plan`` under the cardinality function ``card``."""
    if plan.is_leaf:
        return scan_cost(card(plan.tables))
    left_cost = plan_cost(plan.left, card)
    right_cost = plan_cost(plan.right, card)
    return (left_cost + right_cost
            + join_cost(card(plan.left.tables), card(plan.right.tables),
                        card(plan.tables)))


def plan_intermediates(plan: Plan) -> list[frozenset]:
    """Every subset whose cardinality the cost of ``plan`` depends on."""
    if plan.is_leaf:
        return [plan.tables]
    return (plan_intermediates(plan.left) + plan_intermediates(plan.right)
            + [plan.tables])
