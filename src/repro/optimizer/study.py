"""The Figure 6 experiment: inject estimator cardinalities into the planner
and measure query "execution time" speedups against the Postgres heuristic.

For every test query:

1. each estimator produces cardinalities for all connected subqueries;
2. the DP planner picks a join order per estimator;
3. each chosen plan is scored with *true* cardinalities (the execution
   proxy — see :mod:`repro.optimizer.cost`);
4. the speedup of estimator E on query q is
   ``exec_cost(plan_postgres) / exec_cost(plan_E)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.schema import Schema
from ..joins.workload import JoinQuery, true_join_cardinality
from ..workload.fragments import extract_fragment
from .cost import Plan, plan_cost
from .planner import plan_for_query
from .postgres import PostgresHeuristic


@dataclass
class OptimizerResult:
    estimator: str
    speedups: np.ndarray            # per query, vs the Postgres plan

    def summary(self) -> dict[str, float]:
        return {
            "median": float(np.median(self.speedups)),
            "mean": float(self.speedups.mean()),
            "p10": float(np.percentile(self.speedups, 10)),
            "p90": float(np.percentile(self.speedups, 90)),
        }


class TrueCardOracle:
    """Perfect cardinalities — the upper bound on plan quality."""

    name = "TrueCard"

    def __init__(self, schema: Schema):
        self.schema = schema
        self._cache: dict[tuple, float] = {}

    def card_fn(self, query: JoinQuery) -> Callable[[frozenset], float]:
        def fn(subset: frozenset) -> float:
            sub_query = restrict_query(query, subset)
            key = (tuple(sorted(subset)), str(sub_query))
            if key not in self._cache:
                self._cache[key] = float(
                    max(true_join_cardinality(self.schema, sub_query), 1.0))
            return self._cache[key]
        return fn


def restrict_query(query: JoinQuery, subset: frozenset) -> JoinQuery:
    """The subquery over ``subset``: keep only its tables' predicates.

    Thin wrapper over :func:`repro.workload.extract_fragment`, kept for
    the historical optimizer-study API.
    """
    return extract_fragment(query, subset)


class EstimatorCardAdapter:
    """Wraps any join estimator with ``estimate(JoinQuery)`` as a card fn."""

    def __init__(self, estimator, name: str | None = None):
        self.estimator = estimator
        self.name = name or getattr(estimator, "name", "estimator")

    def card_fn(self, query: JoinQuery) -> Callable[[frozenset], float]:
        cache: dict[tuple, float] = {}

        def fn(subset: frozenset) -> float:
            key = tuple(sorted(subset))
            if key not in cache:
                sub_query = restrict_query(query, subset)
                cache[key] = float(max(
                    self.estimator.estimate(sub_query), 1.0))
            return cache[key]
        return fn


def run_optimizer_study(schema: Schema, queries: list[JoinQuery],
                        estimators: list) -> list[OptimizerResult]:
    """Plan every query with every estimator; score against Postgres."""
    oracle = TrueCardOracle(schema)
    postgres = PostgresHeuristic(schema)
    results = []
    pg_costs = []
    plans_pg: list[Plan] = []
    for query in queries:
        true_fn = oracle.card_fn(query)
        plan_pg = plan_for_query(schema, list(query.tables),
                                 postgres.card_fn(query))
        plans_pg.append(plan_pg)
        pg_costs.append(plan_cost(plan_pg, true_fn))
    pg_costs_arr = np.asarray(pg_costs)

    for provider in [oracle] + estimators:
        speedups = []
        for qi, query in enumerate(queries):
            true_fn = oracle.card_fn(query)
            plan = plan_for_query(schema, list(query.tables),
                                  provider.card_fn(query))
            exec_cost = plan_cost(plan, true_fn)
            speedups.append(pg_costs_arr[qi] / max(exec_cost, 1e-9))
        results.append(OptimizerResult(getattr(provider, "name", "est"),
                                       np.asarray(speedups)))
    return results
