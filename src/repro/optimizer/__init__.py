"""Query-optimizer impact study (Figure 6): DP planner, cost model, and
the planner's cardinality sources — true cardinalities, Postgres-style
heuristics, the UES bound, and the serving-tier sub-plan provider — all
behind one contract, ``cardinality(query, subset)``, read through
:func:`card_fn`.  Every join estimator in :mod:`repro.joins` speaks it
too."""

from .cost import (Plan, TrueCardOracle, join_cost, plan_cost,
                   plan_intermediates, scan_cost)
from .planner import (JoinGraph, best_plan, card_fn, plan_for_query,
                      worst_plan)
from .postgres import MagicConstantHeuristic, PostgresHeuristic
from .subplan import ServingCardinalityProvider, UESPessimisticProvider

__all__ = [
    "Plan", "plan_cost", "scan_cost", "join_cost", "plan_intermediates",
    "best_plan", "worst_plan", "plan_for_query", "card_fn", "JoinGraph",
    "TrueCardOracle", "PostgresHeuristic", "MagicConstantHeuristic",
    "ServingCardinalityProvider", "UESPessimisticProvider",
]
