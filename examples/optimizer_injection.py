"""Injecting learned cardinalities into a query optimizer (Figure 6).

The Selinger-style DP planner in ``repro.optimizer`` accepts any
cardinality source, exactly like the paper's modified PostgreSQL: anything
with ``name`` and ``cardinality(query, subset)`` plans through
``card_fn``.  This example plans multi-way join queries with (a)
Postgres-style heuristics, (b) a trained UAE, and (c) true cardinalities,
then scores every chosen plan with true costs to show how better estimates
buy better plans.

Run:  python examples/optimizer_injection.py
"""

import numpy as np

from repro.bench.plan_bench import plan_and_score, speedup_row
from repro.data.schema import make_imdb_large
from repro.joins import UAEJoin
from repro.joins.workload import generate_job_m_focused
from repro.optimizer import (PostgresHeuristic, TrueCardOracle, card_fn,
                             plan_cost, plan_for_query)


def main() -> None:
    schema = make_imdb_large(n_titles=2000)
    rng = np.random.default_rng(4)
    train = generate_job_m_focused(schema, 120, rng)
    test = generate_job_m_focused(schema, 20, rng)

    uae = UAEJoin(schema, sample_size=8000, hidden=64, num_blocks=2,
                  est_samples=96, dps_samples=8, batch_size=512,
                  lam=1e-3, seed=0)
    uae.fit(epochs=5, workload=train, mode="hybrid")
    uae.name = "UAE"
    oracle = TrueCardOracle(schema)
    sources = [PostgresHeuristic(schema), uae, oracle]

    # Show one query's plans side by side.
    query = test.queries[0]
    print(f"query: {query}\n")
    true_fn = card_fn(oracle, query)
    for source in sources:
        plan = plan_for_query(schema, list(query.tables),
                              card_fn(source, query))
        cost = plan_cost(plan, true_fn)
        print(f"{source.name:>11}: plan {plan}  -> true cost {cost:,.0f}")

    # Aggregate speedups over the workload.
    costs, _, errors = plan_and_score(schema, test.queries, sources, oracle)
    if errors:
        raise errors[0]
    print("\nspeedup vs the PostgreSQL-heuristic plan "
          "(per-query execution-cost ratio):")
    for name in ("TrueCard", "UAE"):
        s = speedup_row(name, costs["PostgreSQL"], costs[name])
        print(f"{name:>11}: median {s['median']:.3f}  "
              f"mean {s['mean']:.3f}  p10 {s['p10']:.3f}  p90 {s['p90']:.3f}")


if __name__ == "__main__":
    main()
