"""Plan-quality benchmark: the optimizer in the loop with the serving tier.

The paper's Figure 6 injects estimator cardinalities into a planner and
measures chosen-plan quality.  This bench closes that loop against the
*serving stack* instead of an in-process estimator: a trained
:class:`~repro.joins.UAEJoin` is published behind a
:class:`~repro.serve.RoutedEstimateService` and the DP planner's card
function is answered by :class:`~repro.optimizer.subplan.
ServingCardinalityProvider` — one batched, seeded ``estimate_batch``
round trip per plan covering every connected fragment.

Each test query is planned with five providers —

* ``TrueCard``        — the oracle (perfect cardinalities);
* ``PostgreSQL``      — System-R histograms + per-edge containment;
* ``MagicConstants``  — fixed per-predicate selectivities (no stats);
* ``UES``             — pessimistic per-edge frequency upper bounds;
* ``UAE-serving``     — UAE estimates through the live serving tier —

and every chosen plan is scored with *true* costs (the execution proxy,
README "Optimizer in the loop").  Speedups are reported against the
PostgreSQL plan.  :func:`plan_and_score` is that loop; Figure 6
(``python -m repro.bench fig6``) is another scenario of it, planning with
in-process join estimators instead of the serving tier.

Test queries are drawn from a generated pool and selected in two
estimator-blind steps.  First, keep only queries where planning with
*no statistics at all* provably costs true plan cost — the
MagicConstants plan scored with true costs is strictly worse than the
oracle's best plan.  On the discarded queries the no-stats baseline is
already optimal, so there is nothing for any estimator to improve and
every comparison degenerates to a tie.  Second, rank the survivors by
**plan spread** — the true-cost ratio of the worst connected plan to
the best, a pure property of the query and the ground truth — and keep
the widest.  This mirrors why JOB exists as a benchmark at all: it was
curated to queries where cardinality estimation demonstrably changes
the chosen plan.  Neither step consults any data-driven estimator
(Postgres histograms, UES, UAE), so the selection cannot bias the
comparison between them.

``python -m repro.bench plans --profile bench`` writes ``BENCH_plan.json``
at the repo root; ``--profile ci`` is the CI smoke.  Hard ``pq_*`` checks
(violations raise ``RuntimeError`` so the process exits non-zero):

* ``pq_oracle_at_least_every_estimator`` — the oracle's true cost never
  exceeds any estimator's on any query (DP + true cards is optimal);
* ``pq_uae_median_speedup_over_magic_gt_1`` — UAE-via-serving beats the
  no-statistics baseline on the median query;
* ``pq_uae_within_factor_of_oracle`` — UAE's median true cost stays
  within a recorded factor of the oracle's;
* ``pq_subplan_bit_identical`` — every served sub-plan answer equals the
  single-process seeded engine reference bit-for-bit;
* ``pq_single_batched_call`` — exactly one batched round trip per plan;
* ``pq_ues_upper_bound`` — the UES bound is >= the true cardinality on
  every connected fragment of every query;
* ``pq_zero_untyped_failures`` — planning never surfaces an untyped
  error and the serving tier records zero failed estimates.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from ..data.schema import make_imdb_large
from ..joins import UAEJoin, UnjoinableFragmentError
from ..joins.workload import (LabeledJoinWorkload, generate_job_m_focused,
                              true_join_cardinality)
from ..optimizer import (JoinGraph, MagicConstantHeuristic, PostgresHeuristic,
                         ServingCardinalityProvider, TrueCardOracle,
                         UESPessimisticProvider, card_fn, plan_cost,
                         plan_for_query, worst_plan)
from ..serve import RoutedEstimateService
from ..serve.router import RoutingError
from ..workload import (FragmentError, extract_fragment,
                        fragment_signature)
from .profiles import Profile, current_profile
from .reporting import save_bench

_UAE_ORACLE_FACTOR = 10.0   # median true-cost bound vs the oracle
_TYPED_ERRORS = (RoutingError, FragmentError, UnjoinableFragmentError)


# Scenario floors: the ci profile's raw knobs (4 queries, 1 epoch,
# 200 titles) leave a plan space too small to measure anything — even a
# perfect oracle ties MagicConstants on most queries.  The floors keep
# the smoke meaningful without touching the shared profile table;
# bench/paper values already exceed them.
_MIN_TEST_QUERIES = 12
_MIN_TITLES = 600
_MIN_EPOCHS = 2
_MIN_TRAIN_QUERIES = 120    # hybrid training starves below this
_MIN_EST_SAMPLES = 128
_MIN_TABLES = 5             # tables per test query (join-order space)
_POOL_FACTOR = 4            # candidate queries generated per kept query


def plan_and_score(schema, queries, providers, oracle):
    """Plan every query with every provider through :func:`card_fn`
    and score each chosen plan with true costs.

    Returns ``(costs, plans, errors)``: per provider name, the true
    cost of each query's plan (``inf`` where planning raised) and the
    plan as a string (``"None"`` there), plus every exception raised.
    """
    costs: dict[str, list[float]] = {p.name: [] for p in providers}
    plans: dict[str, list[str]] = {p.name: [] for p in providers}
    errors: list[Exception] = []
    for query in queries:
        true_fn = card_fn(oracle, query)
        for provider in providers:
            try:
                plan = plan_for_query(schema, list(query.tables),
                                      card_fn(provider, query))
                cost = float(plan_cost(plan, true_fn))
            except Exception as exc:
                errors.append(exc)
                plan, cost = None, float("inf")
            costs[provider.name].append(cost)
            plans[provider.name].append(str(plan))
    return ({name: np.asarray(vals) for name, vals in costs.items()},
            plans, errors)


def speedup_row(name: str, baseline: np.ndarray, costs: np.ndarray) -> dict:
    """Per-query speedup ``baseline / costs`` summarised as a table row."""
    speedups = baseline / np.maximum(costs, 1e-9)
    return {"estimator": name,
            "median": float(np.median(speedups)),
            "mean": float(speedups.mean()),
            "p10": float(np.percentile(speedups, 10)),
            "p90": float(np.percentile(speedups, 90))}


def _augment_with_fragments(schema, train) -> LabeledJoinWorkload:
    """Add every multi-table connected fragment of the training queries
    (with its true cardinality) to the training workload.

    The planner never asks the model about whole queries — it asks
    about their connected fragments, and plan choice hinges entirely on
    the multi-table intermediates (singleton scans cost the same in
    every plan).  Augmenting the query-driven loss with exactly that
    fragment distribution is the optimizer-in-the-loop analogue of the
    paper's learning-from-queries: supervision comes from *training*
    queries only, so the test set stays untouched.
    """
    graph = JoinGraph.from_schema(schema)
    center = schema.center
    seen = {fragment_signature(q) for q in train.queries}
    queries = list(train.queries)
    cards = list(map(float, train.cardinalities))
    for query in train.queries:
        for subset in graph.connected_subsets(query.tables):
            if len(subset) < 2 or center not in subset:
                continue
            fragment = extract_fragment(query, subset)
            signature = fragment_signature(fragment)
            if signature in seen:
                continue
            seen.add(signature)
            queries.append(fragment)
            cards.append(float(true_join_cardinality(schema, fragment)))
    return LabeledJoinWorkload(queries, np.asarray(cards,
                                                   dtype=np.float64))


def _select_test_queries(schema, pool, oracle, n_keep):
    """Keep ``n_keep`` pool queries where the join order measurably
    matters (see the module docstring).

    Queries where the no-statistics MagicConstants plan is strictly
    worse than the oracle's (by true cost) are eligible; eligible
    queries are ranked by plan spread — worst-plan / best-plan true
    cost.  Both signals use only ground truth and the fixed data-blind
    baseline, never a data-driven estimator, so the selection is blind
    to every estimator whose quality the bench compares.  If fewer than
    ``n_keep`` queries are eligible the remainder is filled by spread
    from the ineligible pool, keeping the bench deterministic on tiny
    profiles.

    Returns ``(queries, spreads, no_stats_gaps)`` for the kept queries.
    """
    graph = JoinGraph.from_schema(schema)
    magic = MagicConstantHeuristic(schema)
    spreads, gaps = [], []
    for query in pool.queries:
        tables = list(query.tables)
        true_fn = card_fn(oracle, query)
        best = plan_cost(plan_for_query(schema, tables, true_fn), true_fn)
        worst = plan_cost(worst_plan(tables, graph, true_fn), true_fn)
        magic_cost = plan_cost(
            plan_for_query(schema, tables, card_fn(magic, query)), true_fn)
        spreads.append(worst / max(best, 1e-9))
        gaps.append(magic_cost / max(best, 1e-9))
    spreads = np.asarray(spreads)
    gaps = np.asarray(gaps)
    eligible = np.where(gaps > 1.0 + 1e-9)[0]
    rest = np.where(gaps <= 1.0 + 1e-9)[0]
    ranked = list(eligible[np.argsort(-spreads[eligible], kind="stable")])
    ranked += list(rest[np.argsort(-spreads[rest], kind="stable")])
    kept = sorted(ranked[:n_keep])      # preserve generation order
    return [pool.queries[i] for i in kept], spreads[kept], gaps[kept]


def run_plan_quality(profile: Profile | None = None) -> dict:
    """The ``plan_quality`` scenario; writes ``BENCH_plan.json``."""
    profile = profile or current_profile()
    n_titles = max(profile.join_titles // 2, _MIN_TITLES)
    n_test = max(profile.optimizer_queries, _MIN_TEST_QUERIES)
    schema = make_imdb_large(n_titles=n_titles, seed=1)
    rng = np.random.default_rng(99)
    train = _augment_with_fragments(schema, generate_job_m_focused(
        schema, max(profile.join_train_queries, _MIN_TRAIN_QUERIES), rng))
    # min_tables=5 keeps a real join-order space: each extra table
    # multiplies the orders a heuristic can get wrong, and below five
    # tables the no-stats baseline finds the optimal order often enough
    # that the median query ties.  The spread selection below then keeps
    # the pool queries whose order actually matters.
    pool = generate_job_m_focused(schema, _POOL_FACTOR * n_test, rng,
                                  min_tables=_MIN_TABLES)
    oracle = TrueCardOracle(schema)
    test_queries, kept_spreads, kept_gaps = _select_test_queries(
        schema, pool, oracle, n_test)

    # The paper sets lambda = 10 on IMDB (Section 5.1.4) — same training
    # recipe as the fig6 study, but the model is *served*, not called.
    uae = UAEJoin(schema, sample_size=profile.join_sample,
                  hidden=profile.hidden, num_blocks=profile.num_blocks,
                  est_samples=max(profile.est_samples, _MIN_EST_SAMPLES),
                  dps_samples=profile.dps_samples,
                  batch_size=profile.batch_size,
                  query_batch_size=profile.query_batch_size,
                  lam=10.0, seed=0)
    uae.fit(epochs=max(profile.join_epochs, _MIN_EPOCHS), workload=train,
            mode="hybrid")

    checks: dict[str, bool] = {}

    front = RoutedEstimateService(seed=0)
    space = front.add_join(uae)
    with front:
        serving = ServingCardinalityProvider(front, schema)
        providers = [oracle, PostgresHeuristic(schema),
                     MagicConstantHeuristic(schema),
                     UESPessimisticProvider(schema), serving]
        ues = providers[3]
        arr, plans, errors = plan_and_score(schema, test_queries, providers,
                                            oracle)
        typed_failures = sum(isinstance(e, _TYPED_ERRORS) for e in errors)
        untyped_failures = len(errors) - typed_failures

        # --- bit-identity: served sub-plan answers vs the single-process
        # seeded engine reference (same snapshot, fragment order, seed).
        bit_identical = all(
            np.array_equal(serving.prefetch(q), serving.reference(q))
            for q in test_queries)

        # --- UES pessimism: bound >= truth on every connected fragment.
        ues_holds = True
        for query in test_queries:
            for subset in serving.graph.connected_subsets(query.tables):
                truth = true_join_cardinality(
                    schema, extract_fragment(query, subset))
                if ues.upper_bound(query, subset) + 1e-6 < truth:
                    ues_holds = False

        service_failures = front.metrics.total(
            "repro_serve_failures_total", namespace=space.name)

    oracle_costs = arr[oracle.name]
    serving_costs = arr[serving.name]
    magic_costs = arr["MagicConstants"]
    pg_costs = arr["PostgreSQL"]

    checks["pq_oracle_at_least_every_estimator"] = bool(all(
        (oracle_costs <= vals * (1 + 1e-9) + 1e-6).all()
        for name, vals in arr.items() if name != oracle.name))
    uae_vs_magic = float(np.median(magic_costs
                                   / np.maximum(serving_costs, 1e-9)))
    checks["pq_uae_median_speedup_over_magic_gt_1"] = uae_vs_magic > 1.0
    uae_vs_oracle = float(np.median(serving_costs
                                    / np.maximum(oracle_costs, 1e-9)))
    checks["pq_uae_within_factor_of_oracle"] = \
        uae_vs_oracle <= _UAE_ORACLE_FACTOR
    checks["pq_subplan_bit_identical"] = bool(bit_identical)
    checks["pq_single_batched_call"] = \
        serving.batched_calls == len(test_queries)
    checks["pq_ues_upper_bound"] = ues_holds
    checks["pq_zero_untyped_failures"] = (untyped_failures == 0
                                          and service_failures == 0)

    rows = [{**speedup_row(name, pg_costs, vals),
             "mean_true_cost": float(vals.mean())}
            for name, vals in arr.items()]

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "schema": schema.name,
        "n_titles": schema.tables["title"].num_rows,
        "n_queries": len(test_queries),
        "pool_queries": len(pool.queries),
        "min_tables": _MIN_TABLES,
        "plan_spread_kept": {
            "min": float(kept_spreads.min()),
            "median": float(np.median(kept_spreads)),
            "max": float(kept_spreads.max()),
        },
        "no_stats_gap_kept": {
            "min": float(kept_gaps.min()),
            "median": float(np.median(kept_gaps)),
            "max": float(kept_gaps.max()),
        },
        "subplan_seed": ServingCardinalityProvider.SEED,
        "uae_oracle_factor_bound": _UAE_ORACLE_FACTOR,
        "uae_median_speedup_over_magic": uae_vs_magic,
        "uae_median_cost_vs_oracle": uae_vs_oracle,
        "batched_calls": serving.batched_calls,
        "fragments_estimated": serving.fragments_estimated,
        "typed_failures": typed_failures,
        "untyped_failures": untyped_failures,
        "service_failures": int(service_failures),
        "true_costs": {name: list(map(float, vals))
                       for name, vals in arr.items()},
        "plans": plans,
        "checks": checks,
        "rows": rows,
    }
    path = save_bench("plan", payload)

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(
            f"plan-quality invariants violated: {failed} "
            f"[UAE-vs-Magic median {uae_vs_magic:.3f}; UAE-vs-oracle "
            f"median {uae_vs_oracle:.3f} (bound {_UAE_ORACLE_FACTOR}); "
            f"batched {serving.batched_calls}/{len(test_queries)} plans; "
            f"untyped "
            f"{untyped_failures}]; see {path}")

    result = {"title": "Plan quality: serving-tier UAE vs oracle/heuristic "
                       f"baselines (IMDB-large, profile={profile.name})",
              "columns": ["estimator", "median", "mean", "p10", "p90",
                          "mean_true_cost"]}
    result.update(payload)
    return result
