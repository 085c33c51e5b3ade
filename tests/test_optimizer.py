"""Tests for the planner, cost model, the cardinality-source contract,
and the plan-and-score loop behind Figure 6 and the plan bench."""

from collections import Counter

import numpy as np
import pytest

from reference.planner import connected
from repro.bench.plan_bench import plan_and_score, speedup_row
from repro.data.schema import make_imdb_large
from repro.joins import (JoinQuery, JoinSampleScan, MSCNJoin, NeuroCard,
                         SPNJoin, UAEJoin)
from repro.joins.workload import generate_job_m_focused
from repro.optimizer import (JoinGraph, MagicConstantHeuristic, Plan,
                             PostgresHeuristic, ServingCardinalityProvider,
                             TrueCardOracle, UESPessimisticProvider,
                             best_plan, card_fn, join_cost, plan_cost,
                             plan_for_query, plan_intermediates, scan_cost)
from repro.serve import RoutedEstimateService
from repro.workload import Predicate


def _star(*children: str, center: str = "title") -> JoinGraph:
    return JoinGraph((child, center) for child in children)


class TestCostModel:
    def test_leaf_cost_is_scan(self):
        plan = Plan(frozenset(["a"]))
        assert plan_cost(plan, lambda s: 42.0) == 42.0

    def test_join_cost_formula(self):
        assert join_cost(10, 100, 50) == 2 * 10 + 100 + 50

    def test_join_cost_symmetric_build_choice(self):
        assert join_cost(100, 10, 50) == join_cost(10, 100, 50)

    def test_plan_cost_hand_computed(self):
        cards = {frozenset(["a"]): 10.0, frozenset(["b"]): 20.0,
                 frozenset(["a", "b"]): 5.0}
        plan = Plan(frozenset(["a", "b"]),
                    Plan(frozenset(["a"])), Plan(frozenset(["b"])))
        expected = 10 + 20 + (2 * 10 + 20 + 5)
        assert plan_cost(plan, lambda s: cards[s]) == expected

    def test_plan_intermediates(self):
        plan = Plan(frozenset(["a", "b"]),
                    Plan(frozenset(["a"])), Plan(frozenset(["b"])))
        subsets = plan_intermediates(plan)
        assert frozenset(["a", "b"]) in subsets
        assert len(subsets) == 3


class TestPlanner:
    def test_connectivity_rule(self):
        assert connected(frozenset(["title"]), "title")
        assert connected(frozenset(["x"]), "title")
        assert connected(frozenset(["title", "x"]), "title")
        assert not connected(frozenset(["x", "y"]), "title")

    def test_two_table_plan(self):
        cards = {frozenset(["title"]): 100.0, frozenset(["x"]): 10.0,
                 frozenset(["title", "x"]): 50.0}
        plan = best_plan(["title", "x"], _star("x"), lambda s: cards[s])
        assert plan.tables == frozenset(["title", "x"])
        assert not plan.is_leaf

    def test_prefers_selective_join_first(self):
        """With one tiny and one huge child, join the tiny one first."""
        cards = {
            frozenset(["title"]): 1000.0,
            frozenset(["small"]): 1.0,
            frozenset(["big"]): 10_000.0,
            frozenset(["title", "small"]): 5.0,
            frozenset(["title", "big"]): 100_000.0,
            frozenset(["title", "small", "big"]): 50.0,
        }
        plan = best_plan(["title", "small", "big"], _star("small", "big"),
                         lambda s: cards[s])
        # The first join must be title ⋈ small.
        first_join = plan.left if not plan.left.is_leaf else plan.right
        if first_join.is_leaf:  # both leaves: root is the first join
            first_join = plan
        assert frozenset(["title", "small"]) in plan_intermediates(plan)
        assert frozenset(["title", "big"]) not in plan_intermediates(plan)

    def test_optimal_beats_fixed_order(self):
        """DP plan cost <= any left-deep order under the same cards."""
        rng = np.random.default_rng(0)
        tables = ["title", "a", "b", "c"]
        cards = {}
        for size in range(1, 5):
            from itertools import combinations
            for combo in combinations(tables, size):
                s = frozenset(combo)
                if connected(s, "title"):
                    cards[s] = float(rng.integers(1, 10_000))

        def card(s):
            return cards[s]

        plan = best_plan(tables, _star("a", "b", "c"), card)
        best_cost = plan_cost(plan, card)
        # Compare against the worst left-deep order.
        for order in ([["a", "b", "c"]], [["c", "b", "a"]]):
            current = Plan(frozenset(["title"]))
            for t in order[0]:
                joined = current.tables | {t}
                current = Plan(joined, current, Plan(frozenset([t])))
            assert best_cost <= plan_cost(current, card) + 1e-9

    def test_disconnected_raises(self):
        with pytest.raises(RuntimeError):
            best_plan(["x", "y"], _star("x", "y"), lambda s: 1.0)

    def test_rejects_center_table_string(self):
        """Connectivity has one input: a JoinGraph."""
        with pytest.raises(TypeError):
            best_plan(["title", "x"], "title", lambda s: 1.0)


class TestHeuristicAndOracle:
    @pytest.fixture(scope="class")
    def schema(self):
        return make_imdb_large(n_titles=400, seed=1)

    def test_postgres_base_cardinality(self, schema):
        pg = PostgresHeuristic(schema)
        card = pg.base_cardinality("title", [])
        assert card == schema.tables["title"].num_rows

    def test_postgres_join_estimate_positive(self, schema):
        pg = PostgresHeuristic(schema)
        q = JoinQuery(("title", "movie_companies"),
                      (Predicate("title.kind_id", "=", 1),))
        card = pg.cardinality(q, frozenset(q.tables))
        assert card > 0

    def test_oracle_matches_truth(self, schema):
        from repro.joins.workload import true_join_cardinality
        oracle = TrueCardOracle(schema)
        q = JoinQuery(("title", "movie_companies"), ())
        fn = card_fn(oracle, q)
        assert fn(frozenset(q.tables)) == pytest.approx(
            max(true_join_cardinality(schema, q), 1.0))

    def test_study_oracle_never_slower(self, schema):
        """Planning with true cards can never lose to the heuristic."""
        rng = np.random.default_rng(2)
        wl = generate_job_m_focused(schema, 6, rng)
        oracle = TrueCardOracle(schema)
        costs, plans, errors = plan_and_score(
            schema, wl.queries, [oracle, PostgresHeuristic(schema)], oracle)
        assert not errors
        assert list(costs) == ["TrueCard", "PostgreSQL"]
        assert len(plans["TrueCard"]) == len(wl.queries)
        speedups = costs["PostgreSQL"] / costs["TrueCard"]
        assert (speedups >= 1.0 - 1e-9).all()
        row = speedup_row("TrueCard", costs["PostgreSQL"], costs["TrueCard"])
        assert row["estimator"] == "TrueCard"
        assert row["p10"] >= 1.0 - 1e-9


# ----------------------------------------------------------------------
# One contract: every source answers cardinality(query, subset)
# ----------------------------------------------------------------------
_JOIN_KWARGS = dict(sample_size=200, hidden=16, num_blocks=1,
                    est_samples=8, dps_samples=4, batch_size=64,
                    query_batch_size=4, seed=0)


def _serving(schema):
    front = RoutedEstimateService(seed=3)
    front.add_join(UAEJoin(schema, **_JOIN_KWARGS))
    return ServingCardinalityProvider(front, schema)


def _mscn(schema):
    train = generate_job_m_focused(schema, 16, np.random.default_rng(4))
    return MSCNJoin(schema, sample_size=200, epochs=1, seed=0).fit(train)


SOURCES = {
    "TrueCard": TrueCardOracle,
    "PostgreSQL": PostgresHeuristic,
    "MagicConstants": MagicConstantHeuristic,
    "UES": UESPessimisticProvider,
    "UAE-serving": _serving,
    "UAEJoin": lambda schema: UAEJoin(schema, **_JOIN_KWARGS),
    "NeuroCard": lambda schema: NeuroCard(schema, **_JOIN_KWARGS),
    "JoinSampleScan": lambda schema: JoinSampleScan(schema, sample_size=200),
    "SPNJoin": lambda schema: SPNJoin(schema, sample_size=200),
    "MSCNJoin": _mscn,
}


class _Counting:
    """Forwards the contract and counts which subsets reach the source."""

    def __init__(self, source):
        self.source = source
        self.name = source.name
        self.asked: Counter = Counter()

    def cardinality(self, query, subset):
        self.asked[subset] += 1
        return self.source.cardinality(query, subset)


@pytest.fixture(scope="module")
def contract_setup():
    schema = make_imdb_large(n_titles=200, seed=1)
    query = generate_job_m_focused(schema, 1, np.random.default_rng(3),
                                   min_tables=4).queries[0]
    return schema, query


@pytest.mark.parametrize("kind", list(SOURCES))
def test_card_fn_asks_each_subset_once_per_plan(contract_setup, kind):
    """Every planner source and join estimator plans through the one
    memoised card_fn; the DP re-reads subsets, the source sees each at
    most once per plan, and every answer is a finite float."""
    schema, query = contract_setup
    source = SOURCES[kind](schema)
    counting = _Counting(source)
    fn = card_fn(counting, query)
    plan = plan_for_query(schema, list(query.tables), fn)
    assert plan.tables == frozenset(query.tables)
    assert counting.asked and max(counting.asked.values()) == 1
    graph = JoinGraph.from_schema(schema)
    assert set(counting.asked) <= set(graph.connected_subsets(query.tables))
    values = [fn(subset) for subset in counting.asked]
    assert all(isinstance(v, float) and np.isfinite(v) and v > 0
               for v in values)
    assert max(counting.asked.values()) == 1
    if kind == "UAE-serving":
        assert source.batched_calls == 1
