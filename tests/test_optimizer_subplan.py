"""Tests for the optimizer-in-the-loop path: fragment extraction, the
join-truth and heuristic fixes it depends on, the generalized planner,
and the serving-tier sub-plan provider."""

import copy
from itertools import combinations, permutations

import numpy as np
import pytest

from reference.planner import connected
from repro.data import Table
from repro.data.schema import ForeignKey, Schema, make_imdb, make_imdb_large
from repro.joins import JoinQuery, UAEJoin, UnjoinableFragmentError
from repro.joins.workload import (generate_job_m_focused,
                                  true_join_cardinality)
from repro.optimizer import (JoinGraph, MagicConstantHeuristic,
                             PostgresHeuristic, ServingCardinalityProvider,
                             TrueCardOracle, UESPessimisticProvider,
                             best_plan, card_fn, join_cost, plan_cost,
                             plan_for_query, scan_cost, worst_plan)
from repro.optimizer.cost import Plan
from repro.serve import RoutedEstimateService
from repro.workload import (FragmentError, Predicate, extract_fragment,
                            fragment_signature, routing_signature)


# ----------------------------------------------------------------------
# Bespoke schemas for the regression tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dup_key_schema() -> Schema:
    """Center join key with duplicates and a dangling child key: the
    schema where center-absent fragments and join-sized counts differ."""
    title = Table.from_raw("title", {
        "id": np.arange(4),
        "gid": np.array([0, 0, 1, 2]),
    })
    child = Table.from_raw("c", {
        "gid": np.array([0, 0, 2]),
        "v": np.array([1, 2, 3]),
    })
    return Schema("dup", {"title": title, "c": child},
                  [ForeignKey("c", "gid", "title", "gid")])


@pytest.fixture(scope="module")
def two_key_schema() -> Schema:
    """A star whose edges reference *different* center columns —
    ``id`` (unique, NDV 8) and ``grp`` (NDV 4)."""
    title = Table.from_raw("title", {
        "id": np.arange(8),
        "grp": np.array([0, 0, 1, 1, 2, 2, 3, 3]),
    })
    c1 = Table.from_raw("c1", {"movie_id": np.array([0, 1, 2, 3, 4])})
    c2 = Table.from_raw("c2", {"grp": np.array([0, 1, 1, 2])})
    return Schema("twokey", {"title": title, "c1": c1, "c2": c2},
                  [ForeignKey("c1", "movie_id", "title", "id"),
                   ForeignKey("c2", "grp", "title", "grp")])


# ----------------------------------------------------------------------
# extract_fragment / fragment_signature
# ----------------------------------------------------------------------
class TestExtractFragment:
    QUERY = JoinQuery(
        ("title", "movie_companies", "movie_info"),
        (Predicate("title.kind_id", "=", 1),
         Predicate("movie_companies.company_id", "<=", 40),
         Predicate("title.production_year", ">=", 1990)))

    def test_keeps_only_subset_predicates_in_order(self):
        frag = extract_fragment(self.QUERY, ["title"])
        assert frag.tables == ("title",)
        assert [p.column for p in frag.predicates] == [
            "title.kind_id", "title.production_year"]

    def test_full_subset_is_identity(self):
        frag = extract_fragment(self.QUERY, self.QUERY.tables)
        assert frag == self.QUERY

    def test_routing_signature_round_trip(self):
        """A fragment routes by exactly the tables it was cut down to —
        the property that lets fragments share the serving front door."""
        for r in range(1, len(self.QUERY.tables) + 1):
            for combo in combinations(self.QUERY.tables, r):
                frag = extract_fragment(self.QUERY, combo)
                assert routing_signature(frag) == ("join", frozenset(combo))

    def test_empty_subset_raises(self):
        with pytest.raises(FragmentError):
            extract_fragment(self.QUERY, [])

    def test_foreign_table_raises(self):
        with pytest.raises(FragmentError):
            extract_fragment(self.QUERY, ["title", "nope"])

    def test_tableless_query_raises(self):
        from repro.workload import conjunction
        with pytest.raises(FragmentError):
            extract_fragment(conjunction(Predicate("a", "=", 1)), ["a"])

    def test_signature_ignores_predicate_order(self):
        preds = list(self.QUERY.predicates)
        sigs = {fragment_signature(JoinQuery(self.QUERY.tables, tuple(p)))
                for p in permutations(preds)}
        assert len(sigs) == 1

    def test_signature_distinguishes_values(self):
        a = JoinQuery(("title",), (Predicate("title.kind_id", "=", 1),))
        b = JoinQuery(("title",), (Predicate("title.kind_id", "=", 2),))
        assert fragment_signature(a) != fragment_signature(b)


# ----------------------------------------------------------------------
# true_join_cardinality fixes
# ----------------------------------------------------------------------
class TestTrueJoinCardinalityFixes:
    def test_center_absent_singleton_is_filtered_count(self, dup_key_schema):
        """A center-absent singleton fragment is a plain scan.  The old
        code weighted child rows by how many center rows they matched
        (join-sized: 2+2+1 = 5 here), not the filtered count of 3."""
        q = JoinQuery(("c",), ())
        assert true_join_cardinality(dup_key_schema, q) == 3

    def test_center_absent_singleton_respects_filters(self, dup_key_schema):
        q = JoinQuery(("c",), (Predicate("c.v", "<=", 2),))
        assert true_join_cardinality(dup_key_schema, q) == 2

    def test_center_absent_pair_joins_on_shared_key(self, tiny_schema):
        """mc ⋈ mi on the (elided) title key: per-key products
        2*1 (movie 0) + 1*2 (movie 5) = 4."""
        q = JoinQuery(("movie_companies", "movie_info"), ())
        assert true_join_cardinality(tiny_schema, q) == 4

    def test_center_absent_pair_respects_filters(self, tiny_schema):
        q = JoinQuery(("movie_companies", "movie_info"),
                      (Predicate("movie_info.info_type", "=", 1),))
        # mi rows with info_type=1: movies 0, 4, 5 -> counts {0:1, 5:1};
        # mc counts {0:2, 1:1, 3:3, 5:1} -> 2*1 + 1*1 = 3.
        assert true_join_cardinality(tiny_schema, q) == 3

    def test_center_absent_mixed_keys_raises(self, two_key_schema):
        with pytest.raises(UnjoinableFragmentError):
            true_join_cardinality(two_key_schema, JoinQuery(("c1", "c2"), ()))

    def test_stray_table_raises(self, tiny_schema):
        with pytest.raises(UnjoinableFragmentError):
            true_join_cardinality(tiny_schema,
                                  JoinQuery(("title", "nope"), ()))

    def test_empty_center_returns_zero(self, tiny_schema):
        """Zero-row fact table: the old code crashed on
        ``fact_keys.max()`` before it could answer 0."""
        title = tiny_schema.tables["title"]
        empty = Table("title", title.columns, title.codes[:0])
        schema = Schema("empty", {**tiny_schema.tables, "title": empty},
                        list(tiny_schema.foreign_keys))
        q = JoinQuery(("title", "movie_companies"), ())
        assert true_join_cardinality(schema, q) == 0

    def test_center_present_unchanged(self, tiny_schema):
        """The fix must not disturb center-present ground truth."""
        q = JoinQuery(("title", "movie_companies"),
                      (Predicate("title.kind_id", "=", 0),))
        # titles 0, 2, 4 pass; mc counts {0:2, 1:1, 3:3, 5:1} -> 2.
        assert true_join_cardinality(tiny_schema, q) == 2


# ----------------------------------------------------------------------
# PostgresHeuristic per-edge NDV fix
# ----------------------------------------------------------------------
class TestPostgresPerEdgeNDV:
    def test_per_edge_parent_ndv(self, two_key_schema):
        pg = PostgresHeuristic(two_key_schema)
        assert pg.center_key_ndv == {"c1": 8, "c2": 4}

    def test_edge_uses_its_own_parent_column(self, two_key_schema):
        """The c2 edge joins on ``grp`` (NDV 4): containment divides by
        max(4, 3) = 4, giving 8*4/4 = 8 — which is also the true count.
        The old code divided every edge by ``foreign_keys[0]``'s parent
        NDV (8), under-estimating by 2x."""
        pg = PostgresHeuristic(two_key_schema)
        q = JoinQuery(("title", "c2"), ())
        assert pg.cardinality(q, frozenset(q.tables)) == pytest.approx(8.0)
        assert true_join_cardinality(two_key_schema, q) == 8

    def test_unique_key_edge_unchanged(self, two_key_schema):
        pg = PostgresHeuristic(two_key_schema)
        q = JoinQuery(("title", "c1"), ())
        assert pg.cardinality(q, frozenset(q.tables)) == pytest.approx(
            8 * 5 / max(8, 5))


# ----------------------------------------------------------------------
# Planner: join-graph connectivity + mirror-partition dedup
# ----------------------------------------------------------------------
def _plan_reference(tables, is_connected, card, pick=min):
    """The pre-dedup enumeration: every (left, right) ordered partition,
    each subset keeping the ``pick`` of its candidates by cost."""
    tables = sorted(tables)
    best = {}
    for name in tables:
        s = frozenset([name])
        best[s] = (scan_cost(card(s)), Plan(s))
    for size in range(2, len(tables) + 1):
        for combo in combinations(tables, size):
            subset = frozenset(combo)
            if not is_connected(subset):
                continue
            candidates = []
            members = sorted(subset)
            out = card(subset)
            for r in range(1, size):
                for left_combo in combinations(members, r):
                    left = frozenset(left_combo)
                    right = subset - left
                    if left not in best or right not in best:
                        continue
                    cost = (best[left][0] + best[right][0]
                            + join_cost(card(left), card(right), out))
                    candidates.append(
                        (cost, Plan(subset, best[left][1], best[right][1])))
            if candidates:
                best[subset] = pick(candidates, key=lambda t: t[0])
    return best[frozenset(tables)][1]


class TestJoinGraphPlanner:
    def test_star_graph_matches_connected_rule(self):
        schema = make_imdb_large(n_titles=200, seed=0)
        graph = JoinGraph.from_schema(schema)
        names = sorted(schema.tables)
        for size in range(1, len(names) + 1):
            for combo in combinations(names, size):
                subset = frozenset(combo)
                assert graph.is_connected(subset) == \
                    connected(subset, "title")

    def test_chain_connectivity(self):
        graph = JoinGraph([("b", "a"), ("c", "b")])
        assert graph.is_connected(frozenset(["a", "b", "c"]))
        assert graph.is_connected(frozenset(["a", "b"]))
        assert not graph.is_connected(frozenset(["a", "c"]))

    def test_connected_subsets_deterministic_order(self):
        graph = JoinGraph([("b", "a"), ("c", "b")])
        subsets = graph.connected_subsets(["c", "a", "b"])
        assert subsets == [frozenset(["a"]), frozenset(["b"]),
                           frozenset(["c"]), frozenset(["a", "b"]),
                           frozenset(["b", "c"]),
                           frozenset(["a", "b", "c"])]

    def test_chain_plan_excludes_cross_product(self):
        graph = JoinGraph([("b", "a"), ("c", "b")])
        cards = {frozenset(["a"]): 1.0, frozenset(["b"]): 1000.0,
                 frozenset(["c"]): 1.0, frozenset(["a", "b"]): 10.0,
                 frozenset(["b", "c"]): 10.0,
                 frozenset(["a", "b", "c"]): 5.0}
        plan = best_plan(["a", "b", "c"], graph, lambda s: cards[s])
        # a ⋈ c is disconnected, so no subplan may cover exactly {a, c}.
        for node in [plan.left, plan.right]:
            assert node.tables != frozenset(["a", "c"])

    def test_star_plans_bit_identical_via_graph(self):
        """plan_for_query (join graph) must equal the full enumeration
        under the star rule on a real workload."""
        schema = make_imdb_large(n_titles=200, seed=0)
        wl = generate_job_m_focused(schema, 6, np.random.default_rng(5),
                                    min_tables=3)
        pg = PostgresHeuristic(schema)
        for q in wl.queries:
            fn = card_fn(pg, q)
            assert plan_for_query(schema, list(q.tables), fn) == \
                _plan_reference(list(q.tables),
                                lambda s: connected(s, "title"), fn)

    def test_dedup_matches_reference_enumeration_with_ties(self):
        """Mirror-partition dedup halves the enumeration; plans must be
        bit-identical to the full enumeration even under heavy cost
        ties (small integer cards force them)."""
        center = "t"
        children = ["a", "b", "c", "d"]
        tables = [center] + children
        graph = JoinGraph((child, center) for child in children)
        rng = np.random.default_rng(7)
        for _ in range(60):
            cards = {}
            for size in range(1, len(tables) + 1):
                for combo in combinations(sorted(tables), size):
                    s = frozenset(combo)
                    if connected(s, center):
                        cards[s] = float(rng.integers(1, 8))
            fn = lambda s: cards[s]
            star = lambda s: connected(s, center)
            assert best_plan(tables, graph, fn) == \
                _plan_reference(tables, star, fn)
            assert worst_plan(tables, graph, fn) == \
                _plan_reference(tables, star, fn, max)

    def test_disconnected_raises(self):
        graph = JoinGraph([("b", "a")])
        with pytest.raises(RuntimeError):
            best_plan(["a", "c"], graph, lambda s: 1.0)


# ----------------------------------------------------------------------
# ServingCardinalityProvider: one batched call, bit-identity, hot-swap
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def imdb_schema() -> Schema:
    return make_imdb(n_titles=300, seed=0)


@pytest.fixture(scope="module")
def imdb_join(imdb_schema) -> UAEJoin:
    join = UAEJoin(imdb_schema, sample_size=200, hidden=16, num_blocks=1,
                   est_samples=24, dps_samples=4, batch_size=64,
                   query_batch_size=4, seed=0)
    join.fit(epochs=1, mode="data")
    return join


@pytest.fixture
def serving_front(imdb_join):
    """Fresh front door per test: hot-swap tests mutate the namespace."""
    join = copy.copy(imdb_join)
    join.uae = imdb_join.uae.clone()
    front = RoutedEstimateService(seed=3)
    space = front.add_join(join, namespace="imdb", refine_epochs=1,
                           data_epochs=1)
    return front, space, join


SERVING_QUERY = JoinQuery(
    ("title", "movie_companies", "movie_info"),
    (Predicate("title.kind_id", "=", 1),
     Predicate("movie_companies.company_id", "<=", 40)))


class TestServingCardinalityProvider:
    def test_prefetch_bit_identical_to_reference(self, serving_front,
                                                 imdb_schema):
        front, _, _ = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        got = provider.prefetch(SERVING_QUERY)
        ref = provider.reference(SERVING_QUERY)
        assert np.array_equal(got, ref)
        assert len(got) == len(provider.plan_fragments(SERVING_QUERY))

    def test_one_batched_call_covers_the_whole_plan(self, serving_front,
                                                    imdb_schema):
        front, _, _ = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        plan = plan_for_query(imdb_schema, list(SERVING_QUERY.tables),
                              card_fn(provider, SERVING_QUERY))
        assert plan.tables == frozenset(SERVING_QUERY.tables)
        assert provider.batched_calls == 1
        # Re-planning the same query reuses the plan's answers.
        plan_for_query(imdb_schema, list(SERVING_QUERY.tables),
                       card_fn(provider, SERVING_QUERY))
        assert provider.batched_calls == 1

    def test_cardinality_matches_prefetch(self, serving_front,
                                          imdb_schema):
        front, _, _ = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        values = provider.prefetch(SERVING_QUERY)
        frags = provider.plan_fragments(SERVING_QUERY)
        for frag, value in zip(frags, values):
            got = provider.cardinality(SERVING_QUERY, frozenset(frag.tables))
            assert got == max(float(value), 1.0)
        assert provider.batched_calls == 1

    def test_replanning_reads_own_answers(self, serving_front,
                                          imdb_schema):
        """Plans sharing a fragment never read each other's seeded
        answers.  Planning B between two plannings of A used to leave
        B's value for their shared fragments in a cross-plan cache,
        which A's second planning then read."""
        front, _, _ = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        kind = (Predicate("title.kind_id", "=", 1),)
        a = JoinQuery(("title", "movie_companies", "movie_info"), kind)
        b = JoinQuery(("title", "movie_companies"), kind)
        for query in (a, b):
            plan_for_query(imdb_schema, list(query.tables),
                           card_fn(provider, query))
        replanned = card_fn(provider, a)
        subsets = provider.graph.connected_subsets(a.tables)
        for subset, value in zip(subsets, provider.reference(a)):
            assert replanned(subset) == max(float(value), 1.0)
        assert provider.batched_calls == 2

    def test_subset_outside_the_plan_is_typed(self, serving_front,
                                              imdb_schema):
        front, _, _ = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        with pytest.raises(FragmentError):
            provider.cardinality(
                SERVING_QUERY, frozenset(["movie_companies", "movie_info"]))
        assert provider.batched_calls == 0

    def test_seed_stable_across_instances(self, serving_front, imdb_schema):
        front, _, _ = serving_front
        a = ServingCardinalityProvider(front, imdb_schema)
        b = ServingCardinalityProvider(front, imdb_schema)
        assert a.seed_for(SERVING_QUERY) == b.seed_for(SERVING_QUERY)

    def test_hot_swap_invalidates_and_stays_bit_identical(self,
                                                          serving_front,
                                                          imdb_schema):
        front, space, join = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        before = provider.prefetch(SERVING_QUERY)
        v1 = space.version
        space.server.stage_data(join.sample_table.codes[:80])
        space.server.refine()
        assert space.version > v1
        after = provider.prefetch(SERVING_QUERY)
        assert provider.invalidations == 1
        assert provider.batched_calls == 2
        # The new answers are the new model's seeded reference, bit for
        # bit — and genuinely from the swapped model, not a stale cache.
        assert np.array_equal(after, provider.reference(SERVING_QUERY))
        assert not np.array_equal(before, after)


    def test_plans_kept_per_namespace_are_bounded(self, serving_front,
                                                  imdb_schema, monkeypatch):
        """The per-namespace plan cache is an LRU of ``PLAN_CAPACITY``
        plans: of three distinct plans the two most recent stay."""
        monkeypatch.setattr(ServingCardinalityProvider, "PLAN_CAPACITY", 2)
        front, _, _ = serving_front
        provider = ServingCardinalityProvider(front, imdb_schema)
        plans = [JoinQuery(SERVING_QUERY.tables,
                           (Predicate("movie_companies.company_id", "<=",
                                      bound),))
                 for bound in (20, 40, 60)]
        for query in plans:
            provider.prefetch(query)
        assert provider.batched_calls == 3
        provider.prefetch(plans[2])
        provider.prefetch(plans[1])
        assert provider.batched_calls == 3
        provider.prefetch(plans[0])
        assert provider.batched_calls == 4
        assert provider.invalidations == 0


class TestUESPessimisticProvider:
    def test_singleton_is_filtered_count(self, tiny_schema):
        ues = UESPessimisticProvider(tiny_schema)
        q = JoinQuery(("movie_info",),
                      (Predicate("movie_info.info_type", "=", 1),))
        assert ues.upper_bound(q, frozenset(["movie_info"])) == 3

    def test_upper_bounds_every_connected_fragment(self, tiny_schema):
        ues = UESPessimisticProvider(tiny_schema)
        graph = JoinGraph.from_schema(tiny_schema)
        queries = [
            JoinQuery(("title", "movie_companies", "movie_info"), ()),
            JoinQuery(("title", "movie_companies", "movie_info"),
                      (Predicate("title.kind_id", "=", 0),
                       Predicate("movie_companies.company_id", "=", 10))),
            JoinQuery(("title", "movie_info"),
                      (Predicate("movie_info.info_type", ">=", 2),)),
        ]
        for q in queries:
            for subset in graph.connected_subsets(q.tables):
                truth = true_join_cardinality(
                    tiny_schema, extract_fragment(q, subset))
                assert ues.upper_bound(q, subset) + 1e-6 >= truth

    def test_bound_is_finite_and_positive(self, tiny_schema):
        ues = UESPessimisticProvider(tiny_schema)
        fn = card_fn(ues, JoinQuery(
            ("title", "movie_companies", "movie_info"), ()))
        bound = fn(frozenset(["title", "movie_companies", "movie_info"]))
        assert np.isfinite(bound) and bound >= 1.0


# ----------------------------------------------------------------------
# End to end: the oracle never loses through the new machinery
# ----------------------------------------------------------------------
class TestOracleOptimality:
    def test_oracle_plan_cost_is_minimal(self, tiny_schema):
        oracle = TrueCardOracle(tiny_schema)
        magic = MagicConstantHeuristic(tiny_schema)
        q = JoinQuery(("title", "movie_companies", "movie_info"),
                      (Predicate("title.production_year", ">=", 2000),))
        true_fn = card_fn(oracle, q)
        oracle_cost = plan_cost(
            plan_for_query(tiny_schema, list(q.tables), true_fn), true_fn)
        magic_cost = plan_cost(
            plan_for_query(tiny_schema, list(q.tables), card_fn(magic, q)),
            true_fn)
        assert oracle_cost <= magic_cost + 1e-9
