"""Tests for the multi-table serving front door (repro.serve.router):
routing correctness, per-namespace version isolation under concurrent
hot-swaps, and shared-trainer-pool fairness."""

import threading
import time

import numpy as np
import pytest

from repro.joins import JoinQuery, UAEJoin
from repro.serve import (AmbiguousNamespaceError, MultiTableRegistry,
                         Namespace, RefinementPool, RoutedEstimateService,
                         RoutingError, UAEServer, UnknownNamespaceError)
from repro.workload import Predicate, Query, routing_signature


def stack(uae, pool, name: str, **settings) -> UAEServer:
    """A namespace stack built outside a front (the front passes these
    four settings itself)."""
    return UAEServer(uae, pool=pool, namespace=name, cache_capacity=8192,
                     max_batch=32, seed=0, **settings)


def perturb(model) -> None:
    """A visible, version-bumping weight change on a trainer UAE."""
    for p in model.model.parameters():
        p.data += 0.05
        p.bump_version()


@pytest.fixture(scope="module")
def tiny_join(tiny_schema):
    join = UAEJoin(tiny_schema, sample_size=200, hidden=16, num_blocks=1,
                   est_samples=24, dps_samples=4, batch_size=64,
                   query_batch_size=4, seed=0)
    join.fit(epochs=1, mode="data")
    return join


@pytest.fixture
def front(tiny_uae, second_uae, tiny_join):
    """A three-namespace front door: two tables + one join schema."""
    import copy
    routed = RoutedEstimateService(seed=3)
    routed.add_table(tiny_uae.clone(), refine_epochs=1)
    routed.add_table(second_uae.clone(), refine_epochs=1)
    # Shallow-copy the join wrapper with a cloned inner UAE: the sampler,
    # sample table, and gains are immutable and safe to share, but the
    # UAE becomes the namespace's live trainer (refine mutates it), and
    # the module-scoped fixture must stay pristine.
    join = copy.copy(tiny_join)
    join.uae = tiny_join.uae.clone()
    routed.add_join(join, namespace="imdb", refine_epochs=1)
    return routed


# ----------------------------------------------------------------------
class TestRoutingSignature:
    def test_table_query_signature_is_columns(self):
        q = Query((Predicate("a", "=", 1), Predicate("b", "<=", 2),
                   Predicate("a", ">=", 0)))
        assert routing_signature(q) == ("table", frozenset({"a", "b"}))

    def test_join_query_signature_is_tables(self):
        q = JoinQuery(("title", "movie_info"),
                      (Predicate("title.kind_id", "=", 0),))
        assert routing_signature(q) == \
            ("join", frozenset({"title", "movie_info"}))

    def test_empty_query_routes_by_empty_columns(self):
        assert routing_signature(Query()) == ("table", frozenset())


# ----------------------------------------------------------------------
class TestMultiTableRegistry:
    def test_get_unknown_raises_typed_error(self, front):
        with pytest.raises(UnknownNamespaceError):
            front.registry.get("nope")
        # The typed error is catchable as plain KeyError too.
        with pytest.raises(KeyError):
            front.registry.get("nope")
        assert issubclass(UnknownNamespaceError, RoutingError)

    def test_duplicate_namespace_rejected(self, tiny_uae):
        routed = RoutedEstimateService(seed=0)
        routed.add_table(tiny_uae.clone(), namespace="tiny")
        with pytest.raises(ValueError, match="already registered"):
            routed.add_table(tiny_uae.clone(), namespace="tiny")

    def test_rejected_duplicate_leaves_the_live_gauges(self, tiny_uae,
                                                       tiny_join,
                                                       tiny_workload):
        """A taken name is refused before a stack is built: building
        one re-pointed the live namespace's scrape-time gauges at the
        orphan's empty collector and version 1, and set the rejected
        estimator's ``metrics``."""
        import copy
        routed = RoutedEstimateService(seed=0)
        server = routed.add_table(tiny_uae.clone(), namespace="tiny").server
        for q, tru in zip(tiny_workload.queries[:4],
                          tiny_workload.cardinalities[:4]):
            server.observe(q, tru, estimate=10.0 * max(tru, 1.0))
        server.registry.publish(server.trainer)          # live version 2
        gauges = [("repro_qerror", {"quantile": "p50"}),
                  ("repro_qerror", {"quantile": "p95"}),
                  ("repro_feedback_observations", {}),
                  ("repro_serve_queue_depth", {}),
                  ("repro_serve_model_version", {})]

        def read():
            return [routed.metrics.total(name, namespace="tiny", **labels)
                    for name, labels in gauges]

        before = read()
        assert before[2] == 4 and before[4] == 2
        rejected = tiny_uae.clone()
        join = copy.copy(tiny_join)
        join.uae = tiny_join.uae.clone()
        with pytest.raises(ValueError, match="already registered"):
            routed.add_table(rejected, namespace="tiny")
        with pytest.raises(ValueError, match="already registered"):
            routed.add_join(join, namespace="tiny")
        assert read() == before
        assert rejected.metrics is None and join.uae.metrics is None
        assert len(server.feedback.monitor) == 4

    def test_resolves_table_queries_by_columns(self, front, tiny_workload,
                                               second_workload):
        assert front.resolve(tiny_workload.queries[0]).name == "tiny"
        assert front.resolve(second_workload.queries[0]).name == "second"

    def test_unknown_column_raises(self, front):
        with pytest.raises(UnknownNamespaceError, match="no table namespace"):
            front.resolve(Query((Predicate("no_such_column", "=", 1),)))

    def test_join_query_routes_to_covering_schema(self, front):
        q = JoinQuery(("title", "movie_companies"),
                      (Predicate("title.kind_id", "=", 0),))
        assert front.resolve(q).name == "imdb"

    def test_join_query_with_uncovered_table_raises(self, front):
        q = JoinQuery(("title", "elsewhere"), ())
        with pytest.raises(UnknownNamespaceError, match="no join namespace"):
            front.resolve(q)

    def test_ambiguous_columns_raise_and_namespace_overrides(self, tiny_uae):
        routed = RoutedEstimateService(seed=0)
        routed.add_table(tiny_uae.clone(), namespace="a")
        routed.add_table(tiny_uae.clone(), namespace="b")
        query = Query((Predicate("a", "=", 1),))
        with pytest.raises(AmbiguousNamespaceError, match="pass namespace="):
            routed.resolve(query)
        assert routed.resolve(query, namespace="b").name == "b"
        # The explicit override reaches estimation too.
        assert routed.estimate(query, namespace="a") >= 0.0

    def test_smallest_covering_join_schema_wins(self, tiny_uae, tiny_join):
        pool = RefinementPool()
        small = Namespace(name="pair",
                          server=stack(tiny_uae.clone(), pool, "pair"),
                          kind="join",
                          tables=frozenset({"title", "movie_info"}))
        registry = MultiTableRegistry()
        registry.register(small)
        big = Namespace(name="star",
                        server=stack(tiny_uae.clone(), pool, "star"),
                        kind="join",
                        tables=frozenset({"title", "movie_info",
                                          "movie_companies"}))
        registry.register(big)
        q = JoinQuery(("title", "movie_info"), ())
        assert registry.resolve(q).name == "pair"
        q_all = JoinQuery(("title", "movie_info", "movie_companies"), ())
        assert registry.resolve(q_all).name == "star"


# ----------------------------------------------------------------------
class TestRefinementPool:
    def test_result_and_error_propagate(self):
        pool = RefinementPool()
        try:
            assert pool.submit("a", lambda: 41 + 1).result(timeout=5.0) == 42
            bad = pool.submit("a", lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                bad.result(timeout=5.0)
            assert pool.metrics.total("repro_pool_jobs_total",
                                      outcome="error") == 1
        finally:
            pool.stop()

    def test_round_robin_no_namespace_starves(self):
        """With one trainer thread, a namespace queueing many jobs yields
        to every other namespace between its own jobs."""
        pool = RefinementPool()
        release = threading.Event()
        started = threading.Event()
        order: list[str] = []
        lock = threading.Lock()

        def job(tag, wait=False):
            def run():
                if wait:
                    started.set()
                    release.wait(timeout=10.0)
                with lock:
                    order.append(tag)
            return run

        try:
            pool.submit("hot", job("hot-0", wait=True))
            # wait until the worker holds the blocker (no wall-clock guess)
            assert started.wait(timeout=10.0)
            for i in range(1, 5):
                pool.submit("hot", job(f"hot-{i}"))
            quiet_b = pool.submit("b", job("b-0"))
            quiet_c = pool.submit("c", job("c-0"))
            release.set()
            quiet_b.join(timeout=10.0)
            quiet_c.join(timeout=10.0)
            assert pool.join(timeout=10.0)
            # Round-robin: b and c each run after at most one further
            # "hot" job, never behind its whole backlog.
            assert order.index("b-0") <= order.index("hot-2")
            assert order.index("c-0") <= order.index("hot-3")
            jobs = pool.metrics.total
            per = {ns: jobs("repro_pool_jobs_total", namespace=ns)
                   for ns in ("hot", "b", "c")}
            assert per == {"hot": 5, "b": 1, "c": 1}
            assert jobs("repro_pool_jobs_total") == sum(per.values())
        finally:
            pool.stop()

    def test_refine_falls_back_inline_when_pool_stopped(self, tiny_uae,
                                                        tiny_workload):
        """Feedback drained for a background refinement must never be
        lost because the shared pool already stopped — the server
        refines inline instead."""
        pool = RefinementPool()
        server = stack(tiny_uae.clone(), pool, "tiny", refine_epochs=1)
        pool.stop()
        for q, tru in zip(tiny_workload.queries[:8],
                          tiny_workload.cardinalities[:8]):
            server.feedback.record(q, 100.0 * tru, tru)
        record = server.refine(background=True)
        assert isinstance(record, dict)         # inline record, not a job
        assert record["queries"] == 8
        assert server.registry.version == 2

    def test_stop_fails_pending_jobs(self):
        pool = RefinementPool()
        block = threading.Event()
        pool.submit("a", lambda: block.wait(timeout=10.0))
        pending = pool.submit("a", lambda: "never")
        block.set()
        pool.stop()
        with pytest.raises(RuntimeError, match="pool stopped"):
            pending.result(timeout=5.0)
        with pytest.raises(RuntimeError, match="pool is stopped"):
            pool.submit("a", lambda: 1)

    def test_close_drains_queued_jobs_then_rejects(self):
        """Graceful close: everything already queued finishes, new work
        is rejected, and the caller learns the pool drained fully."""
        pool = RefinementPool()
        block = threading.Event()
        slow = pool.submit("a", lambda: block.wait(timeout=10.0) and "done")
        tail = pool.submit("b", lambda: "tail")
        block.set()
        assert pool.close(timeout=10.0)
        assert slow.result(timeout=5.0) == "done"
        assert tail.result(timeout=5.0) == "tail"
        assert pool.metrics.total("repro_pool_jobs_total",
                                  outcome="error") == 0
        with pytest.raises(RuntimeError, match="pool is stopped"):
            pool.submit("a", lambda: 1)

    def test_close_timeout_cancels_whats_left(self):
        """A drain budget that lapses falls back to stop() semantics:
        still-pending jobs fail typed, and close() reports False."""
        pool = RefinementPool()
        block = threading.Event()
        pool.submit("a", lambda: block.wait(timeout=10.0))
        pending = pool.submit("a", lambda: "never")
        try:
            assert pool.close(timeout=0.05) is False
            with pytest.raises(RuntimeError, match="pool stopped"):
                pending.result(timeout=5.0)
        finally:
            block.set()


# ----------------------------------------------------------------------
class TestRoutedEstimateService:
    def test_each_setting_has_one_entry_point(self, tiny_uae, tiny_join):
        """Refinement settings are per namespace (``add_table`` /
        ``add_join``); what every namespace shares is a front keyword,
        and neither is accepted at the other's door."""
        for setting in ("refine_epochs", "data_epochs", "auto_refine"):
            with pytest.raises(TypeError, match=setting):
                RoutedEstimateService(**{setting: 1})
        front = RoutedEstimateService(seed=0)
        for shared in ("max_batch", "cache_capacity", "seed", "metrics",
                       "events"):
            with pytest.raises(TypeError, match=shared):
                front.add_table(tiny_uae.clone(), **{shared: 8})
        with pytest.raises(TypeError, match="max_batch"):
            front.add_join(tiny_join, max_batch=8)
        with pytest.raises(TypeError, match="expander"):
            front.add_table(tiny_uae.clone(), expander=None)
        assert len(front.registry) == 0
        space = front.add_table(tiny_uae.clone(), refine_epochs=1,
                                data_epochs=2, auto_refine=True)
        server = space.server
        assert (server.refine_epochs, server.data_epochs,
                server.auto_refine) == (1, 2, True)
        assert server.service.max_batch == 32
        assert server.cache.capacity == 8192

    def test_mixed_batch_matches_per_namespace_answers(self, front,
                                                       tiny_workload,
                                                       second_workload):
        mixed = [tiny_workload.queries[0], second_workload.queries[0],
                 tiny_workload.queries[1], second_workload.queries[1]]
        out = front.estimate_batch(mixed, seed=7, use_cache=False)
        ref_tiny = front.estimate_on(
            "tiny", [mixed[0], mixed[2]], seed=7)
        ref_second = front.estimate_on(
            "second", [mixed[1], mixed[3]], seed=7)
        np.testing.assert_array_equal(out[[0, 2]], ref_tiny)
        np.testing.assert_array_equal(out[[1, 3]], ref_second)

    def test_submit_routes_through_microbatchers(self, front, tiny_workload,
                                                 second_workload):
        with front:
            requests = [front.submit(q) for q in
                        (list(tiny_workload.queries[:3])
                         + list(second_workload.queries[:3]))]
            values = [r.result(timeout=30.0) for r in requests]
        assert all(v >= 0.0 for v in values)
        served = front.metrics.total
        assert served("repro_serve_served_total", namespace="tiny") >= 3
        assert served("repro_serve_served_total", namespace="second") >= 3

    def test_unknown_target_raises_on_estimate(self, front):
        with pytest.raises(UnknownNamespaceError):
            front.estimate(Query((Predicate("mystery", "=", 0),)))

    def test_observe_routes_feedback(self, front, tiny_workload,
                                     second_workload):
        front.observe(tiny_workload.queries[0], 10.0, estimate=20.0)
        front.observe(second_workload.queries[0], 5.0, estimate=5.0)
        assert len(front.namespace("tiny").server.feedback) == 1
        assert len(front.namespace("second").server.feedback) == 1
        assert len(front.namespace("imdb").server.feedback) == 0

    def test_version_isolation_across_concurrent_hot_swaps(
            self, front, tiny_workload, second_workload):
        """Hot-swapping namespace A concurrently with reads never changes
        namespace B's per-version seeded answers, bit for bit."""
        probes = list(second_workload.queries[:4])
        swapper_trainer = front.namespace("tiny").server.trainer
        reference = front.estimate_batch(probes, seed=11, use_cache=False)
        mismatches: list[int] = []
        stop = threading.Event()

        def swap_loop():
            for _ in range(5):
                perturb(swapper_trainer)
                front.namespace("tiny").server.registry.publish(
                    swapper_trainer, source="stress")
                time.sleep(0.001)
            stop.set()

        def read_loop():
            while not stop.is_set():
                got = front.estimate_batch(probes, seed=11, use_cache=False)
                if not np.array_equal(got, reference):
                    mismatches.append(1)

        readers = [threading.Thread(target=read_loop) for _ in range(3)]
        swapper = threading.Thread(target=swap_loop)
        for t in readers + [swapper]:
            t.start()
        for t in readers + [swapper]:
            t.join(timeout=30.0)
        assert not mismatches
        assert front.namespace("second").version == 1
        assert front.namespace("tiny").version == 6
        # And B's answers are still bit-identical after the dust settles.
        np.testing.assert_array_equal(
            front.estimate_batch(probes, seed=11, use_cache=False),
            reference)

    def test_shared_pool_refines_both_namespaces(self, tiny_uae, second_uae,
                                                 tiny_workload,
                                                 second_workload):
        front = RoutedEstimateService(seed=5)
        front.add_table(tiny_uae.clone(), refine_epochs=1)
        front.add_table(second_uae.clone(), refine_epochs=1)
        with front:
            for q, tru in zip(tiny_workload.queries[:8],
                              tiny_workload.cardinalities[:8]):
                front.observe(q, tru, estimate=100.0 * tru)
            for q, tru in zip(second_workload.queries[:8],
                              second_workload.cardinalities[:8]):
                front.observe(q, tru, estimate=100.0 * tru)
            for server in (front.namespace("tiny").server,
                           front.namespace("second").server):
                server.feedback.min_observations = 4
                server.feedback.threshold = 2.0
            jobs = front.maintain(background=True)
            assert set(jobs) == {"tiny", "second"}
            for job in jobs.values():
                job.join(timeout=60.0)
        assert front.namespace("tiny").version == 2
        assert front.namespace("second").version == 2
        jobs = front.metrics.total
        per = {ns: jobs("repro_pool_jobs_total", namespace=ns)
               for ns in ("tiny", "second")}
        assert per == {"tiny": 1, "second": 1}
        assert jobs("repro_pool_jobs_total") == sum(per.values())

    def test_maintain_counts_the_drift_it_refines_on(self, tiny_uae,
                                                     tiny_workload):
        """The routed sweep runs each namespace's ``UAEServer.maintain``:
        a drift-triggered refinement is counted and emitted as one, not
        only performed."""
        from repro.obs import EventLog
        events = EventLog()
        front = RoutedEstimateService(seed=5, events=events)
        front.add_table(tiny_uae.clone(), refine_epochs=1)
        server = front.namespace("tiny").server
        server.feedback.min_observations = 4
        server.feedback.threshold = 2.0
        for q, tru in zip(tiny_workload.queries[:8],
                          tiny_workload.cardinalities[:8]):
            front.observe(q, tru, estimate=100.0 * tru)
        started = front.maintain(background=False)
        assert set(started) == {"tiny"}
        assert started["tiny"]["version"] == 2
        assert front.metrics.total("repro_drift_triggers_total",
                                   namespace="tiny") == 1
        assert len(events.recent(event="drift_trigger")) == 1
        # No drift left: the next sweep neither refines nor counts.
        assert front.maintain(background=False) == {}
        assert front.metrics.total("repro_drift_triggers_total") == 1

    def test_join_namespace_serves_and_refines(self, front, tiny_schema,
                                               tiny_join):
        from repro.joins.workload import (generate_job_light,
                                          true_join_cardinality)
        rng = np.random.default_rng(31)
        workload = generate_job_light(tiny_schema, 6, rng)
        with front:
            estimates = front.estimate_batch(list(workload.queries), seed=13)
            assert estimates.shape == (6,)
            assert np.all(estimates >= 0.0)
            for q, tru in zip(workload.queries, workload.cardinalities):
                front.observe(q, tru, estimate=50.0 * tru)
            record = front.namespace("imdb").server.refine()
        assert record["version"] == 2
        assert record["queries"] == 6
        assert front.namespace("imdb").version == 2
        # Spot-check that routing agreed with the ground-truth helper.
        assert true_join_cardinality(tiny_schema, workload.queries[0]) == \
            workload.cardinalities[0]
