"""Tests for the online serving subsystem (repro.serve)."""

import threading
import time

import numpy as np
import pytest

from repro.core import UAE
from repro.serve import (EstimateRequest, EstimateService,
                         FeedbackCollector, HTTPFrontDoor, ModelRegistry,
                         RefinementJob, ResultCache, UAEServer)
from repro.serve.feedback import checked_cardinality
from repro.workload import RollingQErrorMonitor, qerrors


# The trained model and workload are the session-scoped ``tiny_uae`` /
# ``tiny_workload`` fixtures from conftest.py (shared with the router,
# stress, and backend-matrix suites).
@pytest.fixture
def uae(tiny_uae):
    return tiny_uae


@pytest.fixture
def workload(tiny_workload):
    return tiny_workload


def make_service(registry, max_batch=32):
    """A micro-batching service over ``registry`` with its own cache.
    Tests that count flushes or computes send distinct queries: the
    first 15 of ``tiny_workload`` have distinct constraint signatures,
    so none of them is a cache hit."""
    return EstimateService(registry, ResultCache(capacity=8192),
                           max_batch=max_batch, seed=0)


def count(server, family: str) -> float:
    """``server``'s namespace total of ``repro_serve_<family>_total``."""
    return server.metrics.total(f"repro_serve_{family}_total",
                                namespace=server.namespace)


def perturb(model: UAE) -> None:
    """A visible, version-bumping weight change on the trainer."""
    for p in model.model.parameters():
        p.data += 0.05
        p.bump_version()


# ----------------------------------------------------------------------
class TestRollingMonitor:
    def test_quantile_and_reset(self):
        monitor = RollingQErrorMonitor(window=4)
        assert monitor.quantile(0.9) == float("inf")
        for est, tru in ((10, 10), (100, 10), (10, 10), (10, 10)):
            monitor.add(est, tru)
        assert monitor.quantile(1.0) == pytest.approx(10.0)
        # Window slides: the outlier falls out after 4 more adds.
        for _ in range(4):
            monitor.add(5, 5)
        assert monitor.quantile(1.0) == pytest.approx(1.0)
        monitor.reset()
        assert len(monitor) == 0
        assert monitor.total_observed == 8

    def test_extend_matches_qerrors(self):
        monitor = RollingQErrorMonitor(window=16)
        est = np.array([1.0, 20.0, 300.0])
        tru = np.array([2.0, 10.0, 300.0])
        errs = monitor.extend(est, tru)
        np.testing.assert_allclose(errs, qerrors(est, tru))
        assert monitor.mean() == pytest.approx(errs.mean())


# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_bumps_version_and_swaps(self, uae):
        registry = ModelRegistry(uae)
        assert registry.version == 1
        mv = registry.publish(uae, source="test")
        assert mv.version == 2
        assert registry.active() is mv
        assert [h["version"] for h in registry.history()] == [1, 2]

    def test_snapshot_is_isolated_from_training(self, uae, workload):
        trainer = uae.clone()
        registry = ModelRegistry(trainer)
        snap = registry.active()
        before = snap.model.estimate_many(workload.queries[:4])
        perturb(trainer)
        after = snap.model.estimate_many(workload.queries[:4])
        # The snapshot still answers from its own frozen weights...
        np.testing.assert_allclose(before, after, rtol=0.2)
        # ...until a publish swaps the new weights in atomically.
        mv2 = registry.publish(trainer)
        swapped = mv2.model.estimate_many(workload.queries[:4])
        assert not np.allclose(before, swapped, rtol=1e-6)

    def test_keep_versions_trims_oldest(self, uae):
        registry = ModelRegistry(uae)
        keep = ModelRegistry.KEEP_VERSIONS
        for _ in range(keep):
            registry.publish(uae)
        assert len(registry) == keep
        assert registry.get(1) is None
        assert registry.get(keep + 1) is not None

    def test_rollback_republishes_forward(self, uae):
        registry = ModelRegistry(uae)
        registry.publish(uae)
        v1_model = registry.get(1).model
        redo = registry.rollback(1)
        # Versions stay monotonic: the old snapshot returns as version 3
        # (so version-keyed consumers like the cache never time-travel).
        assert redo.version == 3
        assert registry.version == 3
        assert redo.model is v1_model
        assert redo.source == "rollback(v1)"
        with pytest.raises(KeyError):
            registry.rollback(99)


# ----------------------------------------------------------------------
class TestResultCache:
    def constraints(self, uae, query):
        return uae.fact.expand_masks(query.masks(uae.table))

    def test_signature_stable_and_discriminating(self, uae, workload):
        q1, q2 = workload.queries[0], workload.queries[1]
        c1 = self.constraints(uae, q1)
        assert ResultCache.signature(c1) == \
            ResultCache.signature(self.constraints(uae, q1))
        assert ResultCache.signature(c1) != \
            ResultCache.signature(self.constraints(uae, q2))

    def test_version_bump_invalidates(self):
        cache = ResultCache(capacity=8)
        cache.put(b"k", 1, 0.5)
        assert cache.get(b"k", 1) == 0.5
        assert cache.get(b"k", 2) is None          # version bump clears
        assert cache.invalidations == 1
        assert cache.get(b"k", 1) is None          # old version gone too

    def test_stale_version_neither_reads_nor_wipes(self):
        """In-flight work pinned to a pre-swap snapshot must not
        ping-pong the new version's entries away."""
        cache = ResultCache(capacity=8)
        cache.put(b"new", 2, 2.0)
        cache.put(b"old", 1, 1.0)          # stale writer: dropped
        assert cache.get(b"old", 1) is None  # stale reader: plain miss
        assert cache.get(b"new", 2) == 2.0   # v2 entries survived
        assert cache.invalidations == 0

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(b"a", 1, 1.0)
        cache.put(b"b", 1, 2.0)
        assert cache.get(b"a", 1) == 1.0           # refresh "a"
        cache.put(b"c", 1, 3.0)                    # evicts "b"
        assert cache.get(b"b", 1) is None
        assert cache.get(b"a", 1) == 1.0
        assert len(cache) == 2


# ----------------------------------------------------------------------
class TestEstimateService:
    def test_sync_batch_matches_reference_bitwise(self, uae, workload):
        registry = ModelRegistry(uae)
        service = make_service(registry)
        queries = workload.queries[:6]
        a = service.estimate_batch(queries, seed=42, use_cache=False)
        b = service.estimate_on(registry.active(), queries, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_empty_batch(self, uae):
        registry = ModelRegistry(uae)
        service = make_service(registry)
        assert service.estimate_batch([]).shape == (0,)

    def test_cache_round_trip(self, uae, workload):
        registry = ModelRegistry(uae)
        service = make_service(registry)
        query = workload.queries[0]
        first = service.estimate(query)
        second = service.estimate(query)
        assert first == second
        assert service.metrics.total("repro_serve_cache_hits_total") == 1
        assert service.metrics.total("repro_serve_served_total") == 2

    def test_microbatch_worker_matches_sync(self, uae, workload):
        registry = ModelRegistry(uae)
        service = make_service(registry, max_batch=8)
        queries = list(workload.queries[:12])
        with service:
            requests = [service.submit(q) for q in queries]
            results = np.array([r.result(timeout=30.0) for r in requests])
        # Worker-path answers are real estimates of the same quantities.
        sync = service.estimate_batch(queries, seed=3, use_cache=False)
        errs = qerrors(results, np.maximum(sync, 1.0))
        assert errs.max() < 5.0
        served = service.metrics.total("repro_serve_served_total")
        assert served >= len(queries)
        assert service.metrics.total("repro_serve_failures_total") == 0

    def test_deadline_expired_fails(self, uae, workload):
        registry = ModelRegistry(uae)
        service = make_service(registry, max_batch=4)
        with service:
            request = service.submit(workload.queries[0], deadline_ms=0.0)
            with pytest.raises(TimeoutError):
                request.result(timeout=10.0)
        assert service.metrics.total("repro_serve_deadline_misses_total") >= 1

    def test_deadline_expired_during_compute_fails(self, uae, workload):
        """A request whose budget lapses while the engine runs must fail,
        not silently return late."""
        registry = ModelRegistry(uae)
        service = make_service(registry, max_batch=4)
        original = service._compute

        def slow_compute(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        service._compute = slow_compute
        with service:
            request = service.submit(workload.queries[0], deadline_ms=15.0)
            with pytest.raises(TimeoutError):
                request.result(timeout=10.0)
        assert service.metrics.total("repro_serve_deadline_misses_total") >= 1

    def test_budget_shed_before_compute(self, uae, workload):
        """A request whose remaining budget is below the projected
        per-query compute cost is shed *before* the engine runs (typed,
        counted), while deadline-free requests in the same flush still
        get real answers."""
        registry = ModelRegistry(uae)
        service = make_service(registry, max_batch=8)
        original = service._compute

        def slow_compute(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        service._compute = slow_compute
        with service:
            for q in workload.queries[:2]:
                service.estimate(q)   # warm the per-query cost EWMA
            cost = service._cost_per_query
            assert cost is not None and cost >= 0.05
            # Deadline above the queue wait but below one projected
            # compute: only the budget check can shed this one.
            doomed = service.submit(workload.queries[2],
                                    deadline_ms=cost * 0.9 * 1e3)
            safe = service.submit(workload.queries[3])
            with pytest.raises(TimeoutError, match="shed before compute"):
                doomed.result(timeout=10.0)
            assert safe.result(timeout=30.0) >= 0.0
        assert service.metrics.total("repro_serve_budget_sheds_total") >= 1
        assert service.metrics.total("repro_serve_failures_total") == 0

    def test_stop_fails_pending(self, uae, workload):
        registry = ModelRegistry(uae)
        service = make_service(registry)
        service.start()
        service.stop()
        assert not service.running
        # Sync path still works without the worker.
        assert service.estimate(workload.queries[0]) >= 0.0

    def test_raising_done_callback_spares_worker_and_batch_mates(
            self, uae, workload):
        """A done-callback that raises (``call_soon_threadsafe`` on a
        closed loop does) used to propagate out of the flush: the
        micro-batcher thread died and its batch-mates never settled."""
        service = make_service(ModelRegistry(uae), max_batch=2)

        def boom(request):
            raise RuntimeError("Event loop is closed")

        with service:
            # Holding the (reentrant) condition keeps the worker from
            # gathering until both are queued: one two-request flush.
            with service._cond:
                first = service.submit(workload.queries[0])
                first.add_done_callback(boom)
                second = service.submit(workload.queries[1])
            assert second.result(timeout=30.0) >= 0.0
            assert first.result(timeout=30.0) >= 0.0
            assert service.metrics.total("repro_serve_flushes_total") == 1
            assert service._worker.is_alive() and service.running
            assert service._c_callback_errors.value == 1
            # Already-settled handles guard the immediate call too.
            first.add_done_callback(boom)
            assert service._c_callback_errors.value == 2

    def test_gather_never_waits_on_a_timer(self, uae, workload):
        """Work-conserving: queued requests are taken at once (up to
        ``max_batch``), and the idle wait has no timeout — ``stop()``'s
        notify is what wakes it."""
        service = make_service(ModelRegistry(uae), max_batch=2)
        waits = []
        waiting = threading.Event()

        class SpyCondition(threading.Condition):
            def wait(self, timeout=None):
                waits.append(timeout)
                waiting.set()
                return super().wait(timeout)

        service._cond = SpyCondition()
        reqs = [EstimateRequest(q, [], None, None)
                for q in workload.queries[:4]]
        service._pending.append(reqs[0])
        assert service._gather() == reqs[:1]
        service._pending.extend(reqs[1:])
        assert service._gather() == reqs[1:3]
        assert service._gather() == reqs[3:]
        assert waits == []
        got = []
        idle = threading.Thread(target=lambda: got.append(service._gather()),
                                daemon=True)
        idle.start()
        assert waiting.wait(timeout=10.0)
        service.stop()
        idle.join(timeout=10.0)
        assert got == [[]] and waits == [None]

    @pytest.mark.parametrize("max_batch, sizes", [(32, [1, 3]),
                                                  (2, [1, 2, 1])])
    def test_batches_form_from_engine_busy_time(self, uae, workload,
                                                max_batch, sizes):
        """A first submit flushes alone; submits made while its compute
        runs make up the next flush (split at ``max_batch``)."""
        service = make_service(ModelRegistry(uae),
                               max_batch=max_batch)
        gate = threading.Event()
        entered = threading.Event()
        computed = []
        orig = service._compute

        def gated(snap, constraint_lists, seed=None):
            computed.append(len(constraint_lists))
            entered.set()
            assert gate.wait(timeout=10.0)
            return orig(snap, constraint_lists, seed)

        service._compute = gated
        with service:
            first = service.submit(workload.queries[0])
            assert entered.wait(timeout=10.0)
            rest = [service.submit(q) for q in workload.queries[1:4]]
            gate.set()
            for request in [first, *rest]:
                assert request.result(timeout=30.0) >= 0.0
        assert computed == sizes
        assert service.metrics.total("repro_serve_flushes_total") == \
            len(sizes)
        assert service._h_batch.count == len(sizes)
        assert service._h_batch.max == max(sizes)

    def test_dead_worker_is_respawned_never_computed_on_caller(
            self, uae, workload):
        """Never started: inline on the caller.  Started and died: the
        next submit respawns the worker — the caller may be an event
        loop and must not run the engine."""
        service = make_service(ModelRegistry(uae))
        threads = []
        orig = service._compute

        def recording(snap, constraint_lists, seed=None):
            threads.append(threading.current_thread())
            return orig(snap, constraint_lists, seed)

        service._compute = recording
        assert service.submit(workload.queries[0]).done()   # inline
        assert threads == [threading.current_thread()]
        service._worker_loop = lambda: None     # a worker that dies at once
        service.start()
        service._worker.join(timeout=10.0)
        assert not service._worker.is_alive() and service.running
        del service._worker_loop
        try:
            request = service.submit(workload.queries[1])
            assert request.result(timeout=30.0) >= 0.0
            assert service._worker.is_alive()
            assert threads[-1] is service._worker
        finally:
            service.stop()


# ----------------------------------------------------------------------
class TestFeedbackCollector:
    def test_drift_trigger_and_drain(self, workload):
        collector = FeedbackCollector(window=16, capacity=32,
                                      min_observations=4, threshold=3.0)
        for query, truth in zip(workload.queries[:4],
                                workload.cardinalities[:4]):
            collector.record(query, truth, truth)   # perfect estimates
        assert not collector.should_refine()
        for query, truth in zip(workload.queries[4:8],
                                workload.cardinalities[4:8]):
            collector.record(query, 100.0 * truth, truth)
        assert collector.should_refine()
        drained = collector.drain()
        assert len(drained) == 8
        assert len(collector) == 0
        assert not collector.should_refine()        # trigger reset
        assert collector.drain() is None


# ----------------------------------------------------------------------
class TestFeedbackNumbers:
    """Which values count as a cardinality or a deadline: the sync API
    takes any real scalar, the HTTP door only a JSON number."""

    def test_checked_cardinality_takes_numpy_scalars(self):
        for value in (np.int64(7), np.float32(2.5), 3, 0.0):
            number = checked_cardinality(value, "true_cardinality")
            assert type(number) is float and number == float(value)

    def test_checked_cardinality_refuses_nonfinite_and_negative(self):
        for value in (float("nan"), float("inf"), -1.0, np.float64(-0.5)):
            with pytest.raises(ValueError, match="estimate"):
                checked_cardinality(value, "estimate")

    def test_door_numbers_are_json_numbers_only(self):
        number_from = HTTPFrontDoor._number_from
        assert number_from({"estimate": 7}, "estimate") == 7.0
        assert number_from({"estimate": 2.5}, "estimate") == 2.5
        assert number_from({}, "estimate") is None
        assert number_from({"estimate": None}, "estimate") is None
        for value in (True, False, "7", "50", [1], {"n": 1}, 10 ** 400):
            with pytest.raises(ValueError, match="estimate"):
                number_from({"estimate": value}, "estimate")

    def test_door_deadline_is_positive_finite_and_has_no_default(self):
        deadline_from = HTTPFrontDoor._deadline_from
        assert deadline_from({}) is None
        assert deadline_from({"deadline_ms": 50}) == 50.0
        for value in (0, -1, float("inf"), float("nan"), True, "50"):
            with pytest.raises(ValueError, match="deadline_ms"):
                deadline_from({"deadline_ms": value})


# ----------------------------------------------------------------------
class TestUAEServer:
    """The per-namespace stack, driven through the one-table front."""

    def test_refine_publishes_and_invalidates_cache(self, tiny_front,
                                                    workload):
        front = tiny_front(seed=5, refine_epochs=1)
        server = front.namespace("tiny").server
        query = workload.queries[0]
        first = front.estimate(query)
        assert count(server, "cache_hits") == 0
        front.estimate(query)
        assert count(server, "cache_hits") == 1
        # Feed obviously-wrong feedback, refine, hot-swap.
        for q, tru in zip(workload.queries[:8], workload.cardinalities[:8]):
            server.observe(q, tru, estimate=100.0 * tru)
        record = server.refine()
        assert record["version"] == 2
        assert record["queries"] == 8
        assert server.registry.version == 2
        # Post-swap estimate recomputes (cache invalidated by version).
        hits_before = count(server, "cache_hits")
        flushes_before = count(server, "flushes")
        front.estimate(query)
        assert count(server, "flushes") == flushes_before + 1
        assert count(server, "cache_hits") == hits_before
        assert server.cache.invalidations >= 1
        assert first == pytest.approx(front.estimate(query), rel=10.0)

    @pytest.mark.parametrize("started", [False, True])
    def test_status_cache_block_restates_no_count(self, tiny_front,
                                                   workload, started):
        """The cache block of ``stats()`` (``GET /status``) holds state
        only.  Its own hit / miss counts double-counted every computed
        miss (looked up at submit and again at flush): 12 distinct
        queries then 6 repeats read 24 misses and a 0.2 hit rate.  The
        registry's counts are the true ones: 18 served, 6 from cache."""
        front = tiny_front(seed=4)
        if started:
            front.start()
        queries = list(workload.queries[:12])       # distinct signatures
        for query in queries + queries[:6]:
            front.estimate(query)
        server = front.namespace("tiny").server
        cache = front.stats()["namespaces"]["tiny"]["service"]["cache"]
        assert cache == {"entries": 12, "invalidations": 0, "version": 1}
        assert count(server, "served") == 18
        assert count(server, "cache_hits") == 6

    def test_maintain_noop_below_threshold(self, tiny_front, workload):
        server = tiny_front(seed=6).namespace("tiny").server
        server.feedback.threshold = 1e9
        for q, tru in zip(workload.queries[:8], workload.cardinalities[:8]):
            server.observe(q, tru, estimate=tru)
        assert server.maintain() is None
        assert server.registry.version == 1

    def test_background_refine_serves_during_swap(self, tiny_front,
                                                  workload):
        front = tiny_front(seed=7, refine_epochs=2)
        server = front.namespace("tiny").server
        for q, tru in zip(workload.queries, workload.cardinalities):
            server.feedback.record(q, 50.0 * tru, tru)
        with front:
            job = server.refine(background=True)
            served = 0
            versions = set()
            while job.is_alive():
                request = front.submit(workload.queries[served % 4])
                request.result(timeout=30.0)
                versions.add(request.version)
                served += 1
            server.join_refinement()
            request = front.submit(workload.queries[0])
            request.result(timeout=30.0)
            versions.add(request.version)
        assert server.metrics.total("repro_serve_failures_total") == 0
        assert server.registry.version == 2
        assert 2 in versions

    def test_background_refine_is_a_counted_pool_job(self, tiny_front,
                                                     workload):
        """The one background path: the job queues on the front's
        shared pool and shows in ``repro_pool_jobs_total``."""
        front = tiny_front(refine_epochs=1)
        server = front.namespace("tiny").server
        for q, tru in zip(workload.queries[:8], workload.cardinalities[:8]):
            server.feedback.record(q, 50.0 * tru, tru)
        job = server.refine(background=True)
        assert isinstance(job, RefinementJob) and job.namespace == "tiny"
        assert job.result(timeout=60.0)["version"] == 2
        assert front.metrics.total("repro_pool_jobs_total",
                                   namespace="tiny", outcome="ok") == 1
        assert not server.refining

    def test_pool_is_a_required_argument(self, uae):
        """No private refinement thread to fall back on: a stack is
        built with the pool its background refinements queue on."""
        with pytest.raises(TypeError, match="pool"):
            UAEServer(uae.clone(), namespace="tiny", cache_capacity=8,
                      max_batch=4, seed=0)

    def test_observe_without_estimate_asks_the_service(self, tiny_front,
                                                       workload):
        front = tiny_front(seed=3)
        server = front.namespace("tiny").server
        query, truth = workload.queries[1], workload.cardinalities[1]
        err = server.observe(query, truth)
        served = server.service.estimate(query)   # the cached answer
        assert count(server, "cache_hits") == 1
        assert err == pytest.approx(qerrors([served], [truth])[0])
        assert server.feedback.total_observed == 1
        assert front.estimate(query) == served

    def test_observe_takes_numpy_scalars(self, tiny_front, workload):
        """The door takes JSON numbers only; the sync path keeps taking
        the NumPy scalars an in-process executor reports."""
        server = tiny_front(seed=3).namespace("tiny").server
        query, truth = workload.queries[1], workload.cardinalities[1]
        err = server.observe(query, np.int64(truth),
                             estimate=np.float32(2.0 * truth + 1.0))
        assert err == pytest.approx(
            qerrors([float(np.float32(2.0 * truth + 1.0))], [truth])[0])
        assert server.feedback.total_observed == 1

    def test_front_resolves_each_request_once(self, tiny_front, workload,
                                              monkeypatch):
        """The front hands a request straight to the namespace's service,
        which does not route it again."""
        front = tiny_front()
        calls = []
        resolve = front.registry.resolve

        def counted(query, namespace=None):
            calls.append(query)
            return resolve(query, namespace=namespace)

        monkeypatch.setattr(front.registry, "resolve", counted)
        queries = list(workload.queries[:4])
        with front:
            front.submit(queries[0]).result(timeout=30.0)
            assert len(calls) == 1
            front.estimate(queries[1])
            assert len(calls) == 2
            front.observe(queries[2], 10.0)
            assert len(calls) == 3
            front.estimate_batch(queries, seed=1)
        assert calls[3:] == queries

    def test_rollback_rewinds_trainer_weights(self, tiny_front, uae,
                                              workload):
        trainer = uae.clone()
        server = tiny_front(trainer, seed=9, refine_epochs=2) \
            .namespace("tiny").server
        state_v1 = trainer.model.state_dict()
        for q, tru in zip(workload.queries[:8], workload.cardinalities[:8]):
            server.observe(q, tru, estimate=100.0 * tru)
        server.refine()
        changed = trainer.model.state_dict()
        assert any(not np.allclose(state_v1[k], changed[k])
                   for k in state_v1)
        optimizer_before = trainer.optimizer
        record = server.rollback(1)
        assert record["source"] == "rollback(v1)"
        assert server.registry.version == 3
        restored = trainer.model.state_dict()
        for key in state_v1:
            np.testing.assert_array_equal(restored[key], state_v1[key])
        # Optimizer rebuilt: Adam moments from the rejected trajectory
        # must not bias post-rollback training.
        assert trainer.optimizer is not optimizer_before
        assert trainer.optimizer.lr == optimizer_before.lr

    def test_refine_steps_recorded_on_metrics(self, tiny_front, tiny_table,
                                              workload):
        """Section 4.5 refinement steps count on /metrics like fit's: the
        staged rows' data steps under mode="data", the feedback's query
        steps under mode="query"."""
        trainer = UAE(tiny_table, hidden=16, num_blocks=1, est_samples=24,
                      dps_samples=4, batch_size=128, query_batch_size=8,
                      seed=1)
        server = tiny_front(trainer, seed=8, refine_epochs=3,
                            data_epochs=2).namespace("tiny").server
        server.stage_data(tiny_table.codes[:300])
        for q, tru in zip(workload.queries[:16], workload.cardinalities[:16]):
            server.observe(q, tru, estimate=100.0 * tru)
        server.refine()
        # data: 2 epochs x ceil(300 / 128); query: 3 epochs x 16 // 8.
        assert server.metrics.total("repro_train_steps_total",
                                    mode="data") == 2 * 3
        assert server.metrics.total("repro_train_steps_total",
                                    mode="query") == 3 * 2
        assert server.metrics.total("repro_train_steps_total",
                                    mode="hybrid") == 0
        text = server.metrics.render()
        assert 'repro_train_step_seconds_count{mode="query"} 6' in text

    def test_stage_data_ingested_on_refine(self, tiny_front, tiny_table,
                                           workload):
        trainer = UAE(tiny_table, hidden=16, num_blocks=1, est_samples=24,
                      dps_samples=4, batch_size=128, query_batch_size=8,
                      seed=1)
        server = tiny_front(trainer, seed=8, refine_epochs=1,
                            data_epochs=1).namespace("tiny").server
        rows_before = trainer.table.num_rows
        server.observe(workload.queries[0], workload.cardinalities[0],
                       estimate=123.0)
        server.stage_data(tiny_table.codes[:64])
        assert len(server.feedback) == 0      # stale labels dropped
        record = server.refine()
        assert record["rows"] == 64
        assert record["source"] == "data-refine"
        assert trainer.table.num_rows == rows_before + 64
        # The published snapshot serves the grown table.
        assert server.registry.active().model.table.num_rows == \
            rows_before + 64
