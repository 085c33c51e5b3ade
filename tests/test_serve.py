"""Tests for the online serving subsystem (repro.serve)."""

import threading
import time

import numpy as np
import pytest

from repro.core import UAE
from repro.serve import (EstimateService, FeedbackCollector, ModelRegistry,
                         ResultCache, UAEServer)
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
        registry = ModelRegistry(uae, keep_versions=2)
        registry.publish(uae)
        registry.publish(uae)
        assert len(registry) == 2
        assert registry.get(1) is None
        assert registry.get(3) is not None

    def test_rollback_republishes_forward(self, uae):
        registry = ModelRegistry(uae, keep_versions=3)
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
        service = EstimateService(registry, ResultCache())
        queries = workload.queries[:6]
        a = service.estimate_batch(queries, seed=42, use_cache=False)
        b = service.estimate_on(registry.active(), queries, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_empty_batch(self, uae):
        registry = ModelRegistry(uae)
        service = EstimateService(registry, ResultCache())
        assert service.estimate_batch([]).shape == (0,)

    def test_cache_round_trip(self, uae, workload):
        registry = ModelRegistry(uae)
        service = EstimateService(registry, ResultCache())
        query = workload.queries[0]
        first = service.estimate(query)
        second = service.estimate(query)
        assert first == second
        assert service.cache_served == 1
        assert service.cache.hits == 1

    def test_microbatch_worker_matches_sync(self, uae, workload):
        registry = ModelRegistry(uae)
        service = EstimateService(registry, ResultCache(), max_batch=8,
                                  max_wait_ms=5.0)
        queries = list(workload.queries[:12])
        with service:
            requests = [service.submit(q) for q in queries]
            results = np.array([r.result(timeout=30.0) for r in requests])
        # Worker-path answers are real estimates of the same quantities.
        sync = service.estimate_batch(queries, seed=3, use_cache=False)
        errs = qerrors(results, np.maximum(sync, 1.0))
        assert errs.max() < 5.0
        assert service.served >= len(queries)
        assert service.failures == 0

    def test_deadline_expired_fails(self, uae, workload):
        registry = ModelRegistry(uae)
        service = EstimateService(registry, cache=None, max_batch=4,
                                  max_wait_ms=1.0)
        with service:
            request = service.submit(workload.queries[0], deadline_ms=0.0)
            with pytest.raises(TimeoutError):
                request.result(timeout=10.0)
        assert service.deadline_misses >= 1

    def test_deadline_expired_during_compute_fails(self, uae, workload):
        """A request whose budget lapses while the engine runs must fail,
        not silently return late."""
        registry = ModelRegistry(uae)
        service = EstimateService(registry, cache=None, max_batch=4,
                                  max_wait_ms=1.0)
        original = service._compute

        def slow_compute(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        service._compute = slow_compute
        with service:
            request = service.submit(workload.queries[0], deadline_ms=15.0)
            with pytest.raises(TimeoutError):
                request.result(timeout=10.0)
        assert service.deadline_misses >= 1

    def test_budget_shed_before_compute(self, uae, workload):
        """A request whose remaining budget is below the projected
        per-query compute cost is shed *before* the engine runs (typed,
        counted), while deadline-free requests in the same flush still
        get real answers."""
        registry = ModelRegistry(uae)
        service = EstimateService(registry, cache=None, max_batch=8,
                                  max_wait_ms=1.0)
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
        assert service.budget_sheds >= 1
        assert service.stats()["budget_sheds"] == service.budget_sheds
        assert service.failures == 0

    def test_stop_fails_pending(self, uae, workload):
        registry = ModelRegistry(uae)
        service = EstimateService(registry, cache=None)
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
        service = EstimateService(ModelRegistry(uae), cache=None,
                                  max_batch=2, max_wait_ms=500.0)

        def boom(request):
            raise RuntimeError("Event loop is closed")

        with service:
            first = service.submit(workload.queries[0])
            first.add_done_callback(boom)
            second = service.submit(workload.queries[1])    # same batch
            assert second.result(timeout=30.0) >= 0.0
            assert first.result(timeout=30.0) >= 0.0
            assert service.flushes == 1
            assert service._worker.is_alive() and service.running
            assert service._c_callback_errors.value == 1
            # Already-settled handles guard the immediate call too.
            first.add_done_callback(boom)
            assert service._c_callback_errors.value == 2

    def test_dead_worker_is_respawned_never_computed_on_caller(
            self, uae, workload):
        """Never started: inline on the caller.  Started and died: the
        next submit respawns the worker — the caller may be an event
        loop and must not run the engine."""
        service = EstimateService(ModelRegistry(uae), cache=None,
                                  max_wait_ms=1.0)
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
                                      min_observations=4, quantile=0.5,
                                      threshold=3.0)
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

    def test_clear_buffer_keeps_monitor(self, workload):
        collector = FeedbackCollector(window=8, min_observations=2)
        collector.record(workload.queries[0], 50.0, 1.0)
        collector.clear_buffer()
        assert len(collector) == 0
        assert len(collector.monitor) == 1


# ----------------------------------------------------------------------
class TestUAEServer:
    def test_refine_publishes_and_invalidates_cache(self, uae, workload):
        server = UAEServer(uae.clone(), refine_epochs=1, seed=5)
        query = workload.queries[0]
        first = server.estimate(query)
        assert server.cache.hits == 0
        server.estimate(query)
        assert server.cache.hits == 1
        # Feed obviously-wrong feedback, refine, hot-swap.
        for q, tru in zip(workload.queries[:8], workload.cardinalities[:8]):
            server.observe(q, tru, estimate=100.0 * tru)
        record = server.refine()
        assert record["version"] == 2
        assert record["queries"] == 8
        assert server.registry.version == 2
        # Post-swap estimate recomputes (cache invalidated by version).
        hits_before, misses_before = server.cache.hits, server.cache.misses
        server.estimate(query)
        assert server.cache.misses > misses_before
        assert server.cache.hits == hits_before
        assert server.cache.invalidations >= 1
        assert first == pytest.approx(server.estimate(query), rel=10.0)

    def test_maintain_noop_below_threshold(self, uae, workload):
        server = UAEServer(uae.clone(), seed=6)
        server.feedback.threshold = 1e9
        for q, tru in zip(workload.queries[:8], workload.cardinalities[:8]):
            server.observe(q, tru, estimate=tru)
        assert server.maintain() is None
        assert server.registry.version == 1

    def test_background_refine_serves_during_swap(self, uae, workload):
        server = UAEServer(uae.clone(), refine_epochs=2, seed=7)
        for q, tru in zip(workload.queries, workload.cardinalities):
            server.feedback.record(q, 50.0 * tru, tru)
        with server:
            thread = server.refine(background=True)
            served = 0
            versions = set()
            while thread.is_alive():
                request = server.submit(workload.queries[served % 4])
                request.result(timeout=30.0)
                versions.add(request.version)
                served += 1
            server.join_refinement()
            request = server.submit(workload.queries[0])
            request.result(timeout=30.0)
            versions.add(request.version)
        assert server.service.failures == 0
        assert server.registry.version == 2
        assert 2 in versions

    def test_rollback_rewinds_trainer_weights(self, uae, workload):
        trainer = uae.clone()
        server = UAEServer(trainer, refine_epochs=2, seed=9)
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

    def test_stage_data_ingested_on_refine(self, tiny_table, workload):
        trainer = UAE(tiny_table, hidden=16, num_blocks=1, est_samples=24,
                      dps_samples=4, batch_size=128, query_batch_size=8,
                      seed=1)
        server = UAEServer(trainer, refine_epochs=1, data_epochs=1, seed=8)
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
