"""Deadline/cancellation + wire-protocol suite for the asyncio network
front door (repro.serve.net).

Concurrency semantics pinned here:

* the awaitable path returns the **same bits** as the sync path (seeded
  parity — the async layer must not perturb the sampling stream);
* a cancelled awaitable is *abandonment*: the micro-batcher never gives
  it a batch slot or engine time after cancellation;
* deadline budgets propagate down and shed **typed** at every layer —
  service (``TimeoutError``), router (``TimeoutError`` /
  ``UnknownNamespaceError``), cluster (``LoadShedError``);
* concurrent async clients across namespaces stay bit-isolated;
* the HTTP protocol round-trips estimate/batch/feedback, rejects
  malformed/oversized input with typed 4xx, and maps every serving
  error to its status exactly per ``ERROR_STATUS``.

Everything runs on ephemeral localhost sockets inside per-test event
loops, so the module is ``net``-marked (deselected from tier-1, run by
the CI network step via ``-m net``).
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import (ERROR_STATUS, AmbiguousNamespaceError,
                         AsyncEstimateService, AsyncHTTPClient,
                         ClusterRequest, EstimateRequest, HTTPFrontDoor,
                         LoadShedError, RequestCancelledError,
                         RoutedEstimateService, UAEServer,
                         UnknownNamespaceError,
                         WorkerUnavailableError, status_for)
from repro.workload import Predicate, Query
from repro.workload.sqlparse import SQLParseError

pytestmark = pytest.mark.net


def run(coro):
    """Each test gets a fresh event loop (no cross-test loop state)."""
    return asyncio.run(coro)


@pytest.fixture
def server(tiny_uae):
    with UAEServer(tiny_uae, max_batch=16, max_wait_ms=1.0, seed=7) as srv:
        yield srv


@pytest.fixture
def routed(tiny_uae, second_uae):
    front = RoutedEstimateService(pool_workers=1, refine_epochs=1, seed=3)
    front.add_table(tiny_uae.clone())
    front.add_table(second_uae.clone())
    with front:
        yield front


def fresh_query(i: int) -> Query:
    """Distinct tiny-table conjunctions (cache-miss on first sight)."""
    return Query((Predicate("a", "=", i % 4), Predicate("b", ">=", i % 5),
                  Predicate("c", "<=", i % 3)))


# ----------------------------------------------------------------------
# Awaitable semantics
# ----------------------------------------------------------------------
class TestAwaitableParity:
    def test_seeded_batch_bit_parity_with_sync(self, server, tiny_workload):
        svc = AsyncEstimateService(server)
        queries = list(tiny_workload.queries)
        got = run(svc.estimate_batch(queries, seed=99))
        ref = server.estimate_batch(queries, seed=99)
        assert np.array_equal(got, ref)
        # And stable across a second awaitable call (seeded calls bypass
        # the cache, so this is real recompute parity).
        again = run(svc.estimate_batch(queries, seed=99))
        assert np.array_equal(got, again)

    def test_single_submit_matches_sync_via_cache(self, server):
        svc = AsyncEstimateService(server)
        query = fresh_query(0)
        got = run(svc.submit(query))
        # The sync path must see the identical cached float — the async
        # layer writes through the same service.
        assert server.estimate(query) == got

    def test_submit_request_exposes_version(self, server):
        svc = AsyncEstimateService(server)
        request = run(svc.submit_request(fresh_query(1)))
        assert request.version == server.registry.version
        assert request.done() and request.exception() is None


class TestCancellation:
    def test_cancelled_awaitable_never_occupies_batch_slot(self, tiny_uae):
        """``submit`` enqueues inline, so the only place an await can be
        abandoned is *pending* — queued behind the worker.  Cancelling
        it settles the handle on the spot and the flush drops it: the
        engine never sees its constraints."""
        with UAEServer(tiny_uae, max_batch=16, max_wait_ms=1.0,
                       seed=7) as srv:
            service = srv.service
            gate = threading.Event()
            entered = threading.Event()
            computed_queries = []
            orig = service._compute

            def gated(snap, constraint_lists, seed=None):
                computed_queries.append(len(constraint_lists))
                entered.set()
                assert gate.wait(timeout=10.0)
                return orig(snap, constraint_lists, seed)

            service._compute = gated

            async def scenario():
                svc = AsyncEstimateService(srv)
                # q0 occupies the worker inside the gated compute...
                first = asyncio.ensure_future(svc.submit(fresh_query(0)))
                await asyncio.get_running_loop().run_in_executor(
                    None, entered.wait, 10.0)
                # ...q1 is in the pending queue after its task's first
                # step, then its caller walks away.
                victim = asyncio.ensure_future(svc.submit(fresh_query(1)))
                await asyncio.sleep(0)
                queued = list(service._pending)
                assert len(queued) == 1 and not queued[0].done()
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim
                assert svc.cancelled == 1
                assert isinstance(queued[0].exception(),
                                  RequestCancelledError)
                gate.set()
                await first
                # An await that settles (hit or miss) is never counted.
                await svc.submit(fresh_query(0))
                return svc

            svc = run(scenario())
            # Drain: the worker's next flush (which skips the cancelled
            # request) has happened once the stats settle.
            deadline = time.perf_counter() + 5.0
            while service.stats()["cancellations"] < 1:
                assert time.perf_counter() < deadline
                time.sleep(0.005)
            assert svc.cancelled == 1
            # Only q0's singleton batch ever reached the engine.
            assert sum(computed_queries) == 1

    def test_cancel_settles_request_with_typed_error(self, server):
        request = server.submit(fresh_query(2))
        if request.cancel():
            assert isinstance(request.exception(), RequestCancelledError)
            with pytest.raises(RequestCancelledError):
                request.result(timeout=0)
        else:
            # Lost the race to the worker: then it completed normally.
            assert request.exception() is None

    # One settlement implementation, three handle shapes: the
    # micro-batcher's float handle, a cluster batch handle carrying an
    # array, and a cluster ``single`` handle unwrapping a one-query
    # array back to a float.
    HANDLES = {
        "float": (lambda: EstimateRequest(fresh_query(3), [], None, None),
                  1.0, 1.0),
        "batch": (lambda: ClusterRequest("tiny", 3, None),
                  np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])),
        "single": (lambda: ClusterRequest("tiny", 1, None, single=True),
                   np.array([4.0]), 4.0),
    }

    @pytest.mark.parametrize("shape", sorted(HANDLES))
    def test_settlement_is_first_wins(self, shape):
        make, value, want = self.HANDLES[shape]
        request = make()
        assert request._complete(value, 1)
        assert not request.cancel()
        assert not request._fail(RuntimeError("late"))
        assert request.exception() is None
        got = request.result(timeout=0)
        assert type(got) is type(want) and np.array_equal(got, want)
        assert request.version == 1 and request.from_cache is False
        assert request.latency() >= 0.0
        # ...and the other way round: a cancellation that wins sticks.
        loser = make()
        assert loser.cancel()
        assert not loser._complete(value, 2)
        assert loser.version is None
        with pytest.raises(RequestCancelledError):
            loser.result(timeout=0)

    @pytest.mark.parametrize("shape", sorted(HANDLES))
    def test_done_callback_fires_once_after_settle(self, shape):
        make, value, _want = self.HANDLES[shape]
        request = make()
        calls = []
        request.add_done_callback(calls.append)
        request._complete(value, 1)
        request._fail(RuntimeError("late"))       # loses: no second call
        assert len(calls) == 1
        request.add_done_callback(calls.append)   # already settled
        assert len(calls) == 2
        assert all(r is request for r in calls)

    @pytest.mark.parametrize("shape", sorted(HANDLES))
    def test_cancel_vs_complete_race_settles_exactly_once(self, shape):
        make, value, want = self.HANDLES[shape]
        envelope = {} if shape == "float" else {"worker": "w0"}
        for _ in range(200):
            request = make()
            calls = []
            request.add_done_callback(calls.append)
            barrier = threading.Barrier(2)
            won = []

            def complete():
                barrier.wait()
                won.append(("complete",
                            request._complete(value, 1, **envelope)))

            def cancel():
                barrier.wait()
                won.append(("cancel", request.cancel()))

            threads = [threading.Thread(target=complete),
                       threading.Thread(target=cancel)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sorted(ok for _who, ok in won) == [False, True]
            assert len(calls) == 1
            if dict(won)["complete"]:
                assert request.exception() is None
                assert np.array_equal(request.result(timeout=0), want)
                assert request.version == 1
            else:
                assert isinstance(request.exception(),
                                  RequestCancelledError)
                # The losing completion left no trace on the handle.
                assert request.version is None
                assert getattr(request, "worker", None) is None


class TestLoopNeverBlocks:
    """The single-query path is a straight line on the event loop:
    ``front.submit`` inline, no executor hop, and nothing the loop can
    wait on indefinitely."""

    def test_cache_hits_settle_without_leaving_the_loop(self, server):
        query = fresh_query(7)

        def left_the_loop(*args, **kwargs):
            raise AssertionError("a cache hit must not leave the loop")

        async def scenario():
            svc = AsyncEstimateService(server)
            await svc.submit(query)             # the miss fills the cache
            loop = asyncio.get_running_loop()
            patched = ("run_in_executor", "call_soon_threadsafe",
                       "create_future", "call_later", "call_at")
            for name in patched:
                setattr(loop, name, left_the_loop)
            try:
                handles = [await svc.submit_request(query)
                           for _ in range(50)]
            finally:
                for name in patched:
                    delattr(loop, name)
            return svc, handles

        svc, handles = run(scenario())
        assert all(h.from_cache and h.done() for h in handles)
        assert svc._c_offloop.value == 0 and svc.cancelled == 0

    def test_front_that_is_not_running_is_refused_typed(self, tiny_uae):
        srv = UAEServer(tiny_uae, seed=7)       # never started
        computed = []
        srv.service._compute = lambda *a, **k: computed.append(a)

        async def scenario():
            with pytest.raises(WorkerUnavailableError):
                await AsyncEstimateService(srv).submit(fresh_query(8))
            async with _DoorHarness(srv) as h:
                return await h.client.post("/estimate",
                                           {"sql": "a = 1 AND b = 1"})

        status, body, headers = run(scenario())
        assert status == 503 and body["error"] == "WorkerUnavailableError"
        assert "retry-after" in headers
        assert computed == []       # the engine never ran on the loop

    @pytest.mark.multiproc
    def test_saturated_cluster_parks_submits_off_the_loop(
            self, tiny_uae, second_uae, tiny_workload):
        """All of the owner's slots are held by a batch its worker
        sleeps on: a deadline-free submit stays pending (parked on the
        cluster's placer thread) while the loop keeps ticking, and a
        deadlined one sheds 503 as before."""
        from repro.serve import (HAVE_SHARED_MEMORY, ChaosPlan,
                                 ClusterEstimateService)
        if not HAVE_SHARED_MEMORY:
            pytest.skip("no multiprocessing.shared_memory")
        plan = ChaosPlan(seed=5)
        plan.inject("worker.batch", "sleep", at=2,
                    where={"namespace": "tiny"}, params={"seconds": 1.0})
        cluster = ClusterEstimateService(workers=2, queue_depth=1, seed=7,
                                         chaos=plan)
        cluster.add_table(tiny_uae.clone())
        cluster.add_table(second_uae.clone())
        queries = list(tiny_workload.queries)

        async def scenario():
            async with _DoorHarness(cluster) as h:
                svc = h.door.service
                handle = cluster._owner_handle("tiny")
                worst_lag = 0.0

                async def heartbeat():
                    nonlocal worst_lag
                    while True:
                        t0 = time.perf_counter()
                        await asyncio.sleep(0.005)
                        worst_lag = max(worst_lag,
                                        time.perf_counter() - t0 - 0.005)

                beat = asyncio.ensure_future(heartbeat())
                blocker = asyncio.ensure_future(
                    svc.estimate_batch(queries[:4], namespace="tiny"))
                while handle.free:              # the gated batch is out
                    await asyncio.sleep(0.005)
                parked = asyncio.ensure_future(svc.submit(queries[4]))
                await asyncio.sleep(0.2)
                assert not parked.done() and len(handle.parked) == 1
                status, body, _ = await h.client.post(
                    "/estimate", {"sql": "a = 1 AND b = 1",
                                  "deadline_ms": 100.0})
                assert not parked.done() and not blocker.done()
                value = await parked
                await blocker
                beat.cancel()
                _, text, _ = await h.client.get("/metrics")
                return status, body, value, worst_lag, text

        with cluster:
            cluster.estimate_batch(queries[:4])     # warm the EWMA
            status, body, value, worst_lag, text = run(scenario())
            assert cluster.stats()["failures"] == 0
        assert status == 503 and body["error"] == "LoadShedError"
        assert value >= 0.0
        assert worst_lag < 0.05
        offloop = [line for line in text.splitlines()
                   if line.startswith("repro_async_offloop_submits_total")]
        assert [float(line.rsplit(" ", 1)[1]) for line in offloop] == [2.0]


class TestDeadlinePropagation:
    def test_service_layer_sheds_typed(self, server):
        svc = AsyncEstimateService(server)
        with pytest.raises(TimeoutError):
            run(svc.submit(fresh_query(5), deadline_ms=0.01))
        assert server.service.deadline_misses >= 1

    def test_router_layer_sheds_typed(self, routed):
        svc = AsyncEstimateService(routed)
        query = Query((Predicate("x", "=", 1), Predicate("y", ">=", 2)))
        with pytest.raises(TimeoutError):
            run(svc.submit(query, deadline_ms=0.01))

    def test_router_unknown_namespace_typed(self, routed):
        svc = AsyncEstimateService(routed)
        query = Query((Predicate("no_such_column", "=", 1),))
        with pytest.raises(UnknownNamespaceError):
            run(svc.submit(query))

    @pytest.mark.multiproc
    def test_cluster_layer_sheds_typed(self, tiny_uae, tiny_workload):
        from repro.serve import HAVE_SHARED_MEMORY, ClusterEstimateService
        if not HAVE_SHARED_MEMORY:
            pytest.skip("no multiprocessing.shared_memory")
        cluster = ClusterEstimateService(workers=1, queue_depth=1, seed=7)
        cluster.add_table(tiny_uae.clone())
        queries = list(tiny_workload.queries)
        with cluster:
            cluster.estimate_batch(queries[:8])     # warm the EWMA
            svc = AsyncEstimateService(cluster)

            async def burst():
                tasks = [asyncio.ensure_future(
                    svc.submit(q, deadline_ms=1.0))
                    for q in (queries * 3)[:48]]
                outcomes = await asyncio.gather(*tasks,
                                                return_exceptions=True)
                return outcomes

            outcomes = run(burst())
        shed = sum(isinstance(o, LoadShedError) for o in outcomes)
        untyped = sum(isinstance(o, Exception)
                      and not isinstance(o, (LoadShedError, TimeoutError))
                      for o in outcomes)
        assert shed > 0
        assert untyped == 0


class TestNamespaceIsolation:
    def test_concurrent_async_clients_stay_bit_isolated(
            self, routed, tiny_workload, second_workload):
        """Two namespaces hammered concurrently answer exactly what each
        namespace's direct snapshot reference answers alone."""
        svc = AsyncEstimateService(routed)
        tiny_qs = list(tiny_workload.queries)[:12]
        second_qs = list(second_workload.queries)[:12]
        refs = {"tiny": routed.estimate_on("tiny", tiny_qs, seed=17),
                "second": routed.estimate_on("second", second_qs, seed=17)}

        async def client(queries, rounds=3):
            results = None
            for _ in range(rounds):
                results = await svc.estimate_batch(queries, seed=17,
                                                   use_cache=False)
            return results

        async def scenario():
            return await asyncio.gather(client(tiny_qs),
                                        client(second_qs))

        got_tiny, got_second = run(scenario())
        assert np.array_equal(got_tiny, refs["tiny"])
        assert np.array_equal(got_second, refs["second"])


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class _DoorHarness:
    """Start a door over ``front`` inside the test's event loop."""

    def __init__(self, front, **door_kwargs):
        self.front = front
        self.door_kwargs = door_kwargs
        self.door = None
        self.client = None

    async def __aenter__(self):
        self.door = HTTPFrontDoor(AsyncEstimateService(self.front),
                                  port=0, **self.door_kwargs)
        await self.door.start()
        self.client = AsyncHTTPClient("127.0.0.1", self.door.port)
        return self

    async def __aexit__(self, *exc):
        await self.client.close()
        await self.door.stop()


class TestHTTPRoundTrips:
    def test_estimate_roundtrip(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                status, body, _ = await h.client.post(
                    "/estimate", {"sql": "a = 1 AND b <= 3"})
                return status, body

        status, body = run(scenario())
        assert status == 200
        assert body["estimate"] >= 0.0
        assert body["version"] == server.registry.version

    def test_batch_roundtrip_seeded_bits_cross_the_wire(self, server):
        sqls = ["a = 0 AND c = 1", "b >= 2", "a <= 2 AND b = 3"]

        async def scenario():
            async with _DoorHarness(server) as h:
                one = await h.client.post("/estimate_batch",
                                          {"sql": sqls, "seed": 5})
                two = await h.client.post("/estimate_batch",
                                          {"sql": sqls, "seed": 5})
                return one, two

        (s1, b1, _), (s2, b2, _) = run(scenario())
        assert s1 == s2 == 200
        assert b1["count"] == len(sqls)
        # Seeded estimates survive JSON serialization bit-exactly
        # (repr round-trip), so the wire answers are identical floats.
        assert b1["estimates"] == b2["estimates"]

    def test_feedback_roundtrip(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                return await h.client.post(
                    "/feedback", {"sql": "a = 1", "true_cardinality": 200})

        status, body, _ = run(scenario())
        assert status == 200
        assert body["ok"] is True
        assert body["qerror"] >= 1.0

    def test_status_shows_hot_swap_version(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                await h.client.post("/estimate", {"sql": "a = 1"})
                _, healthz, _ = await h.client.get("/healthz")
                status, body, _ = await h.client.get("/status")
                return healthz, status, body

        healthz, status, body = run(scenario())
        assert healthz == {"ok": True}
        assert status == 200
        assert body["front_door"]["served"] >= 1
        # Hot-swap visibility: the service payload carries the registry
        # version the estimates were answered at.
        assert str(server.registry.version) in json.dumps(body["service"])


class TestHTTPRejections:
    def test_malformed_json_is_400(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", h.door.port)
                raw = b"{not json"
                writer.write(b"POST /estimate HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: %d\r\n\r\n%s"
                             % (len(raw), raw))
                await writer.drain()
                line = await reader.readline()
                writer.close()
                return line

        assert b" 400 " in run(scenario())

    def test_non_object_body_is_400(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                return await h.client.post("/estimate", [1, 2, 3])

        status, body, _ = run(scenario())
        assert status == 400
        assert body["error"] == "ValueError"

    def test_oversized_body_is_413(self, server):
        async def scenario():
            async with _DoorHarness(server, max_body=256) as h:
                big = {"sql": "a = 1", "pad": "x" * 1024}
                return await h.client.post("/estimate", big)

        status, body, _ = run(scenario())
        assert status == 413
        assert body["error"] == "PayloadTooLarge"

    def test_missing_field_is_400(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                return await h.client.post("/estimate", {"nope": 1})

        status, body, _ = run(scenario())
        assert status == 400
        assert "sql" in body["detail"]

    def test_unknown_route_404_and_wrong_method_405(self, server):
        async def scenario():
            async with _DoorHarness(server) as h:
                a = await h.client.get("/nope")
                b = await h.client.request("GET", "/estimate")
                return a, b

        (s404, _, _), (s405, _, h405) = run(scenario())
        assert s404 == 404
        assert s405 == 405
        assert h405.get("allow") == "POST"

    def test_bad_deadline_is_400(self, server):
        # json.loads accepts the NaN / Infinity literals the client's
        # json.dumps emits: a NaN budget used to wait out the grace and
        # answer 504, an infinite one was accepted.
        async def scenario():
            async with _DoorHarness(server) as h:
                return [await h.client.post(
                    "/estimate", {"sql": "a = 1", "deadline_ms": bad})
                    for bad in (-5, 0, float("nan"), float("inf"))]

        for status, body, _ in run(scenario()):
            assert status == 400
            assert "deadline_ms" in body["detail"]

    def test_bad_feedback_number_is_400_and_never_recorded(self, tiny_uae):
        """A non-finite or negative truth / estimate is refused at the
        door: it never becomes a training label, a drift observation, a
        shadow probe or a tripwire sample."""
        nan, inf = float("nan"), float("inf")
        bodies = [{"sql": "a = 1", "true_cardinality": bad}
                  for bad in (nan, inf, -inf, -5, "many")]
        bodies += [{"sql": "a = 1", "true_cardinality": 200, "estimate": bad}
                   for bad in (nan, inf, -5)]

        async def scenario(srv):
            async with _DoorHarness(srv) as h:
                bad = [await h.client.post("/feedback", b) for b in bodies]
                # No upper bound: a truth above the table size (counted
                # over rows staged but not yet ingested) is legitimate.
                good = await h.client.post(
                    "/feedback", {"sql": "a = 1", "true_cardinality": 1e300})
                return bad, good

        with UAEServer(tiny_uae.clone(), max_batch=16, max_wait_ms=1.0,
                       seed=7, modelops=True) as srv:
            bad, good = run(scenario(srv))
            for (status, body, _), sent in zip(bad, bodies):
                assert status == 400, sent
                assert body["error"] == "ValueError"
            assert good[0] == 200
            assert [c for _, c in srv.feedback._buffer] == [1e300]
            assert srv.feedback.stats()["observed"] == 1
            assert np.isfinite(srv.feedback.stats()["drift"])
            _, truths = srv.modelops.validator.probes()
            assert list(truths) == [1e300]


class _RaisingFront:
    """Stub front whose submit raises a configured error — drives the
    exhaustive error-mapping assertions without timing games."""

    running = True

    def __init__(self, error: BaseException | None = None):
        self.error = error
        self.metrics = MetricsRegistry()

    def submit(self, query, *, namespace=None, deadline_ms=None,
               trace=None):
        if self.error is not None:
            raise self.error
        request = EstimateRequest(query, [], None, None)
        request._complete(1.0, 1)
        return request

    def estimate_batch(self, queries, *, namespace=None, seed=None,
                       use_cache=True):
        if self.error is not None:
            raise self.error
        return np.ones(len(queries))

    def observe(self, query, true_cardinality, estimate=None, *,
                namespace=None):
        if self.error is not None:
            raise self.error
        return 1.0

    def stats(self):
        return {"stub": True}


class TestErrorMappingTable:
    # One concrete instance per table entry, plus the untyped fallback.
    CASES = [
        (RequestCancelledError("gone"), 499),
        (LoadShedError("saturated"), 503),
        (WorkerUnavailableError("owner died"), 503),
        (UnknownNamespaceError("no namespace"), 404),
        (AmbiguousNamespaceError("two match"), 400),
        (SQLParseError("bad sql"), 400),
        (ValueError("bad field"), 400),
        (TypeError("bad type"), 400),
        (TimeoutError("deadline"), 504),
        (RuntimeError("untyped"), 500),
    ]

    def test_status_for_is_exhaustive_over_the_table(self):
        # Every declared mapping row is exercised by CASES...
        covered = {cls for error, _ in self.CASES
                   for cls in type(error).__mro__}
        for cls, code in ERROR_STATUS:
            if cls is json.JSONDecodeError:
                continue    # constructed only by json itself; via wire below
            assert cls in covered, f"untested mapping: {cls.__name__}"
        # ...and status_for agrees with the table on each.
        for error, code in self.CASES:
            assert status_for(error) == code, type(error).__name__

    def test_every_mapping_over_the_wire(self):
        async def scenario():
            results = []
            for error, want in self.CASES:
                async with _DoorHarness(_RaisingFront(error)) as h:
                    status, body, headers = await h.client.post(
                        "/estimate", {"sql": "a = 1"})
                    results.append((type(error).__name__, want, status,
                                    body.get("error"), headers))
            return results

        for name, want, status, error_name, headers in run(scenario()):
            assert status == want, f"{name}: {status} != {want}"
            if status != 200:
                assert error_name == name
            if status == 503:
                assert "retry-after" in headers

    def test_shed_503_carries_retry_after(self):
        async def scenario():
            async with _DoorHarness(
                    _RaisingFront(LoadShedError("full"))) as h:
                return await h.client.post("/estimate", {"sql": "a = 1"})

        status, body, headers = run(scenario())
        assert status == 503
        assert float(headers["retry-after"]) > 0


class TestAdmissionControl:
    def test_deadlined_requests_shed_when_window_full(self, tiny_uae):
        """max_inflight=1 + a gated compute: the second deadlined
        request is shed typed (503 semantics) before touching the
        service; a deadline-free request waits instead."""
        with UAEServer(tiny_uae, max_batch=4, max_wait_ms=1.0,
                       seed=7) as srv:
            gate = threading.Event()
            entered = threading.Event()
            orig = srv.service._compute

            def gated(snap, constraint_lists, seed=None):
                entered.set()
                assert gate.wait(timeout=10.0)
                return orig(snap, constraint_lists, seed)

            srv.service._compute = gated

            async def scenario():
                async with _DoorHarness(srv, max_inflight=1) as h:
                    blocker = asyncio.ensure_future(h.client.post(
                        "/estimate", {"sql": "a = 1 AND b = 1",
                                      "deadline_ms": 5000}))
                    await asyncio.get_running_loop().run_in_executor(
                        None, entered.wait, 10.0)
                    c2 = AsyncHTTPClient("127.0.0.1", h.door.port)
                    shed_status, shed_body, shed_headers = await c2.post(
                        "/estimate", {"sql": "a = 2 AND b = 2",
                                      "deadline_ms": 5000})
                    # A deadline-free request blocks for the window
                    # instead of shedding.
                    waiter = asyncio.ensure_future(c2.post(
                        "/estimate", {"sql": "a = 3 AND b = 3"}))
                    await asyncio.sleep(0.05)
                    assert not waiter.done()
                    gate.set()
                    ok_status, _, _ = await blocker
                    wait_status, _, _ = await waiter
                    await c2.close()
                    sheds = h.door.sheds
                    return (shed_status, shed_body, shed_headers,
                            ok_status, wait_status, sheds)

            (shed_status, shed_body, shed_headers, ok_status,
             wait_status, sheds) = run(scenario())
        assert shed_status == 503
        assert shed_body["error"] == "LoadShedError"
        assert "retry-after" in shed_headers
        assert ok_status == 200
        assert wait_status == 200
        assert sheds == 1


class TestDisconnectAbandonment:
    def test_client_disconnect_cancels_inflight_work(self, tiny_uae):
        """Closing the socket mid-request translates into query
        abandonment: the service counts a cancellation, and the engine
        never runs (or its answer is discarded) for the dead client."""
        with UAEServer(tiny_uae, max_batch=4, max_wait_ms=1.0,
                       seed=7) as srv:
            gate = threading.Event()
            entered = threading.Event()
            orig = srv.service._compute

            def gated(snap, constraint_lists, seed=None):
                entered.set()
                assert gate.wait(timeout=10.0)
                return orig(snap, constraint_lists, seed)

            srv.service._compute = gated

            async def scenario():
                async with _DoorHarness(srv) as h:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", h.door.port)
                    raw = b'{"sql": "a = 1 AND c = 1"}'
                    writer.write(b"POST /estimate HTTP/1.1\r\nHost: t\r\n"
                                 b"Content-Length: %d\r\n\r\n%s"
                                 % (len(raw), raw))
                    await writer.drain()
                    await asyncio.get_running_loop().run_in_executor(
                        None, entered.wait, 10.0)
                    writer.close()          # client walks away
                    await writer.wait_closed()
                    deadline = time.perf_counter() + 5.0
                    while h.door.disconnects < 1:
                        assert time.perf_counter() < deadline
                        await asyncio.sleep(0.01)
                    gate.set()
                    deadline = time.perf_counter() + 5.0
                    while srv.service.stats()["cancellations"] < 1:
                        assert time.perf_counter() < deadline
                        await asyncio.sleep(0.01)
                    return h.door.disconnects

            disconnects = run(scenario())
        assert disconnects == 1
