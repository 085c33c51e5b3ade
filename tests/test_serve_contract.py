"""Front-contract conformance: the same keyword calls against the three
serving fronts on the same tiny table.

``UAEServer``, ``RoutedEstimateService`` and ``ClusterEstimateService``
are interchangeable behind the async/HTTP door and the planner's
sub-plan provider only because they answer one contract (README "Front
contract").  Each test below runs once per front; the cluster case
spawns a worker process and is ``multiproc``-marked (deselected from
tier-1, run by the CI scale-out step).
"""

import contextlib
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry, Trace
from repro.serve import (HAVE_SHARED_MEMORY, ClusterEstimateService,
                         RoutedEstimateService, UAEServer,
                         UnknownNamespaceError)
from repro.workload import Predicate, Query

FRONTS = ["server", "routed",
          pytest.param("cluster", marks=[
              pytest.mark.multiproc,
              pytest.mark.skipif(not HAVE_SHARED_MEMORY,
                                 reason="no multiprocessing.shared_memory")])]


@pytest.fixture(params=FRONTS)
def front(request, tiny_uae):
    if request.param == "server":
        built = UAEServer(tiny_uae.clone(), namespace="tiny",
                          max_wait_ms=1.0, seed=7)
    elif request.param == "routed":
        built = RoutedEstimateService(max_wait_ms=1.0, seed=7)
        built.add_table(tiny_uae.clone())
    else:
        built = ClusterEstimateService(workers=1, seed=7)
        built.add_table(tiny_uae.clone())
    built.start()
    try:
        yield built
    finally:
        built.stop()


@pytest.fixture(scope="module")
def reference(tiny_uae, tiny_workload):
    """Seed-5 answers of the bare engine path, no front in between."""
    server = UAEServer(tiny_uae.clone())
    return server.service.estimate_on(
        server.registry.active(), list(tiny_workload.queries), seed=5)


def test_identical_keyword_calls_are_accepted(front, tiny_workload):
    queries = list(tiny_workload.queries)
    space = front.resolve(queries[0], namespace="tiny")
    assert (space.name, space.version) == ("tiny", 1)
    assert front.resolve(queries[0]).name == "tiny"
    request = front.submit(queries[0], namespace="tiny",
                           deadline_ms=30_000.0, trace=Trace("contract"))
    assert request.result(timeout=30.0) >= 0.0
    assert front.submit(queries[1]).result(timeout=30.0) >= 0.0
    out = front.estimate_batch(queries[:5], namespace="tiny", seed=3,
                               use_cache=False)
    assert out.shape == (5,) and out.dtype == np.float64
    assert front.estimate_batch([]).shape == (0,)
    if isinstance(front, ClusterEstimateService):
        # Workers keep no feedback monitor: a typed refusal (HTTP 400).
        with pytest.raises(TypeError):
            front.observe(queries[0], 10.0, estimate=20.0, namespace="tiny")
    else:
        assert front.observe(queries[0], 10.0, estimate=20.0,
                             namespace="tiny") == pytest.approx(2.0)
    assert isinstance(front.metrics, MetricsRegistry)
    assert isinstance(front.stats(), dict)
    assert front.running is True


def test_unknown_namespace_is_typed_everywhere(front, tiny_workload):
    query = tiny_workload.queries[0]
    with pytest.raises(UnknownNamespaceError):
        front.resolve(query, namespace="ghost")
    with pytest.raises(UnknownNamespaceError):
        front.submit(query, namespace="ghost")
    with pytest.raises(UnknownNamespaceError):
        front.estimate_batch([query], namespace="ghost", seed=1)
    if not isinstance(front, ClusterEstimateService):
        with pytest.raises(UnknownNamespaceError):
            front.observe(query, 10.0, estimate=20.0, namespace="ghost")


def test_settled_handle_exposes_the_same_surface(front, tiny_workload):
    query = tiny_workload.queries[2]
    request = front.submit(query)
    value = request.result(timeout=30.0)
    assert isinstance(value, float) and value >= 0.0
    assert request.done() and request.exception() is None
    assert request.version == front.resolve(query).version
    assert request.from_cache is False
    assert request.latency() > 0.0
    assert not request.cancel()             # already settled: first wins
    again = front.submit(query)
    again.result(timeout=30.0)
    # Only the in-process fronts keep a result cache.
    assert again.from_cache is not isinstance(front, ClusterEstimateService)


def test_seeded_batch_is_bit_identical_across_fronts(front, tiny_workload,
                                                     reference):
    queries = list(tiny_workload.queries)
    got = front.estimate_batch(queries, seed=5)
    assert np.array_equal(got, reference)
    assert np.array_equal(front.estimate_batch(queries, seed=5), got)


@contextlib.contextmanager
def gated_shut(front):
    """Hold the front's compute shut: the in-process fronts' engine call
    waits on an event, a cluster's worker processes are SIGSTOPped."""
    if isinstance(front, ClusterEstimateService):
        pids = [handle.process.pid for handle in front._handles.values()]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            yield
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGCONT)
        return
    service = front.resolve(None, namespace="tiny").service
    gate = threading.Event()
    orig = service._compute

    def gated(snap, constraint_lists, seed=None):
        assert gate.wait(timeout=30.0)
        return orig(snap, constraint_lists, seed)

    service._compute = gated
    try:
        yield
    finally:
        gate.set()
        service._compute = orig


def test_submit_returns_a_handle_without_blocking(front):
    """The clause the event loop relies on: with the engine gated shut
    (and, on the cluster, more submits than the worker window holds)
    every ``submit`` still comes straight back with a handle."""
    queries = [Query((Predicate("a", "=", i % 4), Predicate("b", ">=", i % 5),
                      Predicate("c", "<=", i % 3))) for i in range(8)]
    took = []
    with gated_shut(front):
        handles = []
        for query in queries:
            t0 = time.perf_counter()
            handles.append(front.submit(query))
            took.append(time.perf_counter() - t0)
        time.sleep(0.05)
        assert not any(handle.done() for handle in handles)
    assert max(took) < 0.05
    assert all(h.result(timeout=30.0) >= 0.0 for h in handles)
    # Only a full cluster window defers placement to the front's thread.
    want = 4 if isinstance(front, ClusterEstimateService) else 0
    assert sum(handle.deferred for handle in handles) == want
