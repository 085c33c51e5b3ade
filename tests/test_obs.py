"""Unit suite for the observability layer (repro.obs).

Pins the contracts the serving stack leans on:

* histogram percentile estimates stay within one bucket's width of
  numpy's exact percentiles (the fixed log layout is ~33% per step, so
  relative error is bounded by that factor);
* counters are race-free under thread contention;
* snapshot merge is associative and order-independent — the property
  that makes the cluster's worker-merge well-defined;
* spans nest correctly and trace dumps round-trip through JSON;
* the registry renders valid Prometheus text exposition (0.0.4);
* the event log keeps a bounded ring and an optional JSON-lines sink.

The HTTP round-trip check (a /metrics scrape must reflect a request
served moments earlier) lives at the bottom, ``net``-marked like the
rest of the front-door suites.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.obs import (DEFAULT_BUCKETS, EventLog, MetricsRegistry, Span,
                       Trace, TraceRecorder, log_buckets,
                       percentile_from_counts)

# Geometric spacing of the default layout: each bound is 10^(1/8) ~ 1.334
# above the previous, so a percentile read from bucket edges can be off
# by at most that factor (plus the min/max clamp tightening the ends).
_BUCKET_FACTOR = 10.0 ** (1.0 / 8.0)


# ----------------------------------------------------------------------
# Histogram bucket math
# ----------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_fixed_layout_is_stable(self):
        # The layout must be bit-identical everywhere (merge contract).
        assert DEFAULT_BUCKETS == log_buckets(1e-4, 100.0, per_decade=8)
        assert DEFAULT_BUCKETS[0] == 1e-4
        assert DEFAULT_BUCKETS[-1] >= 100.0
        assert all(b2 > b1 for b1, b2 in
                   zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))

    @pytest.mark.parametrize("q", [0.50, 0.95, 0.99])
    def test_percentiles_match_numpy_within_bucket_width(self, q):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-5.0, sigma=1.0, size=4000)
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "test")
        for s in samples:
            hist.observe(s)
        est = hist.labels().percentile(q)
        exact = float(np.percentile(samples, q * 100.0))
        assert exact / _BUCKET_FACTOR <= est <= exact * _BUCKET_FACTOR, \
            f"q={q}: est {est} vs exact {exact}"

    def test_overflow_bucket_clamps(self):
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        counts[-1] = 10                     # everything in +Inf overflow
        est = percentile_from_counts(DEFAULT_BUCKETS, counts, 0.99)
        assert est == DEFAULT_BUCKETS[-1]

    def test_empty_histogram_is_nan(self):
        assert np.isnan(percentile_from_counts(DEFAULT_BUCKETS,
                                               [0] * 50, 0.5))

    def test_min_max_clamp_tightens_single_observation(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", "test")
        hist.observe(0.0123)
        # With one sample the clamp collapses every quantile onto it.
        assert hist.labels().percentile(0.5) == pytest.approx(0.0123)
        assert hist.labels().percentile(0.99) == pytest.approx(0.0123)


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestCounterRace:
    def test_concurrent_increments_all_land(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits_total", "test")
        hist = reg.histogram("lat", "test")
        n_threads, per_thread = 8, 2000

        def work():
            for i in range(per_thread):
                counter.inc()
                hist.observe(1e-3 * (1 + i % 7))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread
        child = hist.labels()
        assert child.count == n_threads * per_thread
        assert sum(child.counts) == n_threads * per_thread

    def test_labeled_children_race_free(self):
        reg = MetricsRegistry()
        fam = reg.counter("by_ns_total", "test", labels=("ns",))

        def work(ns):
            for _ in range(1000):
                fam.labels(ns=ns).inc()

        threads = [threading.Thread(target=work, args=(f"ns{i % 3}",))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert fam.total() == 6000
        assert fam.labels(ns="ns0").value == 2000

    def test_registry_total_sums_matching_series(self):
        reg = MetricsRegistry()
        fam = reg.counter("jobs_total", "t", labels=("ns", "outcome"))
        fam.labels(ns="a", outcome="ok").inc(3)
        fam.labels(ns="a", outcome="error").inc(1)
        fam.labels(ns="b", outcome="ok").inc(5)
        reg.counter("flushes_total", "t").inc(2)
        assert reg.total("jobs_total") == 9.0                # no labels
        assert reg.total("jobs_total", ns="a") == 4.0        # subset
        assert reg.total("jobs_total", outcome="ok") == 8.0
        assert reg.total("jobs_total", ns="b", outcome="error") == 0.0
        assert reg.total("jobs_total", worker="w0") == 0.0   # not a label
        assert reg.total("flushes_total") == 2.0             # unlabeled
        missing = reg.total("never_registered_total", ns="a")
        assert missing == 0.0 and isinstance(missing, float)
        assert reg.get_family("never_registered_total") is None


# ----------------------------------------------------------------------
# Snapshot merge
# ----------------------------------------------------------------------
def _make_registry(seed: int) -> MetricsRegistry:
    rng = np.random.default_rng(seed)
    reg = MetricsRegistry()
    served = reg.counter("served_total", "t", labels=("namespace",))
    lat = reg.histogram("lat_seconds", "t", labels=("namespace",))
    for ns in ("a", "b"):
        served.labels(namespace=ns).inc(int(rng.integers(1, 50)))
        for s in rng.lognormal(-5, 1, size=64):
            lat.labels(namespace=ns).observe(float(s))
    return reg


class TestMerge:
    def test_merge_is_associative_and_order_independent(self):
        r1, r2, r3 = (_make_registry(s) for s in (1, 2, 3))
        pairs = [(r.snapshot(), None) for r in (r1, r2, r3)]
        forward = MetricsRegistry.merged(pairs).render()
        backward = MetricsRegistry.merged(pairs[::-1]).render()
        assert forward == backward

    def test_merge_adds_counts_exactly(self):
        r1, r2 = _make_registry(4), _make_registry(5)
        merged = MetricsRegistry.merged([(r1.snapshot(), None),
                                         (r2.snapshot(), None)])
        total = merged.get_family("served_total").total()
        assert total == (r1.get_family("served_total").total()
                         + r2.get_family("served_total").total())

    def test_extra_labels_namespace_workers(self):
        r1, r2 = _make_registry(6), _make_registry(7)
        merged = MetricsRegistry.merged([
            (r1.snapshot(), {"worker": "w0"}),
            (r2.snapshot(), {"worker": "w1"}),
        ])
        series = merged.get_family("served_total").series()
        workers = {labels["worker"] for labels, _ in series}
        assert workers == {"w0", "w1"}
        # Same-name families with and without the extra label can merge:
        # missing keys are normalized to "".
        both = MetricsRegistry.merged([
            (r1.snapshot(), None),
            (r2.snapshot(), {"worker": "w1"}),
        ])
        workers = {labels["worker"]
                   for labels, _ in both.get_family("served_total").series()}
        assert workers == {"", "w1"}

    def test_merged_histogram_percentile_spans_sources(self):
        rng = np.random.default_rng(11)
        fast, slow = MetricsRegistry(), MetricsRegistry()
        for s in rng.lognormal(-6, 0.3, size=500):
            fast.histogram("lat", "t").observe(float(s))
        for s in rng.lognormal(-3, 0.3, size=500):
            slow.histogram("lat", "t").observe(float(s))
        merged = MetricsRegistry.merged([(fast.snapshot(), None),
                                         (slow.snapshot(), None)])
        p50 = merged.get_family("lat").labels().percentile(0.50)
        p99 = merged.get_family("lat").labels().percentile(0.99)
        # The median straddles the two modes; the tail is the slow one.
        assert p50 > fast.get_family("lat").labels().percentile(0.99)
        assert p99 > p50
        assert p99 == pytest.approx(
            slow.get_family("lat").labels().percentile(0.98), rel=0.5)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRender:
    def test_prometheus_text_shape(self):
        reg = _make_registry(8)
        reg.gauge("depth", "queue depth").set(3)
        text = reg.render()
        assert "# TYPE served_total counter" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'served_total{namespace="a"}' in text
        assert 'le="+Inf"' in text
        assert "lat_seconds_sum{" in text
        assert "lat_seconds_count{" in text
        assert "depth 3" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", "t", labels=("err",)) \
            .labels(err='bad "quote"\nnewline\\slash').inc()
        text = reg.render()
        assert '\\"quote\\"' in text
        assert "\\n" in text


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_span_parent_child_invariants(self):
        trace = Trace("request")
        with trace.span("outer") as outer:
            with trace.span("inner", parent=outer) as inner:
                pass
        trace.finish(status=200)
        assert inner.parent is outer
        # Child nests inside the parent's window; both inside the trace.
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert trace.started <= outer.start
        assert trace.ended >= outer.end
        assert trace.duration >= outer.duration >= inner.duration >= 0.0

    def test_add_span_from_existing_timestamps(self):
        trace = Trace("request")
        span = trace.add_span("queue_wait", 10.0, 10.5, batch=4)
        assert span.duration == pytest.approx(0.5)
        d = trace.to_dict()
        assert d["spans"][0]["name"] == "queue_wait"
        assert d["spans"][0]["attrs"] == {"batch": 4}
        json.dumps(d)                       # JSON-serializable end to end

    def test_span_to_dict_parent_named(self):
        parent = Span("flush", 0.0, 1.0)
        child = Span("compute", 0.2, 0.8, parent=parent)
        assert child.to_dict(0.0)["parent"] == "flush"

    def test_recorder_rings_and_slow_threshold(self):
        rec = TraceRecorder(capacity=4, slow_capacity=2,
                            slow_threshold_s=1.0)
        for i in range(6):
            t = Trace(f"t{i}")
            t.ended = t.started + (2.0 if i % 3 == 0 else 0.01)
            rec.record(t)
        assert rec.recorded == 6
        assert len(rec.recent()) == 4       # bounded
        assert all(t.duration >= 1.0 for t in rec.slow())
        dump = rec.to_dict()
        assert dump["recorded"] == 6
        json.dumps(dump)


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_ring_bounded_and_filterable(self):
        log = EventLog(capacity=8)
        for i in range(20):
            log.emit("swap_publish" if i % 2 else "shed", i=i)
        assert len(log.recent()) == 8
        swaps = log.recent(event="swap_publish")
        assert swaps and all(e["event"] == "swap_publish" for e in swaps)
        assert log.counts()["swap_publish"] >= 1

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=8, path=str(path))
        log.emit("rollback", namespace="tiny", version=2)
        log.close()
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert lines[-1]["event"] == "rollback"
        assert lines[-1]["namespace"] == "tiny"


# ----------------------------------------------------------------------
# HTTP round-trip: a scrape reflects a request served moments earlier
# ----------------------------------------------------------------------
@pytest.mark.net
class TestMetricsOverHTTP:
    def test_metrics_roundtrip_counts_just_served_request(self, tiny_front):
        from repro.serve import (AsyncEstimateService, AsyncHTTPClient,
                                 HTTPFrontDoor)
        from repro.workload import Predicate, Query

        async def scenario(front):
            door = HTTPFrontDoor(AsyncEstimateService(front), port=0)
            await door.start()
            client = AsyncHTTPClient(door.host, door.port)
            try:
                status, body, _ = await client.post(
                    "/estimate", {"sql": "a = 1 AND b >= 2"})
                assert status == 200 and "trace_id" in body
                # The request settles (client unblocks) a whisker before
                # the flush loop finishes its accounting; scrape until
                # the counter lands (micro-seconds, bounded generously).
                for _ in range(50):
                    status, text, headers = await client.get("/metrics")
                    assert status == 200
                    assert "text/plain" in headers["content-type"]
                    if 'repro_serve_served_total{namespace="tiny"} 0' \
                            not in text:
                        break
                    await asyncio.sleep(0.01)
                status, dump, _ = await client.get("/debug/traces")
                assert status == 200
                return text, dump
            finally:
                await client.close()
                await door.stop()

        with tiny_front(max_batch=8) as front:
            text, dump = asyncio.run(scenario(front))

        # The estimate served just before the scrape must be visible.
        served = [line for line in text.splitlines()
                  if line.startswith("repro_serve_served_total")]
        assert served and any(
            float(line.rsplit(" ", 1)[1]) >= 1 for line in served)
        for family in ("repro_http_requests_total",
                       "repro_http_responses_total",
                       "repro_serve_latency_seconds_bucket",
                       "repro_serve_stage_seconds_bucket",
                       "repro_http_request_seconds_bucket",
                       "repro_http_inflight"):
            assert family in text, family
        # No submit had to leave the event loop, and the 0 is exported.
        offloop = [line for line in text.splitlines()
                   if line.startswith("repro_async_offloop_submits_total")]
        assert [float(line.rsplit(" ", 1)[1]) for line in offloop] == [0.0]
        # And its trace, with the full span chain across layers.
        assert dump["recorded"] >= 1
        spans = {s["name"] for t in dump["recent"] for s in t["spans"]}
        assert {"admission", "queue_wait", "compute"} <= spans
