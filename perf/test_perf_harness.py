"""Tests of the benchmark's own machinery: no sockets, no servers, a few
seconds.  (The end-to-end smoke, which needs both, is in
``test_perf_smoke.py`` and is deselected from tier-1 by its markers.)
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.data import load  # noqa: E402
from repro.workload.executor import true_cardinality  # noqa: E402
from repro.workload.predicate import Predicate, Query  # noqa: E402
from repro.workload.sqlparse import parse_query  # noqa: E402


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def _request_bytes(plan: dict) -> list:
    stream = workloads.Labelled.from_json(plan["stream"])
    frames = [workloads.estimate_payload(sql) for sql in stream.sql]
    order = plan.get("order")
    return frames if order is None else [frames[i] for i in order]


@pytest.mark.parametrize("workload", ["unique", "hot", "batch"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    kw = dict(seconds=0.2, use_cache=False)
    a = _request_bytes(workloads.build_plan(workload, 11, **kw))
    b = _request_bytes(workloads.build_plan(workload, 11, **kw))
    c = _request_bytes(workloads.build_plan(workload, 12, **kw))
    assert workloads.digest(a) == workloads.digest(b)
    assert a == b
    assert workloads.digest(a) != workloads.digest(c)


def test_cluster_shares_uniques_stream():
    kw = dict(seconds=0.2, use_cache=False)
    assert workloads.build_plan("cluster", 5, **kw) \
        == workloads.build_plan("unique", 5, **kw)


def test_plan_cache_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CACHE_DIR", str(tmp_path))
    first = workloads.build_plan("hot", 3, 0.5)
    assert len(os.listdir(tmp_path)) == 1
    assert workloads.build_plan("hot", 3, 0.5) == first
    workloads.build_plan("hot", 4, 0.5)
    assert len(os.listdir(tmp_path)) == 2


def test_generated_truths_match_the_library_executor():
    table = load("dmv", rows=2000)
    sampler = workloads.TableSampler("dmv", table.columns, table.codes)
    stream = sampler.labelled(60, np.random.default_rng(0))
    workloads.check_roundtrip(stream)
    for sql, truth in zip(stream.sql, stream.truth):
        assert true_cardinality(table, parse_query(sql)) == truth > 0


def test_stream_never_repeats_a_constraint_set():
    # toy's domains are tiny: without de-duplication `c > 0` and
    # `c >= 1` would both appear and share one result-cache entry
    table = load("toy", rows=800)
    sampler = workloads.TableSampler("toy", table.columns, table.codes)
    stream = sampler.labelled(400, np.random.default_rng(1))
    seen = set()
    for sql in stream.sql:
        masks = parse_query(sql).masks(table)
        key = tuple((i, m.tobytes()) for i, m in sorted(masks.items())
                    if not m.all())
        assert key not in seen
        seen.add(key)


def test_render_sql_round_trips_every_literal_kind():
    preds = [("county", ">=", np.int32(992)), ("color", "=", np.str_("BK")),
             ("name", "!=", "O'Brien"), ("year", "IN", (3, np.int64(5))),
             ("ratio", "<", 0.25)]
    sql = workloads.render_sql("dmv", preds)
    assert "np." not in sql
    want = Query(tuple(Predicate(c, o, v) for c, o, v in [
        ("county", ">=", 992), ("color", "=", "BK"),
        ("name", "!=", "O'Brien"), ("year", "IN", (3, 5)),
        ("ratio", "<", 0.25)]))
    assert parse_query(sql) == want


def test_str_query_does_not_round_trip_under_numpy2():
    """The defect `render_sql` works around (follow-up for `src/`)."""
    query = Query((Predicate("county", ">=", np.int32(992)),))
    if "np." not in str(query):
        pytest.skip("this NumPy prints scalars bare")
    with pytest.raises(ValueError):
        parse_query(str(query))


def test_zipf_pool_and_hit_share_arithmetic():
    rng = np.random.default_rng(0)
    idx = workloads.zipf_indices(64, 20_000, 1.3, rng)
    assert idx.min() >= 0 and idx.max() < 64
    counts = np.sort(np.bincount(idx, minlength=64))[::-1]
    weights = 1.0 / np.arange(1, 65) ** 1.3
    assert abs(counts[0] / 20_000 - weights[0] / weights.sum()) < 0.02
    # a cache that starts empty misses once per distinct key: even
    # without the pool-once warm-up the guard's 0.95 is reachable
    assert 1 - len(set(idx.tolist())) / len(idx) > 0.99
    # which query is the popular one depends on the seed
    other = workloads.zipf_indices(64, 20_000, 1.3,
                                   np.random.default_rng(1))
    assert np.bincount(idx).argmax() != np.bincount(other).argmax()


def test_batch_rotation_keeps_the_median_inside_one_cost_class():
    rotation = spec.BATCH_ROTATION
    assert set(rotation) == set(spec.NAMESPACES)
    share = {n: rotation.count(n) / len(rotation) for n in spec.NAMESPACES}
    # cheapest to dearest, as measured: toy, dmv, census, kddcup
    cumulative = np.cumsum([share[n] for n in
                            ("toy", "dmv", "census", "kddcup")])
    assert all(abs(c - 0.5) > 0.05 for c in cumulative)


# ----------------------------------------------------------------------
# Maths
# ----------------------------------------------------------------------
def test_percentile_matches_numpy_and_hand_values():
    data = [5.0, 1.0, 9.0, 3.0, 7.0]
    assert stats.percentile(data, 50) == 5.0
    assert stats.percentile(data, 0) == 1.0
    assert stats.percentile(data, 100) == 9.0
    assert stats.percentile(data, 25) == 3.0
    assert stats.percentile([1.0, 2.0], 95) == pytest.approx(1.95)
    rng = np.random.default_rng(0)
    values = rng.random(101).tolist()
    for q in (5, 50, 95, 99):
        assert stats.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_qerror_is_symmetric_and_floored():
    assert stats.qerror(10, 5) == stats.qerror(5, 10) == 2.0
    assert stats.qerror(0.0, 1) == 1.0        # both floored at one row
    assert stats.qerror(0.2, 4) == 4.0


def test_span_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    #               id  name      start end  parent rid  n  tag
    tracer.spans = [(1, "net", 0.0, 10.0, None, "r1", 1, None),
                    (2, "service", 1.0, 9.0, 1, "r1", 1, None),
                    (3, "engine", 2.0, 5.0, 2, None, 4, "dmv"),
                    (4, "engine", 5.0, 8.0, 2, None, 2, "toy"),
                    (5, "net", 20.0, 21.0, None, "r2", 1, None)]
    agg = tracer.report()["aggregates"]
    assert agg["net"] == {"calls": 2, "n": 2, "total_s": 11.0,
                          "self_s": 3.0}
    assert agg["service"] == {"calls": 1, "n": 1, "total_s": 8.0,
                              "self_s": 2.0}
    assert agg["engine"] == {"calls": 2, "n": 6, "total_s": 6.0,
                             "self_s": 6.0}
    assert agg["engine@dmv"]["n"] == 4 and agg["engine@toy"]["n"] == 2


def test_tracer_nests_spans_per_thread_and_reports_self_time(tmp_path):
    tracer = tracing.Tracer()

    class Layer:
        def outer(self, items):
            return [self.inner(i) for i in items]

        def inner(self, item):
            return item * 2

    tracer.wrap(Layer, "outer", "layer.outer",
                n_of=lambda args, kwargs: len(args[1]))
    tracer.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer([1, 2]) == [2, 4] and tracer.spans == []
    tracer.enabled = True
    assert Layer().outer([1, 2, 3]) == [2, 4, 6]
    path = tmp_path / "trace.jsonl"
    report = tracer.report(str(path))
    agg = report["aggregates"]
    assert report["spans"] == 4
    assert agg["layer.outer"]["calls"] == 1 and agg["layer.outer"]["n"] == 3
    assert agg["layer.inner"]["calls"] == 3
    outer = agg["layer.outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - agg["layer.inner"]["total_s"])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    parents = {row["id"]: row["parent"] for row in rows}
    outer_id = next(r["id"] for r in rows if r["name"] == "layer.outer")
    assert [parents[r["id"]] for r in rows
            if r["name"] == "layer.inner"] == [outer_id] * 3


def test_scrape_delta_sums_over_series_and_workers():
    before = stats.parse_metrics(
        '# HELP x\n'
        'repro_http_request_seconds_sum{route="/estimate"} 1.0\n'
        'repro_http_request_seconds_count{route="/estimate"} 10\n'
        'repro_engine_queries_total{worker="w0"} 5\n')
    after = stats.parse_metrics(
        'repro_http_request_seconds_sum{route="/estimate"} 1.5\n'
        'repro_http_request_seconds_count{route="/estimate"} 110\n'
        'repro_http_request_seconds_count{route="/status"} 3\n'
        'repro_engine_queries_total{worker="w0"} 25\n'
        'repro_engine_queries_total{worker="w1"} 7\n')
    scrape = stats.Scrape(before, after)
    assert scrape.mean_ms("repro_http_request_seconds",
                          route="/estimate") == pytest.approx(5.0)
    assert scrape.total("repro_engine_queries_total") == 27
    assert scrape.total("repro_engine_queries_total", worker="w1") == 7
    assert scrape.mean_ms("repro_missing") == 0.0


def _window(started: float, per_second: list) -> "run.Outcome":
    """A measured window with ``(answers, latency)`` per one-second
    slice, spread evenly inside it."""
    out = run.Outcome()
    out.started, out.wall = started, float(len(per_second))
    for second, (n, lat) in enumerate(per_second):
        for i in range(n):
            out.ends.append(started + second + (i + 0.5) / n)
            out.latencies.append(lat)
            out.credit.append(1)
    out.answered = sum(out.credit)
    return out


def test_steady_reports_the_median_slice_not_the_mean():
    # four quiet one-second slices of 10 answers at 1 ms, one slice hit
    # by interference: 2 answers at 400 ms
    quiet, hit = (10, 0.001), (2, 0.4)
    out = _window(100.0, [quiet, quiet, hit, quiet, quiet])
    sliced = run.steady([(out, None)], 1.0)
    assert sliced["qps"] == 10.0
    assert sliced["p95"] == pytest.approx(1.0)
    assert out.answered / out.wall == pytest.approx(8.4)
    # slices the hypervisor stole CPU from are left out while three
    # others remain ...
    stolen = lambda start, end: 0.2 if start < 103.0 else 0.0  # noqa: E731
    assert run.steady([(out, stolen)], 1.0)["clean"] == 2
    assert run.steady([(out, stolen)], 1.0)["qps"] == 10.0
    stolen = lambda start, end: 0.2 if start == 102.0 else 0.0  # noqa: E731
    assert run.steady([(out, stolen)], 1.0)["clean"] == 4
    # ... and with too few slices it is the whole window
    out.wall = 2.5
    assert run.steady([(out, None)], 1.0)["qps"] == pytest.approx(42 / 2.5)
    assert run.steady([(out, None)], None)["qps"] == pytest.approx(42 / 2.5)


def test_steady_pools_the_slices_of_every_round():
    # two server lifetimes, each too short to have a median of its own
    slow, fast = (4, 0.004), (10, 0.001)
    first = _window(100.0, [fast, slow])
    second = _window(500.0, [fast, fast])
    sliced = run.steady([(first, None), (second, None)], 1.0)
    assert (sliced["slices"], sliced["qps"]) == (4, 10.0)
    assert sliced["p50"] == pytest.approx(1.0)
    # taken whole: all answers over all measured seconds
    whole = run.steady([(first, None), (second, None)], None)
    assert whole["qps"] == pytest.approx(34 / 4.0)


def test_closed_loop_response_framing():
    head = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"
    assert loadgen._response(head[:20]) is None
    assert loadgen._response(head + b"he") is None
    assert loadgen._response(head + b"hello" + head) \
        == (200, b"hello", len(head) + 5)
    assert loadgen._response(b"HTTP/1.1 404 Not Found\r\n\r\n") \
        == (404, b"", 26)


def test_steal_sampler_share_between_samples():
    sampler = stats.StealSampler()
    sampler.samples = [(0.0, 100, 1000), (1.0, 100, 1200), (2.0, 120, 1400),
                       (3.0, 120, 1600)]
    assert sampler.share(0.0, 1.0) == 0.0
    assert sampler.share(0.5, 2.0) == pytest.approx(0.1)
    assert sampler.share(0.0, 9.0) == pytest.approx(20 / 600)
    steal, total = stats.StealSampler.read()
    assert 0 <= steal <= total


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the harness
# ----------------------------------------------------------------------
def test_benchmark_json_names_exactly_what_the_harness_emits():
    bench = run.benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert "setup_s" in dict(run.END_TO_END)
    out = run.Outcome()
    out.wall, out.latencies, out.requests = 1.0, [0.001], 1
    for workload in spec.WORKLOADS:
        emitted = run.layer_metrics(workload, out, stats.Scrape({}, {}), {},
                                    None)
        assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
            == [(name, unit) for name, (_v, unit) in emitted.items()]
    assert bench["paths"] == ["perf"]
    assert bench["command"] == ["python3", "perf/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_contract_line_switches_metric_family_on_trace():
    result = {"correct": True, "attempted": 3, "failed": 0,
              "end_to_end": {"setup_s": {"value": 1.5, "unit": "s"}},
              "per_layer": {"load.gen_s": {"value": 0.5, "unit": "s"}}}
    line = json.loads(run.contract_line(dict(result, trace=0)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == ["setup_s"]
    line = json.loads(run.contract_line(dict(result, trace=1)))
    assert list(line["metrics"]) == ["load.gen_s"]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _record(values_by_metric: dict, digest="d", sha="s") -> dict:
    n = len(next(iter(values_by_metric.values())))
    return {"benchmark_sha256": sha, "runs": [
        {"workload": "unique", "seed": 1, "trace": 0, "digest": digest,
         "end_to_end": {m: {"value": v[i], "unit": "x"}
                        for m, v in values_by_metric.items()}}
        for i in range(n)]}


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, 0.1, "lower") == "same"
    assert compare.verdict(base, [v * 1.05 for v in base], 0.1,
                           "lower") == "same"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1,
                           "lower") == "worse"
    assert compare.verdict(base, [v * 0.9 for v in base], 0.1,
                           "lower") == "better"
    assert compare.verdict(base, [v * 0.9 for v in base], 0.1,
                           "higher") == "same"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1,
                           "higher") == "better"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    # spread wider than the bound, but every run of B beats every run of A
    assert compare.verdict(noisy, [10.0, 30.0, 20.0, 15.0, 25.0], 0.1,
                           "lower") == "better"
    assert compare.verdict(noisy, [400.0, 300.0, 500.0], 0.1,
                           "lower") == "worse"


def test_compare_refuses_mismatched_inputs():
    bounds = {"lat_p50_ms": (0.1, "lower")}
    a = _record({"lat_p50_ms": [1.0, 1.01, 0.99]})
    rows = compare.compare(a, a, bounds)
    assert [(r[0], r[1], r[5]) for r in rows] \
        == [("unique", "lat_p50_ms", "same")]
    with pytest.raises(ValueError, match="request bytes"):
        compare.compare(a, _record({"lat_p50_ms": [1.0]}, digest="e"),
                        bounds)
    with pytest.raises(ValueError, match="BENCHMARK.json"):
        compare.compare(a, _record({"lat_p50_ms": [1.0]}, sha="t"), bounds)
