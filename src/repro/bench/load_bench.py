"""Open-loop load benchmark over the asyncio HTTP front door.

Closed-loop drivers (every other serving bench here) hide saturation:
when the server slows down, the driver slows down with it and the
measured latency stays flat.  Production load is **open-loop** — users
arrive when they arrive — so this bench measures the system the way an
SLO would:

1. **calibrate** — a short concurrent closed-loop burst over the wire
   measures the door's actual capacity ``C`` (q/s) and baseline
   latency on *this* host (the repo routinely runs on one core, so
   absolute rates are meaningless; fractions of measured capacity are
   not);
2. **sweep** — for each offered rate in ``fraction * C`` (the profile's
   ``load_rate_fractions`` span comfortable to ~3x saturated), generate
   Poisson arrivals (seeded exponential inter-arrival gaps) and fire
   each request at its scheduled instant regardless of how the previous
   ones are doing.  Latency is measured **from the scheduled arrival**,
   so queueing delay from falling behind is charged to the server, not
   silently absorbed (no coordinated omission);
3. **account** — per rate: achieved throughput, p50/p95/p99 latency of
   successes, typed rejections (503 shed / 504 deadline) and untyped
   failures, and the **saturation knee** — the first offered rate whose
   loss fraction (sheds + deadline misses + errors) exceeds 5%.

Hard checks (``ol_`` prefix in ``BENCH_serve.json``): the knee exists
and is not the lowest rate (the door survives comfortable load and
breaks typed under overload), p99 below the knee stays within the SLO
(adapted to calibrated baseline latency on slow hosts), every rejection
above the knee is typed, and **zero** untyped failures anywhere.

One more (``metrics_internal``): the internal
``repro_http_request_seconds`` histogram delta taken around the lowest
offered rate must agree with the harness's *externally* measured
latency — internal p99 within 1.5x external p99 (+5 ms bucket slack)
and at least as many observations as successes.  This pins the
observability plane to ground truth: a registry that under-counts or
mis-buckets fails the bench, not just a unit test.

It runs as one of the sub-scenarios of ``python -m repro.bench
serving``, which embeds the payload under ``"open_loop"``.
"""

from __future__ import annotations

import asyncio
import time
from datetime import datetime, timezone

import numpy as np

from ..core import UAE
from ..data import load
from ..obs import percentile_from_counts
from ..serve import (AsyncEstimateService, AsyncHTTPClient, HTTPFrontDoor,
                     RoutedEstimateService)
from ..workload import generate_inworkload
from .profiles import Profile

_SEED = 20210621        # arrival-process seed (paper's SIGMOD year+date)


def _percentiles(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                "mean_ms": 0.0}
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return {"p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)),
            "p99_ms": float(np.percentile(arr, 99)),
            "mean_ms": float(arr.mean())}


def _door_counts(metrics) -> dict:
    """The front door's wire counts, read from the metrics registry."""
    responses = metrics.get_family("repro_http_responses_total")
    return {"requests": int(metrics.total("repro_http_requests_total")),
            "served": int(metrics.total("repro_http_served_total")),
            "sheds": int(metrics.total("repro_http_sheds_total")),
            "status_counts": {labels["status"]: int(child.value)
                              for labels, child in responses.series()
                              if child.value}}


class _ClientPool:
    """Grab-an-idle-or-dial connection pool: open-loop arrivals must
    never queue behind a busy keep-alive socket (that would re-introduce
    the coordinated omission the bench exists to avoid), but unbounded
    dialing would measure the kernel, so the pool caps total sockets and
    sheds client-side past the cap (counted, never silent)."""

    def __init__(self, host: str, port: int, cap: int):
        self.host = host
        self.port = port
        self.cap = cap
        self.idle: list[AsyncHTTPClient] = []
        self.total = 0
        self.client_sheds = 0

    def acquire(self) -> AsyncHTTPClient | None:
        if self.idle:
            return self.idle.pop()
        if self.total >= self.cap:
            self.client_sheds += 1
            return None
        self.total += 1
        return AsyncHTTPClient(self.host, self.port)

    def release(self, client: AsyncHTTPClient) -> None:
        self.idle.append(client)

    async def close(self) -> None:
        for client in self.idle:
            await client.close()
        self.idle.clear()


async def _fire(pool: _ClientPool, payload: dict, scheduled: float,
                results: list) -> None:
    """One open-loop request: latency from the *scheduled* arrival."""
    client = pool.acquire()
    if client is None:
        results.append(("client_shed", 0.0))
        return
    try:
        status, _body, _hdr = await client.post("/estimate", payload)
        latency = time.perf_counter() - scheduled
        if status == 200:
            results.append(("ok", latency))
        elif status == 503:
            results.append(("shed", latency))
        elif status == 504:
            results.append(("deadline", latency))
        else:
            results.append((f"http_{status}", latency))
        pool.release(client)
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        results.append(("conn_error", time.perf_counter() - scheduled))
        await client.close()
        pool.total -= 1


async def _calibrate(host: str, port: int, payloads: list[dict],
                     n_requests: int, concurrency: int) -> dict:
    """Concurrent closed-loop capacity probe over the wire."""
    latencies: list[float] = []
    counter = {"next": 0}

    async def worker():
        client = AsyncHTTPClient(host, port)
        try:
            while counter["next"] < n_requests:
                i = counter["next"]
                counter["next"] += 1
                t0 = time.perf_counter()
                status, _b, _h = await client.post(
                    "/estimate", payloads[i % len(payloads)])
                if status == 200:
                    latencies.append(time.perf_counter() - t0)
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    elapsed = time.perf_counter() - start
    return {"requests": n_requests, "concurrency": concurrency,
            "elapsed_s": elapsed,
            "capacity_qps": len(latencies) / max(elapsed, 1e-9),
            **_percentiles(latencies)}


async def _sweep_rate(host: str, port: int, payloads: list[dict],
                      rate_qps: float, duration_s: float,
                      max_requests: int, connections: int,
                      rng: np.random.Generator) -> dict:
    """One offered rate: Poisson arrivals, every request fired on
    schedule whatever the earlier ones are doing."""
    n = int(min(max_requests, max(8, round(rate_qps * duration_s))))
    gaps = rng.exponential(1.0 / rate_qps, size=n)
    pool = _ClientPool(host, port, cap=connections)
    results: list[tuple[str, float]] = []
    tasks: list[asyncio.Task] = []
    start = time.perf_counter()
    arrival = start
    for i in range(n):
        arrival += gaps[i]
        delay = arrival - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_fire(
            pool, payloads[i % len(payloads)], arrival, results)))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - start
    await pool.close()

    ok = [lat for kind, lat in results if kind == "ok"]
    sheds = sum(1 for kind, _ in results
                if kind in ("shed", "client_shed"))
    deadline = sum(1 for kind, _ in results if kind == "deadline")
    untyped = sum(1 for kind, _ in results
                  if kind not in ("ok", "shed", "client_shed", "deadline"))
    loss = (sheds + deadline + untyped) / max(len(results), 1)
    return {"offered_qps": rate_qps, "sent": n,
            "achieved_qps": len(ok) / max(elapsed, 1e-9),
            "ok": len(ok), "shed_503": sheds, "deadline_504": deadline,
            "untyped": untyped, "loss": loss,
            "client_sheds": pool.client_sheds,
            "connections": pool.total,
            **_percentiles(ok)}


def run_open_loop(profile: Profile) -> dict:
    """The open-loop scenario; returns the payload ``run_serving`` embeds
    under ``"open_loop"``."""
    rng = np.random.default_rng(_SEED)

    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    uae = UAE(table, hidden=profile.hidden, num_blocks=profile.num_blocks,
              est_samples=profile.est_samples,
              dps_samples=max(4, profile.dps_samples),
              batch_size=profile.batch_size,
              query_batch_size=profile.query_batch_size, seed=0)
    uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
    queries = list(generate_inworkload(
        table, profile.load_pool, rng).queries)

    # cache_capacity=1 + a round-robin pool of distinct queries: every
    # request pays real engine compute, so the knee reflects the
    # estimator, not the result cache.
    front = RoutedEstimateService(cache_capacity=1, max_batch=32, seed=7)
    space = front.add_table(uae)
    rows: list[dict] = []
    checks: dict[str, bool] = {}

    async def _main() -> dict:
        door = HTTPFrontDoor(AsyncEstimateService(front),
                             port=0, max_inflight=profile.load_max_inflight)
        await door.start()
        try:
            # The pool ships as indices resolved by a pluggable parser:
            # the bench measures the serving path, not SQL parsing
            # (which has its own fuzz suite), and index payloads keep
            # every request byte-for-byte comparable across rates.
            door.parser = lambda ref: queries[int(ref)]
            payloads = [{"sql": str(i)} for i in range(len(queries))]

            calib = await _calibrate(
                door.host, door.port, payloads,
                profile.load_calib_requests,
                profile.load_calib_concurrency)
            capacity = calib["capacity_qps"]
            # SLO: the profile's absolute bound, relaxed on hosts whose
            # calibrated baseline latency is already near it (a 1-core
            # container cannot honestly meet a wall-clock SLO tuned for
            # real hardware).
            slo_ms = max(profile.load_slo_ms, 8.0 * calib["mean_ms"])
            deadline_ms = 4.0 * slo_ms
            for payload in payloads:
                payload["deadline_ms"] = deadline_ms

            # The door's own /estimate latency histogram: delta its
            # bucket counts around the lowest (least queue-distorted)
            # offered rate and cross-check against the external view.
            h_route = door.metrics.get_family(
                "repro_http_request_seconds").labels(route="/estimate")
            internal = None
            for i, fraction in enumerate(profile.load_rate_fractions):
                before = list(h_route.counts)
                row = await _sweep_rate(
                    door.host, door.port, payloads,
                    rate_qps=max(1.0, fraction * capacity),
                    duration_s=profile.load_duration_s,
                    max_requests=profile.load_max_requests,
                    connections=profile.load_connections,
                    rng=rng)
                row["fraction_of_capacity"] = fraction
                rows.append(row)
                if i == 0:
                    delta = [a - b for a, b in
                             zip(h_route.counts, before)]
                    internal = {
                        "observations": int(sum(delta)),
                        "p50_ms": percentile_from_counts(
                            h_route.bounds, delta, 0.50) * 1e3,
                        "p99_ms": percentile_from_counts(
                            h_route.bounds, delta, 0.99) * 1e3,
                    }
            return {"calibration": calib, "slo_ms": slo_ms,
                    "deadline_ms": deadline_ms,
                    "metrics_internal": internal,
                    "door": _door_counts(door.metrics)}
        finally:
            await door.stop()

    with front:
        meta = asyncio.run(_main())

    calib = meta["calibration"]
    slo_ms = meta["slo_ms"]
    knee = next((row for row in rows if row["loss"] > 0.05), None)
    below_knee = rows if knee is None else \
        rows[:rows.index(knee)]
    checks["ol_knee_exists"] = knee is not None
    checks["ol_knee_not_first_rate"] = bool(below_knee) \
        and rows[0]["loss"] <= 0.05
    checks["ol_p99_bounded_below_knee"] = all(
        row["p99_ms"] <= slo_ms for row in below_knee) \
        and bool(below_knee)
    checks["ol_overload_rejections_typed"] = \
        knee is None or (knee["shed_503"] + knee["deadline_504"] > 0)
    checks["ol_zero_untyped_failures"] = all(
        row["untyped"] == 0 for row in rows)
    checks["ol_throughput_tracks_offer_below_knee"] = all(
        row["achieved_qps"] >= 0.7 * row["offered_qps"]
        for row in below_knee) and bool(below_knee)
    # Internal histogram vs external harness at the lowest rate: the
    # external clock starts at the *scheduled* arrival (upstream of the
    # internal one), so internal <= external up to bucket quantization.
    internal = meta["metrics_internal"]
    first = rows[0]
    checks["metrics_internal"] = (
        internal is not None
        and internal["observations"] >= first["ok"] > 0
        and internal["p99_ms"] == internal["p99_ms"]  # not NaN
        and internal["p99_ms"] <= 1.5 * first["p99_ms"] + 5.0)

    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "dataset": "dmv",
        "query_pool": len(queries),
        "calibration": calib,
        "capacity_qps": calib["capacity_qps"],
        "slo_ms": slo_ms,
        "deadline_ms": meta["deadline_ms"],
        "knee_offered_qps": None if knee is None else knee["offered_qps"],
        "knee_fraction": None if knee is None
        else knee["fraction_of_capacity"],
        "metrics_internal": internal,
        "door": meta["door"],
        "service": space.service.stats(),
        "checks": checks,
        "rows": rows,
    }
