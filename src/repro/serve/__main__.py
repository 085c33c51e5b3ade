"""CLI: ``python -m repro.serve --http PORT [--profile ci|small|bench|paper]
[--smoke]``: the JSON-over-HTTP front door.

Trains the profile's DMV model once, then serves the JSON-over-HTTP
protocol (``POST /estimate``, ``POST /estimate_batch``,
``POST /feedback``, ``GET /status``, ``GET /healthz``, ``GET /metrics``,
``GET /debug/traces``) until Ctrl-C.  ``PORT`` 0 binds an ephemeral port
(printed once bound).  ``--smoke`` instead starts the door, drives one
request through every endpoint and every typed error path
(400/404/503/504) over a real socket, and exits non-zero on any protocol
violation — the CI HTTP smoke step runs exactly this.

The serving scenarios (the Section 4.5 loop, multi-table, scale-out,
open-loop load and chaos) run only as ``python -m repro.bench serving``.
"""

from __future__ import annotations

import argparse
import sys

from ..bench.profiles import PROFILES


def _build_http_front(profile):
    """Train the profile's DMV model and serve it as the one namespace of
    a :class:`~repro.serve.router.RoutedEstimateService`."""
    import numpy as np

    from ..core import UAE
    from ..data import load
    from ..workload import generate_inworkload
    from .router import RoutedEstimateService

    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    uae = UAE(table, hidden=profile.hidden,
              num_blocks=profile.num_blocks,
              est_samples=profile.est_samples,
              dps_samples=max(4, profile.dps_samples),
              batch_size=profile.batch_size,
              query_batch_size=profile.query_batch_size, seed=0)
    uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
    workload = generate_inworkload(table, 32, np.random.default_rng(5))
    front = RoutedEstimateService(max_batch=32, seed=7)
    front.add_table(uae)
    return front, [str(q) for q in workload.queries]


def _http_smoke(door, sqls: list[str]) -> list[str]:
    """Drive every endpoint and typed error path over real sockets;
    returns the list of failed checks (empty = pass)."""
    import asyncio

    from .net import AsyncHTTPClient

    failures: list[str] = []

    def check(name: str, ok: bool, detail="") -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not ok else ""))
        if not ok:
            failures.append(name)

    async def run() -> None:
        client = AsyncHTTPClient(door.host, door.port)
        try:
            status, body, _ = await client.get("/healthz")
            check("healthz 200", status == 200 and body.get("ok") is True,
                  f"status={status}")

            status, body, _ = await client.post("/estimate",
                                                {"sql": sqls[0]})
            check("estimate 200",
                  status == 200 and body.get("estimate", -1) >= 0
                  and "version" in body, f"status={status} body={body}")

            # the repeat is a cache hit, settled on the event loop
            # (see the offloop-submits gate below)
            status, again, _ = await client.post("/estimate",
                                                 {"sql": sqls[0]})
            check("repeated estimate from_cache",
                  status == 200 and again.get("from_cache") is True
                  and again.get("estimate") == body.get("estimate"),
                  f"status={status} body={again}")

            batch = {"sql": sqls[:3], "seed": 123, "use_cache": False}
            _, first, _ = await client.post("/estimate_batch", batch)
            _, second, _ = await client.post("/estimate_batch", batch)
            check("seeded batch bit-identical",
                  first.get("estimates") == second.get("estimates")
                  and len(first.get("estimates", [])) == 3)

            status, body, _ = await client.post(
                "/feedback", {"sql": sqls[0], "true_cardinality": 100.0})
            check("feedback 200",
                  status == 200 and body.get("qerror", 0) >= 1.0,
                  f"status={status} body={body}")

            status, body, _ = await client.get("/status")
            version = body.get("service", {}).get("namespaces", {}) \
                .get("dmv", {}).get("service", {}).get("model_version")
            check("status 200",
                  status == 200 and "front_door" in body
                  and isinstance(version, int), f"status={status}")

            status, body, _ = await client.get("/nope")
            check("unknown route 404", status == 404, f"status={status}")

            status, body, _ = await client.post(
                "/estimate", {"sql": sqls[0], "namespace": "ghost"})
            check("unknown namespace 404",
                  status == 404
                  and body.get("error") == "UnknownNamespaceError",
                  f"status={status} body={body}")

            status, body, _ = await client.post("/estimate", {})
            check("missing sql 400", status == 400, f"status={status}")

            status, body, _ = await client.post(
                "/estimate_batch", {"sql": sqls[:1], "seed": 1.9})
            check("non-integer seed 400", status == 400,
                  f"status={status} body={body}")

            async def raw_status(request: bytes) -> bytes:
                reader, writer = await asyncio.open_connection(
                    door.host, door.port)
                try:
                    writer.write(request)
                    await writer.drain()
                    return await asyncio.wait_for(reader.readline(),
                                                  timeout=10)
                finally:
                    writer.close()

            # malformed JSON must map to a typed 400, not a hangup
            raw = b"{not json"
            line = await raw_status(
                b"POST /estimate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % len(raw) + raw)
            check("malformed JSON 400", b" 400 " in line,
                  line.decode("latin1", "replace").strip())

            # a negative length must not make the body read eat the
            # buffered bytes of the next request
            line = await raw_status(
                b"GET /healthz HTTP/1.1\r\nContent-Length: -20\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\n\r\n")
            check("negative Content-Length 400", b" 400 " in line,
                  line.decode("latin1", "replace").strip())

            # a microscopic budget on a fresh query must miss, typed
            status, body, _ = await client.post(
                "/estimate", {"sql": sqls[10], "deadline_ms": 0.001})
            check("deadline miss 504",
                  status == 504 and body.get("error") == "TimeoutError",
                  f"status={status} body={body}")

            # saturate the 1-slot admission window: concurrent deadlined
            # requests must shed typed (503 + Retry-After), never hang
            clients = [AsyncHTTPClient(door.host, door.port)
                       for _ in range(12)]
            try:
                outs = await asyncio.gather(*(
                    c.post("/estimate",
                           {"sql": sqls[11 + i], "deadline_ms": 2000.0})
                    for i, c in enumerate(clients)))
            finally:
                for c in clients:
                    await c.close()
            statuses = [s for s, _b, _h in outs]
            shed = [(s, h) for s, _b, h in outs if s == 503]
            check("overload shed 503",
                  any(s == 200 for s in statuses) and shed
                  and all("retry-after" in h for _s, h in shed),
                  f"statuses={statuses}")
            check("no untyped failures",
                  all(s in (200, 503, 504) for s in statuses),
                  f"statuses={statuses}")

            # /metrics: Prometheus text covering the stack, including
            # the requests this very smoke just issued
            status, text, headers = await client.get("/metrics")
            check("metrics 200 text",
                  status == 200 and isinstance(text, str)
                  and "text/plain" in headers.get("content-type", ""),
                  f"status={status}")
            families = ("repro_http_requests_total",
                        "repro_http_responses_total",
                        "repro_http_request_seconds_bucket",
                        "repro_serve_served_total",
                        "repro_serve_latency_seconds_bucket",
                        "repro_serve_stage_seconds_bucket",
                        "repro_http_inflight")
            missing = [f for f in families
                       if not isinstance(text, str) or f not in text]
            check("metrics families present", not missing,
                  f"missing={missing}")

            def samples(name: str) -> list[float]:
                lines = text.splitlines() if isinstance(text, str) else []
                return [float(line.rsplit(" ", 1)[1]) for line in lines
                        if line.startswith(name)]

            served = samples("repro_serve_served_total")
            check("metrics count just-served requests",
                  any(value >= 1 for value in served), f"samples={served}")
            offloop = samples("repro_async_offloop_submits_total")
            check("no submit left the event loop", offloop == [0.0],
                  f"samples={offloop}")

            # /debug/traces: the estimates above must have left traces
            # with admission + compute-side spans
            status, dump, _ = await client.get("/debug/traces")
            recent = dump.get("recent", []) if isinstance(dump, dict) \
                else []
            spans = {s["name"] for t in recent for s in t.get("spans", ())}
            check("debug traces recorded",
                  status == 200 and dump.get("recorded", 0) >= 1
                  and "admission" in spans,
                  f"status={status} recorded={dump.get('recorded')} "
                  f"spans={sorted(spans)}")
        finally:
            await client.close()

    asyncio.run(run())
    return failures


def _run_http(profile, port: int, smoke: bool) -> int:
    import queue
    import threading

    from .net import serve_http

    print(f"training DMV model (profile={profile.name}) ...", flush=True)
    front, sqls = _build_http_front(profile)
    with front:
        if not smoke:
            serve_http(front, port=port, ready=lambda d: print(
                f"serving http://{d.host}:{d.port} "
                "(POST /estimate | /estimate_batch | /feedback, "
                "GET /status | /healthz; Ctrl-C stops)", flush=True))
            return 0
        ready: "queue.Queue" = queue.Queue()
        stop = threading.Event()
        thread = threading.Thread(
            target=serve_http, args=(front,),
            kwargs=dict(port=port, max_inflight=1, ready=ready.put,
                        stop_event=stop),
            daemon=True)
        thread.start()
        try:
            door = ready.get(timeout=60)
            print(f"smoke against http://{door.host}:{door.port}")
            failures = _http_smoke(door, sqls)
        finally:
            stop.set()
            thread.join(timeout=10)
    if failures:
        print(f"FAILED: {failures}", file=sys.stderr)
        return 1
    print("HTTP smoke: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the JSON-over-HTTP front door over a DMV model "
                    "trained at the given profile.  The serving "
                    "scenarios run as `python -m repro.bench serving`.")
    parser.add_argument("--profile", default="small",
                        choices=sorted(PROFILES),
                        help="scale profile (default: small)")
    parser.add_argument("--http", type=int, required=True, metavar="PORT",
                        help="serve on PORT (0 = ephemeral); Ctrl-C stops")
    parser.add_argument("--smoke", action="store_true",
                        help="drive every endpoint and typed error path "
                             "once, exit non-zero on any protocol "
                             "violation")
    args = parser.parse_args(argv)
    return _run_http(PROFILES[args.profile], args.http, args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
