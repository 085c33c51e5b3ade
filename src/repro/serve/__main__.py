"""CLI: ``python -m repro.serve [--profile ci|small|bench|paper]
[--datasets NAME ...]``.

Default: the single-table online-serving loop — train a data-only UAE,
serve steady traffic through the micro-batching service, drift on a
shifted workload, refine from feedback in the background, hot-swap,
serve again — and print the per-phase report.  This is the same
scenario ``python -m repro.bench serving`` benchmarks; the bench
variant additionally writes the ``BENCH_serve.json`` artifact.

With ``--datasets`` naming one or more tables, the multi-table
front-door scenario runs instead: one namespace per dataset plus the
synthetic IMDB join schema behind a single ``RoutedEstimateService``,
checking mixed-stream routing parity and the namespace-isolation
invariant (a hot-swap in one namespace leaves every other namespace's
per-version seeded answers bit-identical).

With ``--workers N``, the scale-out cluster scenario runs instead:
the profile's scale datasets served by 1 and then N shared-nothing
worker processes behind a ``ClusterEstimateService``, checking
bit-parity with single-process serving, zero-copy swap propagation,
and typed load shedding under overload.

With ``--chaos FAULT``, the deterministic chaos-healing scenario runs
instead (see :func:`repro.bench.serve_bench.run_chaos`): a seeded fault
plan injects FAULT into the serving stack and the run exits non-zero
unless the stack *heals* — shadow validation rejects poisoned
refinements, the q-error tripwire auto-rolls-back a bad publish, the
worker supervisor restarts a SIGKILLed worker bit-identically.
``--workers N`` sizes the cluster for the worker faults;
``python -m repro.serve --workers 2 --chaos kill-worker --smoke`` is
the CI chaos smoke step.

With ``--http PORT``, the network front door runs instead: train the
profile's DMV model once, then serve the JSON-over-HTTP protocol
(``POST /estimate``, ``POST /estimate_batch``, ``POST /feedback``,
``GET /status``, ``GET /healthz``) until Ctrl-C.  ``PORT`` 0 binds an
ephemeral port (printed once bound).  ``--http 0 --smoke`` instead
starts the door on an ephemeral port, drives one request through every
endpoint and every typed error path (400/404/413/503/504) over a real
socket, and exits non-zero on any protocol violation — the CI HTTP
smoke step runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from ..bench.profiles import PROFILES
from ..bench.reporting import format_table
from ..bench.serve_bench import (run_chaos, run_multi_table, run_scale_out,
                                 run_serving)
from ..data.datasets import DATASETS

#: --chaos FAULT -> which half of the chaos scenario exercises it.
CHAOS_FAULTS = {
    "kill-worker": "cluster",
    "slow-worker": "cluster",
    "poison-refinement": "single",
    "drop-publish": "single",
    "corrupt-feedback": "single",
}


# ----------------------------------------------------------------------
# HTTP front door (--http / --smoke)
# ----------------------------------------------------------------------
def _build_http_front(profile):
    """Train the profile's DMV model and wrap it in a UAEServer."""
    import numpy as np

    from ..core import UAE
    from ..data import load
    from ..workload import generate_inworkload
    from .server import UAEServer

    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    uae = UAE(table, hidden=profile.hidden,
              num_blocks=profile.num_blocks,
              est_samples=profile.est_samples,
              dps_samples=max(4, profile.dps_samples),
              batch_size=profile.batch_size,
              query_batch_size=profile.query_batch_size, seed=0)
    uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
    workload = generate_inworkload(table, 32, np.random.default_rng(5))
    server = UAEServer(uae, max_batch=32, max_wait_ms=2.0, seed=7)
    return server, [str(q) for q in workload.queries]


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
            check("status 200",
                  status == 200 and "front_door" in body
                  and "service" in body, f"status={status}")

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

            # malformed JSON must map to a typed 400, not a hangup
            reader, writer = await asyncio.open_connection(
                door.host, door.port)
            raw = b"{not json"
            writer.write(b"POST /estimate HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(raw) + raw)
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            check("malformed JSON 400", b" 400 " in line,
                  line.decode("latin1", "replace").strip())
            writer.close()

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
    server, sqls = _build_http_front(profile)
    with server:
        if not smoke:
            serve_http(server, port=port, ready=lambda d: print(
                f"serving http://{d.host}:{d.port} "
                "(POST /estimate | /estimate_batch | /feedback, "
                "GET /status | /healthz; Ctrl-C stops)", flush=True))
            return 0
        ready: "queue.Queue" = queue.Queue()
        stop = threading.Event()
        thread = threading.Thread(
            target=serve_http, args=(server,),
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
        description="Drive the online serving loop (registry, "
                    "micro-batching service, cache, feedback refinement) "
                    "over a shifting DMV workload — or, with --datasets, "
                    "the multi-table front door over several namespaces.")
    parser.add_argument("--profile", default="small",
                        choices=sorted(PROFILES),
                        help="scale profile (default: small)")
    parser.add_argument("--datasets", nargs="+", default=None,
                        choices=sorted(DATASETS), metavar="NAME",
                        help="serve these tables (plus the synthetic join "
                             "schema) as namespaces behind the multi-table "
                             "front door instead of the single-table loop")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run the scale-out cluster scenario with 1 "
                             "and N shared-nothing worker processes "
                             "instead of the single-process loop")
    parser.add_argument("--http", type=int, default=None, metavar="PORT",
                        help="serve the JSON-over-HTTP front door on PORT "
                             "(0 = ephemeral) instead of running a "
                             "scenario; Ctrl-C stops")
    parser.add_argument("--chaos", choices=sorted(CHAOS_FAULTS),
                        metavar="FAULT", default=None,
                        help="run the deterministic chaos-healing "
                             "scenario exercising FAULT (one of "
                             f"{', '.join(sorted(CHAOS_FAULTS))}); "
                             "cluster faults use --workers processes "
                             "(default 2); exits non-zero unless every "
                             "healing invariant holds")
    parser.add_argument("--smoke", action="store_true",
                        help="with --http: bind an ephemeral port, drive "
                             "every endpoint and typed error path once, "
                             "exit non-zero on any protocol violation; "
                             "with --chaos: alias for the gated chaos "
                             "run (the CI chaos smoke step)")
    parser.add_argument("--no-artifact", action="store_true",
                        help="skip writing BENCH_serve.json "
                             "(--datasets runs never write it)")
    parser.add_argument("--json", action="store_true",
                        help="dump the full result payload as JSON")
    args = parser.parse_args(argv)

    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.smoke and args.http is None and args.chaos is None:
        parser.error("--smoke requires --http or --chaos")
    if args.http is not None:
        if args.datasets or args.workers is not None or args.chaos:
            parser.error("--http is exclusive of "
                         "--datasets/--workers/--chaos")
        return _run_http(PROFILES[args.profile], args.http, args.smoke)
    if args.chaos is not None and args.datasets:
        parser.error("--chaos is exclusive of --datasets")
    try:
        if args.chaos is not None:
            cluster_fault = CHAOS_FAULTS[args.chaos] == "cluster"
            result = run_chaos(
                PROFILES[args.profile],
                include_single=not cluster_fault,
                include_cluster=cluster_fault,
                workers=args.workers if args.workers is not None else 2)
        elif args.workers is not None:
            profile = PROFILES[args.profile]
            counts = (1,) if args.workers == 1 else (1, args.workers)
            result = run_scale_out(replace(profile,
                                           scale_workers=counts))
        elif args.datasets:
            # Dedupe (order-preserving): each dataset is one namespace,
            # and namespaces must be unique.
            datasets = tuple(dict.fromkeys(args.datasets))
            result = run_multi_table(PROFILES[args.profile],
                                     datasets=datasets)
        else:
            result = run_serving(PROFILES[args.profile],
                                 write_artifact=not args.no_artifact)
    except RuntimeError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({k: v for k, v in result.items()
                          if k not in ("rows", "columns", "title")},
                         indent=2, default=str))
    print(format_table(result["rows"], result["columns"],
                       title=result["title"]))
    if args.chaos is not None:
        pass                                # the table is the summary
    elif args.workers is not None:
        qps = result["qps_by_workers"]
        print(f"\ncluster q/s by worker count: "
              + ", ".join(f"{n}w {v:.0f}" for n, v in qps.items())
              + f" | max swap propagation "
                f"{result['max_propagation_ms']:.1f} ms | overload: "
                f"{result['overload']['shed']} shed (typed), "
                f"{result['overload']['failures']} failures"
              + (" | cpu-limited host" if result["cpu_limited"] else ""))
    elif args.datasets:
        print(f"\nfront door {result['front_door_qps']:.0f} q/s over "
              f"{result['mixed_stream_queries']} mixed queries across "
              f"{len(result['namespaces'])} namespaces | hot-swap in "
              f"{result['swap_namespace']!r} isolated from the rest")
    else:
        print(f"\nserving {result['serving_qps']:.0f} q/s vs plain engine "
              f"{result['engine_qps_baseline']:.0f} q/s | "
              f"p50 {result['p50_ms']:.2f} ms, "
              f"p99 {result['p99_ms']:.2f} ms | "
              f"shifted q-error "
              f"{result['qerr_shifted_before']['mean']:.3g} -> "
              f"{result['qerr_shifted_after']['mean']:.3g} after hot-swap "
              f"(x{result['qerr_improvement']:.2f})")
    print(f"checks: {'all passed' if all(result['checks'].values()) else result['checks']}")
    for name, reason in result.get("skipped", {}).items():
        print(f"skipped: {name} ({reason})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
