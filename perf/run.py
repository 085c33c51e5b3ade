#!/usr/bin/env python3
"""The repo's benchmark: one command, the whole query path.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

launches the serving stack in a child process (``perf/server.py``),
drives it over its real HTTP wire protocol with seeded SQL, checks every
answer, prints every metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Without ``--workload`` it runs all five.  It exits
non-zero when an operation failed or a validity guard tripped.
See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import loadgen  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import Labelled  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
#: The end-to-end metrics, in the order they print (name, unit).
END_TO_END = (("setup_s", "s"), ("throughput_qps", "1/s"),
              ("lat_p50_ms", "ms"), ("qerr_p50", "ratio"),
              ("qerr_p95", "ratio"), ("rss_peak_mb", "MB"))


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class Server:
    """The serving stack in its own session (so its workers share one
    process group the harness can account for and reap)."""

    def __init__(self, workload: str, trace: bool = False):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--workload", workload, "--trace", str(int(trace))]
            + (["--smoke"] if spec.SMOKE else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True, cwd=ROOT,
            env={**spec.SERVER_ENV, **os.environ})
        self.pgid = self.proc.pid
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.admin = None
        try:
            ready = self._read(timeout=150.0)
            self.port = int(ready["port"])
            self.model_bytes = int(ready["model_bytes"])
            self.admin = loadgen.Connection(self.port)
            self.admin.get_json("/healthz")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.spawned

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("server did not answer in "
                               f"{timeout:.0f} s") from None
        if line is None:
            raise RuntimeError("server exited "
                               f"(code {self.proc.poll()})")
        return json.loads(line)

    def command(self, timeout: float = 60.0, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        reply = self._read(timeout)
        if not reply.get("ok"):
            raise RuntimeError(f"server refused {msg}: {reply}")
        return reply

    def pids(self) -> list:
        return stats.process_group_pids(self.pgid)

    def stop(self) -> None:
        """Ask the child to stop, then make sure the whole process group
        is gone and every child has been waited for."""
        if self.admin is not None:
            self.admin.close()
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"cmd": "stop"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=20.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not self.pids():
                break
            try:
                os.killpg(self.pgid, sig)
            except ProcessLookupError:
                break
            deadline = time.perf_counter() + 5.0
            while self.pids() and time.perf_counter() < deadline:
                if self.proc.poll() is None:
                    try:
                        self.proc.wait(timeout=0.1)
                    except subprocess.TimeoutExpired:
                        pass
                else:
                    time.sleep(0.05)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Judging answers
# ----------------------------------------------------------------------
def valid_estimate(value, rows: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and 0.0 <= value <= rows * (1.0 + 1e-9)


class Outcome:
    """What one measured window produced, workload-independent."""

    def __init__(self):
        self.attempted = 0          # operations sent
        self.failed = 0             # non-200 / conn error / bad estimate
        self.answered = 0           # estimates answered correctly
        self.wall = 0.0
        self.latencies: list = []   # seconds, per request
        self.ends: list = []        # completion time of each request
        self.credit: list = []      # estimates it answered (0 = failed)
        self.started = 0.0          # window start, same clock as `ends`
        self.late: list = []        # seconds a paced request left late
        self.qerrs: list = []
        self.hits = 0
        self.overheads: list = []   # client latency - service_ms, seconds
        self.by_namespace: dict = {}
        self.cpu_s = 0.0            # generator CPU over `cpu_wall` seconds
        self.cpu_wall = 0.0
        self.bytes_out = self.bytes_in = 0
        self.requests = 0
        self.exhausted = False
        self.guards: dict = {}      # name -> (ok, detail)
        self.extra: dict = {}

    def guard(self, name: str, ok: bool, detail: str) -> None:
        self.guards[name] = (bool(ok), detail)


def judge_singles(out: Outcome, records, stream: Labelled,
                  pool_index=None, want_qerr: bool = True) -> dict:
    """Fold `/estimate` records into ``out``; returns the estimate per
    distinct stream index (the first answer wins)."""
    first: dict = {}
    for rec in records:
        out.attempted += 1
        out.latencies.append(rec.latency)
        out.ends.append(rec.end)
        out.credit.append(0)
        out.late.append(rec.sent - rec.start)
        k = rec.index if pool_index is None else pool_index[rec.index]
        ok = rec.status == 200
        body = None
        if ok:
            try:
                body = json.loads(rec.body)
                ok = valid_estimate(body.get("estimate"), stream.rows[k])
            except ValueError:
                ok = False
        if not ok:
            out.failed += 1
            continue
        out.answered += 1
        out.credit[-1] = 1
        out.hits += bool(body.get("from_cache"))
        if "service_ms" in body:
            out.overheads.append(rec.latency - body["service_ms"] / 1e3)
        out.by_namespace.setdefault(stream.namespace[k], []).append(
            rec.latency)
        if k not in first:
            first[k] = body["estimate"]
    if want_qerr:
        out.qerrs += [stats.qerror(est, stream.truth[k])
                      for k, est in first.items()]
    return first


def steady(rounds: list, width) -> dict:
    """Throughput and latency percentiles of a run's measured windows —
    ``rounds`` is a list of ``(Outcome, stolen)`` pairs, one per server
    lifetime — as the *median over slices*, ``width`` seconds each and
    pooled over the rounds: on a shared host interference comes in
    bursts that slow whatever runs during them, and a burst moves a
    whole-window mean or p95 but not the median slice.  Slices during
    which the hypervisor stole more than `spec.STEAL_LIMIT` of the CPU
    time (``stolen(start, end)``, None when it was not sampled) are left
    out while at least three others remain.  Falls back to the windows
    taken whole when ``width`` is None or there are fewer than three
    slices."""
    lat_ms = [x * 1e3 for out, _ in rounds for x in out.latencies]
    wall = sum(out.wall for out, _ in rounds)
    result = {"qps": sum(out.answered for out, _ in rounds) / wall
              if wall else 0.0,
              "p50": stats.percentile(lat_ms or [0.0], 50),
              "p95": stats.percentile(lat_ms or [0.0], 95),
              "slices": 0, "clean": 0}
    if not width:
        return result
    slices = []                         # (answered, p50, p95, clean)
    for out, stolen in rounds:
        n = int(out.wall / width)
        credit = [0] * n
        lats: list = [[] for _ in range(n)]
        for end, got, latency in zip(out.ends, out.credit, out.latencies):
            i = int((end - out.started) / width)
            if 0 <= i < n:
                credit[i] += got
                lats[i].append(latency * 1e3)
        for i in range(n):
            if lats[i]:
                lo = out.started + i * width
                slices.append((credit[i], stats.percentile(lats[i], 50),
                               stats.percentile(lats[i], 95),
                               stolen is None
                               or stolen(lo, lo + width) <= spec.STEAL_LIMIT))
    clean = [s for s in slices if s[3]]
    result.update(slices=len(slices), clean=len(clean))
    keep = clean if len(clean) >= 3 else slices
    if len(keep) < 3:
        return result
    result.update(qps=statistics.median(s[0] for s in keep) / width,
                  p50=statistics.median(s[1] for s in keep),
                  p95=statistics.median(s[2] for s in keep))
    return result


def closed_windows(out: Outcome, server, requests, first, warmup, seconds,
                   trace, measure, weight: int = 1):
    """The closed-loop sequence every read-only workload runs from
    ``requests[first:]``: warm-up, (traced runs only) a quarter-length
    untraced reference window whose throughput lands in
    ``out.extra["ref_qps"]``, then the measured window.  Returns
    ``(warm-up, window)``; ``out.extra["next"]`` is the first request
    nothing has sent yet."""
    kw = dict(connections=spec.CONNECTIONS)
    warm = loadgen.closed_loop(server.port, requests, seconds=None,
                               first=first, limit=warmup, **kw)
    first += len(warm.records)
    if trace:
        ref = loadgen.closed_loop(server.port, requests,
                                  seconds=seconds / 4.0, first=first, **kw)
        first += len(ref.records)
        out.extra["ref_qps"] = weight * sum(
            r.status == 200 for r in ref.records) / ref.wall
    window = measure(lambda: loadgen.closed_loop(
        server.port, requests, seconds=seconds, first=first, **kw))
    out.extra["next"] = first + len(window.records)
    out.started = window.started
    out.wall = window.wall
    out.cpu_s, out.cpu_wall = window.cpu_s, window.wall
    out.bytes_out, out.bytes_in = window.bytes_out, window.bytes_in
    out.requests = len(window.records)
    out.exhausted = window.exhausted
    return warm, window


# ----------------------------------------------------------------------
# Workload drivers.  `prepare_*` builds what a run sends, once;
# `drive_*` runs one round of it (one server lifetime) from request
# `first` on, given a ready server and a `measure(fn)` bracket that
# scrapes /metrics around `fn()`.
# ----------------------------------------------------------------------
def prepare_singles(plan) -> dict:
    stream = Labelled.from_json(plan["stream"])
    workloads.check_roundtrip(stream)
    frames = [loadgen.frame("POST", "/estimate",
                            workloads.estimate_payload(sql))
              for sql in stream.sql]
    order = plan.get("order")           # `hot`: draws from the pool
    requests = frames if order is None else [frames[i] for i in order]
    return {"stream": stream, "frames": frames, "order": order,
            "requests": requests, "digest": workloads.digest(requests)}


def drive_singles(workload, prep, server, seconds, trace, measure, first):
    """`unique`, `cluster`, `hot`: closed-loop `POST /estimate`."""
    stream = prep["stream"]
    out = Outcome()
    if workload == "hot":
        # ask every pool query once first, so the window's hit share
        # does not depend on how much of the pool the warm-up's Zipf
        # draws happened to touch
        fill = loadgen.closed_loop(server.port, prep["frames"],
                                   seconds=None,
                                   connections=spec.CONNECTIONS)
    _, window = closed_windows(out, server, prep["requests"], first,
                               spec.WARMUP_REQUESTS, seconds, trace,
                               measure)
    judge_singles(out, window.records, stream, pool_index=prep["order"],
                  want_qerr=workload != "hot")
    if workload == "hot":
        # accuracy over the whole pool, from the answers that filled the
        # cache (the window only repeats them)
        filled = Outcome()
        judge_singles(filled, fill.records, stream)
        out.qerrs = filled.qerrs
    share = out.hits / max(out.answered, 1)
    if workload == "hot":
        out.guard("hot_hit_share", share >= 0.95,
                  f"hit share {share:.4f}, need >= 0.95")
    else:
        out.guard("unique_hit_share", out.hits == 0,
                  f"{out.hits} cache hits on a never-repeating stream")
    return out


def prepare_batch(plan) -> dict:
    stream = Labelled.from_json(plan["stream"])
    workloads.check_roundtrip(stream)
    size = spec.BATCH_QUERIES
    requests = [loadgen.frame("POST", "/estimate_batch",
                              workloads.batch_payload(
                                  stream.sql[i * size:(i + 1) * size], i))
                for i in range(len(stream) // size)]
    return {"stream": stream, "requests": requests,
            "digest": workloads.digest(requests)}


def drive_batch(prep, server, seconds, trace, measure, first):
    """`batch`: closed-loop seeded `POST /estimate_batch`, then re-send
    every Nth request and demand bit-identical answers."""
    stream, requests = prep["stream"], prep["requests"]
    size = spec.BATCH_QUERIES
    out = Outcome()
    _, window = closed_windows(out, server, requests, first,
                               spec.WARMUP_REQUESTS // size, seconds, trace,
                               measure, weight=size)
    answers: dict = {}
    for rec in window.records:
        out.attempted += 1
        out.latencies.append(rec.latency)
        out.ends.append(rec.end)
        out.credit.append(0)
        base = rec.index * size
        values = None
        if rec.status == 200:
            try:
                values = json.loads(rec.body).get("estimates")
            except ValueError:
                values = None
        if not isinstance(values, list) or len(values) != size or not all(
                valid_estimate(v, stream.rows[base + j])
                for j, v in enumerate(values)):
            out.failed += 1
            continue
        out.answered += size
        out.credit[-1] = size
        answers[rec.index] = values
        out.by_namespace.setdefault(stream.namespace[base], []).append(
            rec.latency)
        out.qerrs += [stats.qerror(v, stream.truth[base + j])
                      for j, v in enumerate(values)]
    # the cross-boundary guarantee: same seed, same version, same bits
    again = sorted(answers)[::spec.BATCH_RESEND_EVERY][:spec.BATCH_RESEND_MAX]
    mismatched = 0
    with loadgen.Connection(server.port) as conn:
        for index in again:
            status, body = conn.roundtrip(requests[index])
            if status != 200 \
                    or json.loads(body)["estimates"] != answers[index]:
                mismatched += 1
    out.guard("batch_bit_identical", again and not mismatched,
              f"{mismatched} of {len(again)} re-sent seeded requests "
              "answered differently")
    return out


def _dmv_version(status: dict) -> int:
    space = status["service"]["namespaces"][spec.REFRESH_TABLE]
    return int(space["service"]["model_version"])


def _probe(conn, probes: Labelled, out: Outcome) -> list:
    """Seeded bulk estimates of the held-out probes (the seeded path
    bypasses the cache and is bit-reproducible per model version, so
    pre- and post-swap answers differ only by the model); their
    q-errors."""
    errs = []
    step = spec.REFRESH_PROBE_CHUNK
    for lo in range(0, len(probes), step):
        out.attempted += 1
        sqls = probes.sql[lo:lo + step]
        status, body = conn.roundtrip(loadgen.frame(
            "POST", "/estimate_batch",
            workloads.batch_payload(sqls, lo)))
        values = json.loads(body).get("estimates") if status == 200 else None
        if not isinstance(values, list) or len(values) != len(sqls) \
                or not all(valid_estimate(v, probes.rows[lo + j])
                           for j, v in enumerate(values)):
            out.failed += 1
            continue
        errs += [stats.qerror(v, probes.truth[lo + j])
                 for j, v in enumerate(values)]
    return errs


def prepare_refresh(plan) -> dict:
    pool = Labelled.from_json(plan["stream"])
    fed = Labelled.from_json(plan["feedback"])
    probes = Labelled.from_json(plan["probes"])
    for stream in (pool, fed, probes):
        workloads.check_roundtrip(stream)
    frames = [loadgen.frame("POST", "/estimate",
                            workloads.estimate_payload(sql))
              for sql in pool.sql]
    feedback = [loadgen.frame("POST", "/feedback",
                              workloads.feedback_payload(sql, truth))
                for sql, truth in zip(fed.sql, fed.truth)]
    return {"pool": pool, "probes": probes, "frames": frames,
            "order": plan["order"], "feedback": feedback,
            "digest": workloads.digest(
                [frames[i] for i in plan["order"]] + feedback)}


def drive_refresh(prep, server, seconds, trace, measure, first):
    """`refresh`: a writer running one drift cycle (stage rows, post
    labelled feedback, wait for the new version) beside a paced reader.
    Work-based: the round is one cycle, however long that takes.

    The gated numbers are the writer's closed loop of `/feedback` posts
    (each one a served estimate plus the bookkeeping that ends in the
    drift trigger): posts taken in per second, latency per post.  What
    follows the last post — refinement, shadow gate, publish — is one
    lump of trainer CPU time, reported per layer as `server.refresh_s`;
    the reader's latencies are per-layer metrics too (README says why
    neither can be gated on a shared host)."""
    pool, probes = prep["pool"], prep["probes"]
    frames, order = prep["frames"], prep["order"][first:]
    out = Outcome()
    # warm-up: every reader query once, so the window starts on a warm
    # cache and a compiled engine
    loadgen.closed_loop(server.port, frames, seconds=None,
                        connections=spec.CONNECTIONS)
    v0 = _dmv_version(server.admin.get_json("/status"))
    before = probes.take(range(spec.REFRESH_PROBES_BEFORE))
    at = {}                             # phase boundaries, perf_counter

    def window():
        reader = loadgen.PacedReader(server.port, frames, order,
                                     spec.REFRESH_READER_RATE).start()
        cpu0 = time.process_time()
        try:
            with loadgen.Connection(server.port) as writer:
                at["pre"] = _probe(writer, before, out)
                server.command(cmd="stage")
                out.started = time.perf_counter()
                for request in prep["feedback"]:
                    sent = time.perf_counter()
                    status, _ = writer.roundtrip(request)
                    out.attempted += 1
                    out.ends.append(time.perf_counter())
                    out.latencies.append(out.ends[-1] - sent)
                    out.credit.append(int(status == 200))
                at["posted"] = time.perf_counter()
                while True:
                    version = _dmv_version(writer.get_json("/status"))
                    at["visible"] = time.perf_counter()
                    if version != v0 or at["visible"] - out.started > 90.0:
                        break
                    time.sleep(0.05)
                out.qerrs = _probe(writer, probes, out)
                time.sleep(max(0.0, at["visible"]
                               + spec.REFRESH_TAIL_SECONDS
                               - time.perf_counter()))
        finally:
            reader.stop()
        out.cpu_s = time.process_time() - cpu0
        out.cpu_wall = reader.ended - reader.started
        return reader

    reader = measure(window)
    out.answered = sum(out.credit)
    out.failed += len(out.credit) - out.answered
    out.wall = at["posted"] - out.started
    out.extra["refresh_s"] = at["visible"] - out.started
    out.extra["next"] = first + len(reader.records)
    # the reader, by phase: while the cycle ran (first post to the new
    # version being visible) and the post-swap tail (cold cache, warming)
    reads = Outcome()
    judge_singles(reads, reader.records, pool, want_qerr=False)
    out.attempted += reads.attempted
    out.failed += reads.failed
    reads.extra["during_ms"] = [
        rec.latency * 1e3 for rec in reader.records
        if out.started <= rec.start <= at["visible"]]
    reads.extra["tail_ms"] = [
        rec.latency * 1e3 for rec in reader.records
        if rec.start > at["visible"]]
    reads.wall = reader.ended - reader.started
    out.extra["reader"] = reads
    out.bytes_out, out.bytes_in = reader.bytes_out, reader.bytes_in
    out.requests = len(reader.records)
    out.exhausted = reader.exhausted
    final = _dmv_version(server.admin.get_json("/status"))
    out.guard("refresh_one_version_bump", final == v0 + 1,
              f"version went {v0} -> {final}")
    pre95 = stats.percentile(at["pre"] or [0.0], 95)
    post95 = stats.percentile(out.qerrs[:len(before)] or [0.0], 95)
    out.guard("refresh_accuracy_improves", 0.0 < post95 < pre95,
              f"held-out shifted qerr_p95 went {pre95:.3g} -> {post95:.3g} "
              "across the swap")
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def cache_invalidations(status: dict) -> int:
    """Result-cache invalidations summed over a `/status` body's
    namespaces (the cluster front has no cache: 0)."""
    return sum((space["service"].get("cache") or {}).get("invalidations", 0)
               for space in status["service"].get("namespaces", {}).values())


def run_round(workload, prep, seconds, trace, first) -> tuple:
    """One server lifetime: set up, drive one round of the workload from
    request ``first`` on, tear down.  Returns the round's `Outcome` and
    its context (set-up time, peak memory, the `/metrics` delta and the
    stolen-CPU sampler of its measured window, the trace report)."""
    shm_before = set(stats.shm_segments())
    server = Server(workload, trace)
    ctx: dict = {"setup_s": server.setup_s,
                 "model_bytes": server.model_bytes, "report": None}

    def measure(fn):
        if trace:
            server.command(cmd="trace", on=True)
        status0 = server.admin.get_json("/status")
        before = stats.parse_metrics(server.admin.get_text("/metrics"))
        t = time.perf_counter()
        with stats.StealSampler() as sampler:
            result = fn()
        ctx["measured_s"] = time.perf_counter() - t
        ctx["stolen"] = sampler.share
        t = time.perf_counter()
        text = server.admin.get_text("/metrics")
        ctx["scrape_ms"] = (time.perf_counter() - t) * 1e3
        ctx["scrape"] = stats.Scrape(before, stats.parse_metrics(text))
        status1 = server.admin.get_json("/status")
        ctx["invalidations"] = cache_invalidations(status1) \
            - cache_invalidations(status0)
        if trace:
            server.command(cmd="trace", on=False)
        return result

    try:
        if workload == "batch":
            out = drive_batch(prep, server, seconds, trace, measure, first)
        elif workload == "refresh":
            out = drive_refresh(prep, server, seconds, trace, measure, first)
        else:
            out = drive_singles(workload, prep, server, seconds, trace,
                                measure, first)
        if trace:
            ctx["report"] = server.command(
                cmd="report", timeout=120.0,
                path=os.path.join(OUT_DIR, f"trace_{workload}.jsonl"))
        ctx["rss_mb"] = stats.peak_rss_mb(server.pids())
    finally:
        server.stop()
    leaked = sorted(set(stats.shm_segments()) - shm_before)
    out.guard("teardown_clean", not server.pids() and not leaked,
              f"live pids {server.pids()}, leaked segments {leaked}")
    cpu_share = out.cpu_s / out.cpu_wall if out.cpu_wall else 0.0
    out.guard("generator_not_bottleneck", cpu_share <= 0.8,
              f"load.cpu_share {cpu_share:.3f}, need <= 0.8")
    out.guard("answered_some", out.answered > 0 and out.qerrs,
              f"{out.answered} operations answered, {len(out.qerrs)} "
              "estimates scored against the truth")
    if workload == "refresh":
        rejects = ctx["scrape"].total("repro_shadow_rejects_total")
        out.guard("refresh_no_shadow_rejects", rejects == 0,
                  f"{rejects:.0f} refinement candidates rejected")
    return out, ctx


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: `spec.ROUNDS` server lifetimes (a traced run: one), each
    measuring an equal share of ``seconds``.  The end-to-end numbers are
    taken over all rounds; the per-layer ones describe the last."""
    t0 = time.perf_counter()
    plan = workloads.build_plan(workload, seed, seconds, trace)
    prep = {"batch": prepare_batch,
            "refresh": prepare_refresh}.get(workload, prepare_singles)(plan)
    gen_s = time.perf_counter() - t0
    os.makedirs(OUT_DIR, exist_ok=True)
    count = 1 if trace else spec.ROUNDS
    rounds = []
    first = 0
    for _ in range(count):
        rounds.append(run_round(workload, prep, seconds / count, trace,
                                first))
        first = rounds[-1][0].extra["next"]
    outs = [out for out, _ in rounds]
    out, ctx = rounds[-1]

    sliced = steady([(o, c["stolen"]) for o, c in rounds],
                    spec.SLICE_SECONDS[workload])
    ctx.update(gen_s=gen_s, sliced=sliced,
               steal_share=ctx["stolen"](out.started,
                                         out.started + out.wall))
    qerrs = [q for o in outs for q in o.qerrs]
    setups = [c["setup_s"] for _, c in rounds]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_qps": sliced["qps"],
        "lat_p50_ms": sliced["p50"],
        "qerr_p50": stats.percentile(qerrs or [0.0], 50),
        "qerr_p95": stats.percentile(qerrs or [0.0], 95),
        "rss_peak_mb": max(c["rss_mb"] for _, c in rounds),
    }
    end_to_end = {name: (values[name], unit) for name, unit in END_TO_END}
    per_layer = layer_metrics(workload, out, ctx["scrape"], ctx,
                              ctx["report"])
    guards: dict = {}
    for o in outs:
        for name, (good, detail) in o.guards.items():
            if guards.get(name, {"ok": True})["ok"]:
                guards[name] = {"ok": good, "detail": detail}
    failed = sum(o.failed for o in outs)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and all(g["ok"] for g in guards.values()),
        "attempted": sum(o.attempted for o in outs), "failed": failed,
        "digest": prep["digest"], "setups_s": setups, "guards": guards,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in per_layer.items()},
    }


def layer_metrics(workload, out, scrape, ctx, report) -> dict:
    """Every per-layer metric, by layer (= module) name.  Sources: the
    generator itself, the delta of two `/metrics` scrapes, fields the
    door returns, and — traced runs only — the launcher's spans.  A
    metric that does not apply to this workload (or needs spans in an
    untraced run) reads 0."""
    agg = (report or {}).get("aggregates", {})
    steps = (report or {}).get("steps", {})
    n_req = max(out.requests, 1)
    lat_ms = [x * 1e3 for x in out.latencies] or [0.0]
    qps = out.answered / (out.wall or 1.0)
    # what the two scrapes bracket (on `refresh`: the whole cycle)
    measured = ctx.get("measured_s") or out.wall or 1.0
    # `refresh` gates its writer; the `/estimate` traffic the per-request
    # layer metrics describe is its reader
    reads = out.extra.get("reader", out)

    def span(name, field="self_s"):
        return agg.get(name, {}).get(field, 0.0)

    def per_call(name, scale, field="self_s"):
        calls = span(name, "calls")
        return span(name, field) / calls * scale if calls else 0.0

    route = {"batch": "/estimate_batch",
             "refresh": "/feedback"}.get(workload, "/estimate")
    request_ms = scrape.mean_ms("repro_http_request_seconds", route=route)
    lat_mean = statistics.fmean(lat_ms)
    m: dict = {}
    # -- load (perf/)
    m["load.gen_s"] = (ctx.get("gen_s", 0.0), "s")
    m["load.cpu_share"] = (out.cpu_s / (out.cpu_wall or 1.0), "share")
    m["load.requests"] = (out.requests, "count")
    m["load.qps_whole_window"] = (qps, "1/s")
    m["load.lat_mean_ms"] = (lat_mean, "ms")
    m["load.lat_p95_ms"] = (ctx.get("sliced", {}).get("p95", 0.0), "ms")
    m["load.lat_p50_whole_ms"] = (stats.percentile(lat_ms, 50), "ms")
    m["load.lat_p95_whole_ms"] = (stats.percentile(lat_ms, 95), "ms")
    m["load.lat_p99_ms"] = (stats.percentile(lat_ms, 99), "ms")
    m["load.lat_max_ms"] = (max(lat_ms), "ms")
    m["load.late_p95_ms"] = (
        stats.percentile(reads.late or [0.0], 95) * 1e3, "ms")
    m["load.pool_exhausted"] = (int(out.exhausted), "count")
    m["load.steal_share"] = (ctx.get("steal_share", 0.0), "share")
    sliced = ctx.get("sliced", {})
    m["load.slices"] = (sliced.get("slices", 0), "count")
    m["load.clean_slices"] = (sliced.get("clean", 0), "count")
    for key in ("during", "tail"):
        values = reads.extra.get(key + "_ms")
        for q in (50, 95):
            m[f"load.reader_{key}_p{q}_ms"] = (
                stats.percentile(values, q) if values else 0.0, "ms")
    for name in spec.NAMESPACES:
        values = reads.by_namespace.get(name)
        m[f"load.lat_p50_ms.{name}"] = (
            stats.percentile(values, 50) * 1e3 if values else 0.0, "ms")
    # -- sqlparse
    m["sqlparse.calls"] = (span("sqlparse.parse", "calls"), "count")
    m["sqlparse.us_per_call"] = (per_call("sqlparse.parse", 1e6), "us")
    # -- net
    m["net.overhead_p50_ms"] = (
        stats.percentile(reads.overheads, 50) * 1e3 if reads.overheads
        else 0.0, "ms")
    m["net.request_ms_mean"] = (request_ms, "ms")
    m["net.bytes_in_per_req"] = (out.bytes_out / n_req, "bytes")
    m["net.bytes_out_per_req"] = (out.bytes_in / n_req, "bytes")
    m["net.non200"] = (
        scrape.total("repro_http_responses_total")
        - scrape.total("repro_http_responses_total", status="200"), "count")
    m["net.unattributed_ms"] = (lat_mean - request_ms, "ms")
    # -- service
    stage = "repro_serve_stage_seconds"
    m["service.queue_wait_ms_mean"] = (
        scrape.mean_ms(stage, stage="queue_wait"), "ms")
    m["service.compute_ms_mean"] = (
        scrape.mean_ms(stage, stage="compute"), "ms")
    m["service.settle_ms_mean"] = (
        scrape.mean_ms(stage, stage="settle"), "ms")
    m["service.batch_size_mean"] = (
        scrape.mean("repro_serve_batch_size"), "count")
    m["service.flushes"] = (
        scrape.total("repro_serve_flushes_total"), "count")
    m["service.served"] = (scrape.total("repro_serve_served_total"), "count")
    m["service.failures"] = (
        scrape.total("repro_serve_failures_total"), "count")
    m["service.sheds"] = (
        scrape.total("repro_serve_budget_sheds_total"), "count")
    # -- cache
    m["cache.hit_share"] = (reads.hits / max(reads.answered, 1), "share")
    m["cache.get_us_per_call"] = (per_call("cache.get", 1e6), "us")
    m["cache.put_us_per_call"] = (per_call("cache.put", 1e6), "us")
    m["cache.invalidations"] = (ctx.get("invalidations", 0), "count")
    m["cache.warmed"] = (scrape.total("repro_cache_warmed_total"), "count")
    # -- router
    front = "cluster" if spec.FRONT_OF[workload] == "F2" else "router"
    m["router.resolve_us_per_call"] = (
        per_call(f"{front}.resolve", 1e6), "us")
    m["router.submit_self_us_per_call"] = (
        per_call(f"{front}.submit", 1e6), "us")
    m["router.pool_wait_ms"] = (
        scrape.mean_ms("repro_pool_queue_wait_seconds"), "ms")
    m["router.pool_job_s"] = (scrape.mean("repro_pool_job_seconds"), "s")
    # -- scheduler
    m["scheduler.calls"] = (span("scheduler.estimate_many", "calls"),
                            "count")
    m["scheduler.self_ms_per_call"] = (
        per_call("scheduler.estimate_many", 1e3), "ms")
    # -- engine
    batches = scrape.total("repro_engine_batches_total")
    queries = scrape.total("repro_engine_queries_total")
    busy = scrape.total("repro_engine_batch_seconds_sum")
    m["engine.batches"] = (batches, "count")
    m["engine.queries"] = (queries, "count")
    m["engine.queries_per_batch"] = (
        queries / batches if batches else 0.0, "count")
    m["engine.ms_per_query"] = (
        busy / queries * 1e3 if queries else 0.0, "ms")
    m["engine.busy_share"] = (busy / measured, "share")
    for name in spec.NAMESPACES:
        if front == "cluster":
            served = scrape.total("repro_worker_served_total",
                                  namespace=name)
            spent = scrape.total("repro_worker_batch_seconds_sum",
                                 namespace=name)
        else:
            entry = agg.get(f"engine.estimate_batch@{name}", {})
            served, spent = entry.get("n", 0), entry.get("total_s", 0.0)
        m[f"engine.ms_per_query.{name}"] = (
            spent / served * 1e3 if served else 0.0, "ms")
    # -- cluster
    cstage = "repro_cluster_stage_seconds"
    worker_compute = scrape.mean_ms(cstage, stage="worker_compute")
    m["cluster.slot_wait_ms_mean"] = (
        scrape.mean_ms(cstage, stage="slot_wait"), "ms")
    m["cluster.worker_queue_wait_ms_mean"] = (
        scrape.mean_ms(cstage, stage="worker_queue_wait"), "ms")
    m["cluster.worker_compute_ms_mean"] = (worker_compute, "ms")
    m["cluster.collect_ms_mean"] = (
        scrape.mean_ms(cstage, stage="collect"), "ms")
    cluster_lat = scrape.mean_ms("repro_cluster_latency_seconds")
    m["cluster.ipc_ms_mean"] = (
        cluster_lat - worker_compute if cluster_lat else 0.0, "ms")
    m["cluster.worker_busy_share"] = (
        scrape.total("repro_worker_batch_seconds_sum")
        / (measured * spec.CLUSTER_WORKERS), "share")
    m["cluster.sheds"] = (scrape.total("repro_cluster_sheds_total"), "count")
    m["cluster.saturations"] = (
        scrape.total("repro_cluster_saturations_total"), "count")
    # -- train
    data_steps = steps.get("train.ingest_data", 0)
    query_steps = steps.get("train.ingest_queries", 0)
    m["train.ingest_data_s"] = (span("train.ingest_data", "total_s"), "s")
    m["train.ingest_queries_s"] = (
        span("train.ingest_queries", "total_s"), "s")
    m["train.data_steps"] = (data_steps, "count")
    m["train.query_steps"] = (query_steps, "count")
    m["train.ms_per_data_step"] = (
        span("train.ingest_data", "total_s") / data_steps * 1e3
        if data_steps else 0.0, "ms")
    m["train.ms_per_query_step"] = (
        span("train.ingest_queries", "total_s") / query_steps * 1e3
        if query_steps else 0.0, "ms")
    # -- server / modelops / registry
    m["server.refresh_s"] = (out.extra.get("refresh_s", 0.0), "s")
    m["server.refine_s"] = (scrape.mean("repro_refinement_seconds"), "s")
    m["server.refinements"] = (
        scrape.total("repro_refinements_total"), "count")
    m["server.swaps"] = (scrape.total("repro_swaps_total"), "count")
    m["server.drift_triggers"] = (
        scrape.total("repro_drift_triggers_total"), "count")
    m["server.feedback_ms_per_post"] = (
        scrape.mean_ms("repro_http_request_seconds", route="/feedback"),
        "ms")
    m["modelops.gate_s"] = (span("modelops.gate", "total_s"), "s")
    m["modelops.warm_s"] = (span("modelops.warm", "total_s"), "s")
    m["modelops.shadow_rejects"] = (
        scrape.total("repro_shadow_rejects_total"), "count")
    m["modelops.rollbacks"] = (
        scrape.total("repro_rollbacks_total")
        + scrape.total("repro_tripwire_rollbacks_total"), "count")
    m["registry.publish_ms"] = (per_call("registry.publish", 1e3,
                                         "total_s"), "ms")
    # -- core / obs / trace
    m["core.model_bytes"] = (ctx.get("model_bytes", 0), "bytes")
    m["obs.scrape_ms"] = (ctx.get("scrape_ms", 0.0), "ms")
    ref_qps = out.extra.get("ref_qps")
    m["trace.overhead_pct"] = (
        (ref_qps - qps) / ref_qps * 100.0 if ref_qps else 0.0, "%")
    m["trace.spans"] = ((report or {}).get("spans", 0), "count")
    return m


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def contract_line(result: dict) -> str:
    metrics = result["per_layer"] if result["trace"] \
        else result["end_to_end"]
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def show(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for group in ("end_to_end", "per_layer"):
        for name, entry in result[group].items():
            print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    for name, entry in result["guards"].items():
        verdict = "ok  " if entry["ok"] else "FAIL"
        print(f"  guard {verdict} {name}: {entry['detail']}")


def main(argv=None) -> int:
    bench = benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload (for compare.py)")
    parser.add_argument("--out", help="append every run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and a short drift cycle: checks "
                             "the plumbing, measures nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        spec.shrink_for_smoke()

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    results = []
    for name in names:
        for _ in range(args.runs):
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
            show(result)
            results.append(result)
            with open(os.path.join(
                    OUT_DIR, f"result_{name}_trace{args.trace}.json"),
                    "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
    if args.out:
        record = {"benchmark_sha256": hashlib.sha256(json.dumps(
            bench, sort_keys=True).encode()).hexdigest(), "runs": []}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        record["runs"] += results
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(contract_line(results[-1]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
