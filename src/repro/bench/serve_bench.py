"""End-to-end serving benchmark: Section 4.5's incremental scenario live.

Drives the :mod:`repro.serve` subsystem through four phases:

1. **steady** — sustained in-distribution traffic (with realistic query
   repetition) through the micro-batching service; measures q/s and
   p50/p99 latency, and times the same stream through plain engine
   batching as the no-serving-layer baseline;
2. **shifted** — the table grows by 40% (new rows skewed to one region,
   the ``incremental_data`` setup) and the workload shifts onto the new
   region; the stale model's rolling q-error degrades past the drift
   threshold;
3. **hot-swap** — the drift-triggered refinement (staged data ingestion
   + query feedback, both halves of Section 4.5) runs in the background
   while the foreground keeps serving; the swap must lose zero estimates,
   and answers must stay bit-identical to their snapshot's reference
   before *and* after;
4. **post-swap** — the shifted traffic again, on the refined model: the
   rolling q-error must improve.

``python -m repro.bench serving --profile bench`` writes the
``BENCH_serve.json`` artifact; ``--profile ci`` is the tiny smoke profile
the CI workflow gates on.  Violated invariants raise ``RuntimeError`` so
the process exits non-zero.
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from ..core import UAE
from ..data import Table, load
from ..data.schema import make_imdb
from ..serve import (HAVE_SHARED_MEMORY, ChaosPlan, ClusterEstimateService,
                     FeedbackCollector, LoadShedError, ModelOpsConfig,
                     RoutedEstimateService, UAEServer,
                     UnknownNamespaceError, WorkerUnavailableError)
from ..workload import (Predicate, Query, WorkloadConfig,
                        generate_inworkload, summarize)
from ..workload.metrics import qerrors
from .profiles import Profile, current_profile
from .reporting import RESULTS_DIR

BENCH_SERVE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(RESULTS_DIR)), "BENCH_serve.json")
BENCH_INFER_PATH = os.path.join(
    os.path.dirname(os.path.abspath(RESULTS_DIR)), "BENCH_infer.json")

_REPEAT_FRACTION = 0.35     # fraction of the stream that re-asks hot queries
_WAVE = 64                  # closed-loop submission window
_PROBES = 12                # consistency probe set size
_SEED = 1234                # pinned sampling seed for bit-identity checks
_SPLIT = 0.6                # initial fraction of the table; rest arrives live


def _zipf_stream(queries: list, n_total: int,
                 rng: np.random.Generator) -> list:
    """A serving stream with skewed repetition over a base query set."""
    n_unique = max(1, int(round(n_total * (1.0 - _REPEAT_FRACTION))))
    base = list(queries[:n_unique])
    stream = list(base)
    weights = 1.0 / np.arange(1, len(base) + 1, dtype=np.float64)
    weights /= weights.sum()
    hot = rng.choice(len(base), size=n_total - len(base), p=weights)
    stream.extend(base[i] for i in hot)
    perm = rng.permutation(len(stream))
    return [stream[i] for i in perm]


def _serve_stream(server: UAEServer,
                  stream: list) -> tuple[float, list, list]:
    """Closed-loop drive through the micro-batching worker; returns
    (elapsed_seconds, results in stream order, the settled handles)."""
    results, handles = [], []
    start = time.perf_counter()
    for lo in range(0, len(stream), _WAVE):
        requests = [server.submit(q) for q in stream[lo:lo + _WAVE]]
        results.extend(r.result(timeout=120.0) for r in requests)
        handles.extend(requests)
    return time.perf_counter() - start, results, handles


def _phase_latency(handles: list) -> dict[str, float]:
    """Submit-to-settle quantiles over the phase's own request handles."""
    arr = np.array([r.latency() for r in handles], dtype=np.float64)
    if arr.size == 0:
        return {"p50_ms": 0.0, "p99_ms": 0.0}
    return {"p50_ms": float(np.percentile(arr, 50) * 1e3),
            "p99_ms": float(np.percentile(arr, 99) * 1e3)}


def run_multi_table(profile: Profile | None = None,
                    datasets: tuple[str, ...] = ("dmv", "census"),
                    raise_on_failure: bool = True) -> dict:
    """The multi-table front-door scenario: several table namespaces plus
    one join-schema namespace behind a single
    :class:`~repro.serve.RoutedEstimateService`.

    Measures mixed-stream routing throughput and verifies, bit-exactly:

    * **routing parity** — a mixed seeded batch answers each query
      identically to its namespace's direct snapshot reference (queries
      land on the right model, and namespaces do not perturb each
      other's sampling streams);
    * **typed misses** — a query naming unknown columns raises
      :class:`~repro.serve.UnknownNamespaceError`;
    * **namespace isolation** — a drift-triggered hot-swap in the first
      table namespace (run on the shared refinement pool) changes *its*
      answers, while every other namespace's per-version seeded answers
      stay bit-identical and their versions stay put.

    Runs standalone as ``python -m repro.bench serving_multi`` (or via
    ``python -m repro.serve --datasets ...``); ``run_serving`` embeds the
    payload in ``BENCH_serve.json`` under ``"multi_table"``.
    """
    profile = profile or current_profile()
    rng = np.random.default_rng(4242)
    uae_kwargs = dict(hidden=profile.hidden, num_blocks=profile.num_blocks,
                      est_samples=profile.est_samples,
                      dps_samples=max(4, profile.dps_samples),
                      batch_size=profile.batch_size,
                      query_batch_size=profile.query_batch_size)

    front = RoutedEstimateService(
        pool_workers=1, max_batch=32, max_wait_ms=2.0, seed=7,
        refine_epochs=max(4, profile.query_epochs // 2))
    n_each = max(16, profile.serve_stream_queries // 2)
    workloads: dict[str, object] = {}
    for i, name in enumerate(datasets):
        table = load(name, rows=profile.dataset_rows(name))
        uae = UAE(table, seed=i, **uae_kwargs)
        uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
        front.add_table(uae)
        workloads[name] = generate_inworkload(table, n_each, rng)

    schema = make_imdb(n_titles=profile.join_titles, seed=0)
    from ..joins import UAEJoin, generate_job_light_ranges_focused
    join = UAEJoin(schema, sample_size=profile.join_sample, seed=0,
                   **uae_kwargs)
    join.fit(epochs=max(1, profile.join_epochs // 3), mode="data")
    join_name = "imdb_star"
    front.add_join(join, namespace=join_name)
    workloads[join_name] = generate_job_light_ranges_focused(
        schema, max(8, profile.join_test_queries // 4), rng)

    names = front.registry.names()
    swap_ns = datasets[0]
    checks: dict[str, bool] = {}
    rows: list[dict] = []
    probes = {name: list(workloads[name].queries[:_PROBES])
              for name in names}

    # Interleaved mixed stream over every namespace.
    mixed: list = []
    pools = {name: list(workloads[name].queries) for name in names}
    k = 0
    while any(pools.values()):
        name = names[k % len(names)]
        if pools[name]:
            mixed.append(pools[name].pop(0))
        k += 1

    with front:
        # Routing parity: one mixed seeded batch vs per-namespace
        # snapshot references.
        mixed_est = front.estimate_batch(mixed, seed=_SEED, use_cache=False)
        parity = True
        for name in names:
            indices = [i for i, q in enumerate(mixed)
                       if front.resolve(q).name == name]
            ref = front.estimate_on(name, [mixed[i] for i in indices],
                                    seed=_SEED)
            parity = parity and bool(np.array_equal(mixed_est[indices], ref))
        checks["routing_bit_parity"] = parity
        try:
            front.estimate(Query((Predicate("__no_such_column__", "=", 0),)))
            checks["unknown_namespace_raises"] = False
        except UnknownNamespaceError:
            checks["unknown_namespace_raises"] = True

        # Mixed-stream throughput through the per-namespace micro-batchers.
        start = time.perf_counter()
        for lo in range(0, len(mixed), _WAVE):
            requests = [front.submit(q) for q in mixed[lo:lo + _WAVE]]
            for request in requests:
                request.result(timeout=120.0)
        front_qps = len(mixed) / (time.perf_counter() - start)

        # Per-namespace, per-version references before any swap.
        refs_pre = {name: front.estimate_on(name, probes[name], seed=_SEED)
                    for name in names}

        # Drift in the swap namespace only: bad estimates drive its
        # monitor over the threshold; maintain() queues the refinement
        # on the shared pool.
        swap_server = front.namespace(swap_ns).server
        swap_server.feedback.min_observations = min(
            16, len(workloads[swap_ns]))
        swap_server.feedback.threshold = 2.0
        for query, truth in zip(workloads[swap_ns].queries,
                                workloads[swap_ns].cardinalities):
            front.observe(query, truth, estimate=100.0 * max(truth, 1.0))
        jobs = front.maintain(background=True)
        checks["drift_refines_only_swap_namespace"] = \
            list(jobs) == [swap_ns]
        for job in jobs.values():
            job.join(timeout=600.0)

        # Isolation: the swap namespace moved to v2 and answers changed;
        # everyone else is bit-identical on the same seed and version.
        versions = {name: front.namespace(name).version for name in names}
        checks["swap_namespace_bumped"] = versions[swap_ns] == 2
        checks["other_namespaces_unbumped"] = all(
            versions[name] == 1 for name in names if name != swap_ns)
        isolated = True
        for name in names:
            if name == swap_ns:
                continue
            post = front.estimate_on(name, probes[name], seed=_SEED)
            isolated = isolated and bool(
                np.array_equal(post, refs_pre[name]))
        checks["namespace_isolation_bit_identical"] = isolated
        swapped = front.estimate_on(swap_ns, probes[swap_ns], seed=_SEED)
        checks["swap_changes_swapped_namespace"] = \
            not np.array_equal(swapped, refs_pre[swap_ns])
        old = front.estimate_on(swap_ns, probes[swap_ns], version=1,
                                seed=_SEED)
        checks["swapped_namespace_v1_reproducible"] = bool(
            np.array_equal(old, refs_pre[swap_ns]))
        checks["zero_failures"] = all(
            space.server.service.failures == 0 for space in front.registry)

        pool_stats = front.pool.stats()
        stats = front.stats()
        for name in names:
            space = front.namespace(name)
            rows.append({
                "namespace": name, "kind": space.kind,
                "queries": len(workloads[name]),
                "served": stats["namespaces"][name]["service"]["served"],
                "version": versions[name],
                "refined": pool_stats["per_namespace"].get(name, 0),
            })

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "datasets": list(datasets),
        "namespaces": names,
        "swap_namespace": swap_ns,
        "mixed_stream_queries": len(mixed),
        "front_door_qps": front_qps,
        "pool": pool_stats,
        "checks": checks,
        "rows": rows,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed and raise_on_failure:
        raise RuntimeError(
            f"multi-table serving invariants violated: {failed}")
    return {"title": "Multi-table front door: "
                     f"{' + '.join(names)} behind one RoutedEstimateService "
                     f"(profile={profile.name})",
            "columns": ["namespace", "kind", "queries", "served", "version",
                        "refined"],
            **payload}


def run_scale_out(profile: Profile | None = None,
                  raise_on_failure: bool = True) -> dict:
    """The scale-out serving scenario: N shared-nothing worker processes
    behind a :class:`~repro.serve.ClusterEstimateService`.

    Measures aggregate throughput of the same seeded mixed stream at
    each worker count in ``profile.scale_workers`` and verifies:

    * **bit-parity** — the cluster's seeded mixed batch equals the
      single-process :class:`~repro.serve.RoutedEstimateService` on the
      parity slice, per query;
    * **swap propagation** — a zero-copy publish (one shared-memory
      serialization, per-worker rebuild) reaches the owning worker in
      under 250 ms, for every namespace;
    * **post-swap parity** — after the publish, the swapped namespace's
      seeded answers match a direct engine reference on the *new*
      weights (the version-counter contract crossed the process
      boundary);
    * **overload** — under a saturating deadline burst, rejected
      requests are typed ``LoadShedError`` sheds, never failures.

    The 4-vs-1-worker throughput check (>= 2.5x) only exists where it
    can measure something: at >= 4 workers on a host with at least as
    many cores.  Anywhere else the run still executes every worker count
    but ``scale_throughput`` is left out of ``checks`` and listed under
    ``skipped`` with the reason (and ``cpu_limited: true`` when the host
    is the cause) — a 1-core container cannot demonstrate parallel
    speedup, and a check that passes without measuring it is worse than
    none.
    """
    profile = profile or current_profile()
    if not HAVE_SHARED_MEMORY:      # pragma: no cover - platform gate
        return {"title": "Scale-out serving (skipped: no shared_memory)",
                "skipped": {"scale_out": "no multiprocessing.shared_memory"},
                "checks": {}, "rows": [], "columns": []}
    rng = np.random.default_rng(777)
    datasets = tuple(profile.scale_datasets)
    workers = tuple(int(w) for w in profile.scale_workers)
    cores = os.cpu_count() or 1
    uae_kwargs = dict(hidden=profile.hidden, num_blocks=profile.num_blocks,
                      est_samples=profile.est_samples,
                      dps_samples=max(4, profile.dps_samples),
                      batch_size=profile.batch_size,
                      query_batch_size=profile.query_batch_size)

    estimators: dict[str, UAE] = {}
    pools: dict[str, list] = {}
    n_each = max(16, profile.scale_stream_queries // len(datasets))
    for i, name in enumerate(datasets):
        table = load(name, rows=profile.dataset_rows(name))
        uae = UAE(table, seed=i, **uae_kwargs)
        uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
        estimators[name] = uae
        pools[name] = list(generate_inworkload(table, n_each, rng).queries)

    # Interleaved mixed stream: every wave touches every namespace, so
    # multi-worker runs get concurrent per-namespace groups to spread.
    mixed: list = []
    remaining = {name: list(queries) for name, queries in pools.items()}
    k = 0
    while any(remaining.values()):
        name = datasets[k % len(datasets)]
        if remaining[name]:
            mixed.append(remaining[name].pop(0))
        k += 1
    parity_slice = mixed[:min(len(mixed), _PROBES * len(datasets))]

    # Single-process reference for the parity slice.
    front = RoutedEstimateService(max_batch=32, max_wait_ms=2.0, seed=7)
    for name in datasets:
        front.add_table(estimators[name])
    with front:
        parity_ref = front.estimate_batch(parity_slice, seed=_SEED,
                                          use_cache=False)

    checks: dict[str, bool] = {}
    rows: list[dict] = []
    qps: dict[int, float] = {}
    parity_ok = True
    publishes: list[dict] = []
    post_swap_ok = True
    shed_stats: dict = {}

    for n in workers:
        cluster = ClusterEstimateService(workers=n, queue_depth=4, seed=7)
        for name in datasets:
            cluster.add_table(estimators[name])
        with cluster:
            placement = cluster.assignment()
            # Parity on the seeded slice (every worker count must agree
            # with the single-process reference bit-for-bit).
            got = cluster.estimate_batch(parity_slice, seed=_SEED)
            parity_ok = parity_ok and bool(np.array_equal(got, parity_ref))
            # Aggregate throughput: closed-loop waves of the full mixed
            # stream; each wave fans out per-namespace groups across the
            # workers.
            start = time.perf_counter()
            for lo in range(0, len(mixed), _WAVE):
                cluster.estimate_batch(mixed[lo:lo + _WAVE])
            elapsed = time.perf_counter() - start
            qps[n] = len(mixed) / elapsed
            stats = cluster.stats()

            if n == workers[-1]:
                # Zero-copy swap propagation: republish every namespace
                # (weights changed by one refinement epoch) and verify
                # the rebuilt workers answer from the new weights.
                for name in datasets:
                    refined = estimators[name]
                    refined.fit(epochs=1, mode="data")
                    publishes.append(cluster.publish(name, refined))
                for name in datasets:
                    sub = [q for q in parity_slice
                           if cluster.resolve(q).name == name]
                    if not sub:
                        continue
                    got_post = cluster.estimate_batch(sub, seed=_SEED)
                    refined = estimators[name]
                    constraints = [
                        refined.fact.expand_masks(q.masks(refined.table))
                        for q in sub]
                    sels = refined.sampler.scheduler.estimate_many(
                        constraints, refined.sampler.num_samples,
                        np.random.default_rng(_SEED))
                    ref_post = np.clip(sels, 0.0, 1.0) \
                        * refined.table.num_rows
                    post_swap_ok = post_swap_ok and bool(
                        np.array_equal(got_post, ref_post))
            zero_failed = stats["failures"] == 0 \
                and stats["unavailable"] == 0
            rows.append({"workers": n, "queries": len(mixed),
                         "qps": qps[n],
                         "namespaces": len(datasets),
                         "distinct_owners": len(set(placement.values())),
                         "failures": stats["failures"],
                         "sheds": stats["sheds"]})
            checks[f"zero_failed_{n}w"] = zero_failed

    # Overload segment: a saturating deadline burst against a
    # queue_depth-1 cluster.  Every rejected request must be a typed
    # shed; none may surface as a failure.
    overload = ClusterEstimateService(workers=min(2, max(workers)),
                                      queue_depth=1, seed=7)
    for name in datasets:
        overload.add_table(estimators[name])
    with overload:
        burst_ns = datasets[0]
        burst = (pools[burst_ns] * 3)[:max(48, _WAVE)]
        overload.estimate_batch(burst[:8])     # warm the latency EWMA
        requests = [overload.submit(q, deadline_ms=1.0) for q in burst]
        shed, ok, other = 0, 0, 0
        for request in requests:
            try:
                request.result(timeout=60.0)
                ok += 1
            except LoadShedError:
                shed += 1
            except Exception:               # noqa: BLE001 - counted below
                other += 1
        over_stats = overload.stats()
        shed_stats = {"burst": len(burst), "answered": ok, "shed": shed,
                      "untyped_errors": other,
                      "failures": over_stats["failures"],
                      "saturations": over_stats["saturations"]}
    checks["parity_vs_single_process"] = parity_ok
    checks["post_swap_parity"] = post_swap_ok
    max_prop = max((p["propagation_ms"] for p in publishes), default=0.0)
    checks["swap_propagation_under_250ms"] = max_prop < 250.0
    checks["overload_sheds_typed"] = shed > 0 and other == 0 \
        and shed_stats["failures"] == 0
    cpu_limited = cores < max(workers)
    skipped: dict[str, str] = {}
    if cpu_limited:
        skipped["scale_throughput"] = \
            f"cpu_count {cores} < workers {max(workers)}"
    elif max(workers) < 4:
        skipped["scale_throughput"] = \
            f"the >= 2.5x gate is defined at 4 workers; ran {max(workers)}"
    else:
        checks["scale_throughput"] = \
            qps[max(workers)] >= 2.5 * qps[min(workers)]

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "datasets": list(datasets),
        "worker_counts": list(workers),
        "cpu_count": cores,
        "cpu_limited": cpu_limited,
        "stream_queries": len(mixed),
        "parity_queries": len(parity_slice),
        "qps_by_workers": {str(n): qps[n] for n in workers},
        "speedup_max_vs_1": qps[max(workers)] / qps[min(workers)],
        "publishes": publishes,
        "max_propagation_ms": max_prop,
        "overload": shed_stats,
        "checks": checks,
        "skipped": skipped,
        "rows": rows,
    }
    failed = [name for name, ok_ in checks.items() if not ok_]
    if failed and raise_on_failure:
        raise RuntimeError(
            f"scale-out serving invariants violated: {failed} "
            f"[qps {payload['qps_by_workers']}; max propagation "
            f"{max_prop:.1f} ms; overload {shed_stats}]")
    return {"title": "Scale-out serving: shared-nothing workers, "
                     "zero-copy hot-swap, load-shedding balancer "
                     f"(profile={profile.name})",
            "columns": ["workers", "queries", "qps", "namespaces",
                        "distinct_owners", "failures", "sheds"],
            **payload}


def run_chaos(profile: Profile | None = None,
              raise_on_failure: bool = True,
              include_single: bool = True,
              include_cluster: bool = True,
              workers: int = 2) -> dict:
    """The self-healing chaos scenario: seeded faults injected into the
    serving stack must be *healed*, not merely survived.

    Single-process part (model-ops, :mod:`repro.serve.modelops`):

    * **shadow reject** — a ``refine.weights`` poison fault corrupts a
      refinement candidate; shadow validation must reject it, publish
      nothing, and restore the trainer bit-identically;
    * **tripwire rollback** — the same poison published past a disabled
      gate must trip the post-swap q-error tripwire within a bounded
      observation window and auto-roll-back; post-heal seeded answers
      must be bit-identical to pre-fault and post-heal accuracy no worse
      than the pre-fault ceiling;
    * **publish drop + cache warm** — a dropped publish attempt must be
      retried transparently, and the post-swap warmer must prime the
      result cache with the hottest signatures;
    * **feedback corruption** — a corrupted truth label must flow
      through as a (bad) typed observation, never a crash.

    Cluster part (supervision, :mod:`repro.serve.supervisor`): a
    ``worker.batch`` kill fault SIGKILLs a worker mid-stream; the
    supervisor must restart it within a bounded window, the restarted
    worker must serve bit-identical seeded answers from the retained
    snapshot segments, and every surfaced error must be typed.
    """
    profile = profile or current_profile()
    rng = np.random.default_rng(97)
    uae_kwargs = dict(hidden=profile.hidden, num_blocks=profile.num_blocks,
                      est_samples=profile.est_samples,
                      dps_samples=max(4, profile.dps_samples),
                      batch_size=profile.batch_size,
                      query_batch_size=profile.query_batch_size)
    checks: dict[str, bool] = {}
    rows: list[dict] = []
    detail: dict = {}

    if include_single:
        name = profile.scale_datasets[0]
        table = load(name, rows=profile.dataset_rows(name))
        uae = UAE(table, seed=0, **uae_kwargs)
        uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
        n_queries = max(24, profile.scale_stream_queries // 2)
        # Wide queries (few filters, generous bounds): truths well above
        # 1, so a poisoned model's collapsed estimates (floored at 1 by
        # the q-error metric) are *distinguishable* from healthy ones —
        # hyper-selective probes would make every model look fine.
        wl = generate_inworkload(
            table, n_queries, rng,
            cfg=WorkloadConfig(num_filters_min=1, num_filters_max=2,
                               bounded_volume=0.3))
        probes = list(wl.queries[:_PROBES])

        # ------------------------------------------------------------
        # 1. Shadow reject: poisoned candidate never publishes.
        plan_a = ChaosPlan(seed=11)
        plan_a.inject("refine.weights", "poison", at=1,
                      params={"magnitude": 25.0})
        cfg_a = ModelOpsConfig(reject_ratio=1.5, min_probes=4,
                               cooldown_s=0.0, warm_top_n=0)
        server_a = UAEServer(uae, refine_epochs=2, max_batch=32,
                             max_wait_ms=2.0, seed=7, chaos=plan_a,
                             modelops=cfg_a)
        with server_a:
            ests = server_a.estimate_batch(wl.queries)
            for q, est, tru in zip(wl.queries, ests, wl.cardinalities):
                server_a.observe(q, tru, estimate=float(est))
            ref_pre = server_a.estimate_batch(probes, seed=_SEED,
                                              use_cache=False)
            record = server_a.refine()
            ref_post = server_a.estimate_batch(probes, seed=_SEED,
                                               use_cache=False)
            checks["shadow_reject_fired"] = bool(
                server_a.modelops.rejects) and bool(
                record and record.get("rejected"))
            checks["reject_no_publish"] = server_a.registry.version == 1
            checks["reject_restores_weights"] = bool(
                np.array_equal(ref_pre, ref_post))

            # Feedback-stream corruption: contained, typed, observable.
            plan_a.inject("feedback.record", "corrupt", at=1,
                          params={"factor": 500.0})
            q0 = wl.queries[0]
            err = server_a.observe(q0, float(wl.cardinalities[0]),
                                   estimate=float(ests[0]))
            checks["feedback_corruption_contained"] = \
                err >= 10.0 and server_a.service.failures == 0
            stats_a = server_a.modelops.stats()
        rows.append({"fault": "poison-refinement", "action": "reject",
                     "observations": len(wl), "version": 1})
        detail["shadow"] = {"verdict": stats_a["last_verdict"],
                            "rejects": stats_a["rejects"]}

        # ------------------------------------------------------------
        # 2. Tripwire rollback: the same poison published past a
        #    disabled gate must be rolled back from live traffic.
        plan_b = ChaosPlan(seed=13)
        plan_b.inject("refine.weights", "poison", at=1,
                      params={"magnitude": 25.0})
        plan_b.inject("publish.snapshot", "drop", at=2)
        cfg_b = ModelOpsConfig(reject_ratio=float("inf"),
                               tripwire_ratio=2.0, tripwire_window=16,
                               tripwire_min_obs=6, cooldown_s=0.0,
                               warm_top_n=16)
        server_b = UAEServer(uae.clone(), refine_epochs=2, max_batch=32,
                             max_wait_ms=2.0, seed=7, chaos=plan_b,
                             modelops=cfg_b)
        with server_b:
            ests = server_b.estimate_batch(wl.queries)
            for q, est, tru in zip(wl.queries, ests, wl.cardinalities):
                server_b.observe(q, tru, estimate=float(est))
            pre_seeded = server_b.estimate_batch(wl.queries, seed=_SEED,
                                                 use_cache=False)
            pre_q = float(qerrors(pre_seeded, wl.cardinalities).mean())
            refs_pre = server_b.estimate_batch(probes, seed=_SEED,
                                               use_cache=False)
            server_b.refine()                  # publishes poisoned v2
            checks["poison_published"] = server_b.registry.version == 2
            budget = 3 * (cfg_b.tripwire_min_obs + cfg_b.tripwire_window)
            obs_to_rollback = 0
            for i in range(budget):
                q = wl.queries[i % len(wl.queries)]
                tru = float(wl.cardinalities[i % len(wl.queries)])
                server_b.observe(q, tru, estimate=server_b.estimate(q))
                obs_to_rollback += 1
                if server_b.registry.version >= 3:
                    break
            checks["tripwire_rollback_fired"] = bool(
                server_b.modelops.rollbacks) \
                and server_b.registry.version == 3
            checks["rollback_within_window"] = obs_to_rollback <= \
                cfg_b.tripwire_min_obs + cfg_b.tripwire_window
            post_heal = server_b.estimate_batch(probes, seed=_SEED,
                                                use_cache=False)
            checks["postheal_bit_identical"] = bool(
                np.array_equal(post_heal, refs_pre))
            post_seeded = server_b.estimate_batch(wl.queries, seed=_SEED,
                                                  use_cache=False)
            post_q = float(qerrors(post_seeded, wl.cardinalities).mean())
            checks["postheal_qerr_under_ceiling"] = \
                post_q <= max(pre_q, 1.0) * 1.05
            rows.append({"fault": "poison-refinement+tripwire",
                         "action": "rollback",
                         "observations": obs_to_rollback,
                         "version": server_b.registry.version})

            # --------------------------------------------------------
            # 3. Dropped publish heals by retry; the validated publish
            #    warms the cache with the hottest signatures.
            for q, est, tru in zip(wl.queries, ests, wl.cardinalities):
                server_b.observe(q, tru, estimate=float(est))
            server_b.refine()                  # drop fault -> retry -> v4
            fired = [f["hook"] for f in plan_b.fired_log]
            checks["publish_drop_healed"] = \
                fired.count("publish.snapshot") == 1 \
                and server_b.registry.version == 4
            server_b.modelops.join_warm(timeout=30.0)
            hot = server_b.service.hot_queries(1)
            req = server_b.submit(hot[0]) if hot else None
            if req is not None:
                req.result(timeout=60.0)
            checks["warm_primes_cache"] = \
                server_b.modelops.warmed > 0 and req is not None \
                and req.from_cache \
                and req.version == server_b.registry.version
            checks["zero_untyped_singleproc"] = \
                server_a.service.failures == 0 \
                and server_b.service.failures == 0
            detail["tripwire"] = server_b.modelops.stats()
        rows.append({"fault": "drop-publish", "action": "retry+warm",
                     "observations": server_b.modelops.warmed,
                     "version": server_b.registry.version})

    if include_cluster:
        if not HAVE_SHARED_MEMORY:  # pragma: no cover - platform gate
            checks["cluster_skipped_no_shared_memory"] = True
        else:
            datasets = tuple(profile.scale_datasets)
            estimators: dict[str, UAE] = {}
            pools: dict[str, list] = {}
            n_each = max(16, profile.scale_stream_queries // len(datasets))
            for i, name in enumerate(datasets):
                table = load(name, rows=profile.dataset_rows(name))
                est = UAE(table, seed=i, **uae_kwargs)
                est.fit(epochs=max(1, profile.epochs // 3), mode="data")
                estimators[name] = est
                pools[name] = list(
                    generate_inworkload(table, n_each, rng).queries)

            plan_c = ChaosPlan(seed=29)
            # 2nd batch of worker w0's first incarnation dies; the
            # restarted incarnation runs healthy.  w1's first batch is
            # merely slow (latency fault): it must answer, not crash.
            plan_c.inject("worker.batch", "kill", at=2,
                          where={"worker": "w0", "incarnation": 0})
            plan_c.inject("worker.batch", "sleep", at=1,
                          where={"worker": "w1"},
                          params={"seconds": 0.05})
            cluster = ClusterEstimateService(workers=max(2, workers),
                                             queue_depth=4, seed=7,
                                             chaos=plan_c)
            for name in datasets:
                cluster.add_table(estimators[name])
            untyped = 0
            with cluster:
                supervisor = cluster.supervise(
                    poll_interval=0.02, backoff_base_s=0.02,
                    backoff_max_s=0.5, max_restarts=3, seed=7)
                slices = {name: [q for q in pools[name][:_PROBES]]
                          for name in datasets}
                # On profiles with more namespaces than workers w0 owns
                # several, so the kill can fire while these references
                # are computed; retry through the healing window (the
                # restarted worker answers bit-identically, so the
                # reference stays valid either way).
                refs = {}
                ref_deadline = time.perf_counter() + 60.0
                for name in datasets:
                    while True:
                        try:
                            refs[name] = cluster.estimate_batch(
                                slices[name], seed=_SEED)
                            break
                        except (WorkerUnavailableError, LoadShedError):
                            if time.perf_counter() > ref_deadline:
                                raise
                            time.sleep(0.05)
                # Drive mixed waves; the kill fires on w0's 2nd batch.
                # Typed unavailability is retried (that is the healing
                # window); anything untyped is a hard failure.
                mixed = [q for pair in zip(*pools.values()) for q in pair]
                deadline = time.perf_counter() + 60.0
                lo, waves = 0, 0
                while lo < len(mixed) and time.perf_counter() < deadline:
                    try:
                        cluster.estimate_batch(mixed[lo:lo + 8])
                        lo += 8
                        waves += 1
                    except (WorkerUnavailableError, LoadShedError):
                        time.sleep(0.05)
                    except Exception:   # noqa: BLE001 - counted + gated
                        untyped += 1
                        lo += 8
                t_restart = time.perf_counter()
                while time.perf_counter() < deadline \
                        and not supervisor.restarts:
                    time.sleep(0.02)
                restart_s = time.perf_counter() - t_restart
                checks["kill_fired"] = any(
                    f["hook"] == "worker.batch" and f["action"] == "kill"
                    for f in plan_c.fired_log) \
                    or cluster.stats()["workers"].get("w0", {}) \
                        .get("incarnation", 0) >= 1
                checks["worker_restarted"] = len(supervisor.restarts) >= 1
                checks["restart_within_window"] = \
                    bool(supervisor.restarts) and restart_s < 30.0
                post = {}
                for name in datasets:
                    for _ in range(40):     # restarted worker settles
                        try:
                            post[name] = cluster.estimate_batch(
                                slices[name], seed=_SEED)
                            break
                        except (WorkerUnavailableError, LoadShedError):
                            time.sleep(0.05)
                checks["restart_bit_identical"] = all(
                    name in post and bool(
                        np.array_equal(post[name], refs[name]))
                    for name in datasets)
                stats = cluster.stats()
                checks["cluster_zero_untyped"] = untyped == 0 \
                    and stats["failures"] == 0
                detail["cluster"] = {
                    "restarts": supervisor.stats()["restarts"],
                    "restart_wait_s": restart_s,
                    "waves": waves,
                    "incarnations": {
                        wid: w["incarnation"]
                        for wid, w in stats["workers"].items()},
                    "fired": plan_c.summary()["fired"],
                }
            rows.append({"fault": "kill-worker+slow-worker",
                         "action": "restart",
                         "observations": len(mixed),
                         "version": len(supervisor.restarts)})

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "checks": checks,
        "detail": detail,
        "rows": rows,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed and raise_on_failure:
        raise RuntimeError(
            f"chaos healing invariants violated: {failed} "
            f"[detail {detail}]")
    return {"title": "Self-healing under deterministic chaos: shadow "
                     "rejects, tripwire rollback, worker supervision "
                     f"(profile={profile.name})",
            "columns": ["fault", "action", "observations", "version"],
            **payload}


def run_serving(profile: Profile | None = None,
                write_artifact: bool = True,
                include_multi_table: bool = True,
                include_scale_out: bool = True,
                include_open_loop: bool = True,
                include_chaos: bool = True) -> dict:
    """The serving scenario; returns the usual experiment dict.

    After the single-table loop, the multi-table front-door scenario
    (:func:`run_multi_table`) runs too; its payload lands in the
    artifact under ``"multi_table"`` and its checks join the gate with
    an ``mt_`` prefix.  The scale-out cluster scenario
    (:func:`run_scale_out`) follows under ``"scale_out"`` with an
    ``so_`` prefix (skipped automatically where
    ``multiprocessing.shared_memory`` is unavailable; a check it could
    not measure is listed under ``"skipped"`` with the reason, never in
    ``checks``), the
    open-loop HTTP load scenario
    (:func:`~repro.bench.load_bench.run_open_loop`) under
    ``"open_loop"`` with its own ``ol_``-prefixed checks, and the
    self-healing chaos scenario (:func:`run_chaos`) under ``"chaos"``
    with a ``ch_`` prefix.
    """
    profile = profile or current_profile()
    rng = np.random.default_rng(2024)

    # The table starts at 60% of its rows (sorted by the first column, as
    # in the ``incremental_data`` experiment); the rest arrives mid-run.
    full = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    order = np.argsort(full.codes[:, 0], kind="stable")
    split = int(_SPLIT * full.num_rows)
    base = Table(full.name, full.columns, full.codes[order[:split]])
    new_rows = full.codes[order[split:]]
    col0 = full.columns[0]
    c_star = int(full.codes[order[split], 0])

    # Data-only pretraining on the initial table: the model has never
    # seen query feedback, so the shifted phase exercises exactly the
    # paper's Section 4.5 loop.
    uae = UAE(base, hidden=profile.hidden, num_blocks=profile.num_blocks,
              est_samples=profile.est_samples,
              dps_samples=max(16, profile.dps_samples),
              batch_size=profile.batch_size,
              query_batch_size=profile.query_batch_size, seed=0)
    uae.fit(epochs=max(2, profile.epochs // 3), mode="data")

    n_stream = profile.serve_stream_queries
    steady = generate_inworkload(base, n_stream, rng)
    truth_of = dict(zip(steady.queries, steady.cardinalities))
    stream = _zipf_stream(steady.queries, n_stream, rng)

    # Shifted workload: bounded on the insert region of the sort column,
    # truths against the *grown* table — the stale model is systematically
    # wrong there.
    lo_rel = min(0.95, c_star / max(col0.size - 1, 1) + 0.02)
    shift_cfg = WorkloadConfig(center_range=(lo_rel, 1.0),
                               bounded_volume=0.08,
                               num_filters_min=2, num_filters_max=5)
    # Floor of 64: the drift decision quantiles a rolling window of this
    # stream, and fewer observations make the p90 too noisy to gate on.
    n_shift = max(64, profile.incremental_train)
    shift_fb = generate_inworkload(full, n_shift, rng,
                                   bounded_column=col0.name, cfg=shift_cfg)
    shift_test = generate_inworkload(full, profile.incremental_test, rng,
                                     bounded_column=col0.name, cfg=shift_cfg)

    feedback = FeedbackCollector(
        window=max(64, n_shift), capacity=2 * n_shift,
        min_observations=min(32, n_shift), quantile=0.9, threshold=3.0)
    server = UAEServer(uae, feedback=feedback, refine_epochs=12,
                       data_epochs=3, max_batch=32, max_wait_ms=2.0, seed=7)
    rows: list[dict] = []
    checks: dict[str, bool] = {}

    probes = steady.queries[:_PROBES]
    with server:
        # ----------------------------------------------------------
        # Pre-swap consistency: service answers == snapshot reference.
        v1 = server.registry.active()
        svc_pre = server.estimate_batch(probes, seed=_SEED, use_cache=False)
        svc_pre_again = server.estimate_batch(probes, seed=_SEED,
                                              use_cache=False)
        ref_pre = server.service.estimate_on(v1, probes, seed=_SEED)
        checks["pre_swap_bit_identical"] = bool(
            np.array_equal(svc_pre, ref_pre)
            and np.array_equal(svc_pre, svc_pre_again))

        # ----------------------------------------------------------
        # Phase 1: steady traffic through the micro-batching worker.
        server.estimate_batch(steady.queries[:8])  # warm engine + caches
        elapsed, results, handles = _serve_stream(server, stream)
        serving_qps = len(stream) / elapsed
        steady_truths = np.array([truth_of[q] for q in stream])
        steady_err = summarize(np.array(results), steady_truths)
        for q, est, tru in zip(stream, results, steady_truths):
            server.feedback.record(q, est, tru)
        rows.append({"phase": "steady", "queries": len(stream),
                     "qps": serving_qps,
                     **_phase_latency(handles),
                     "qerr_mean": steady_err.mean,
                     "qerr_p95": steady_err.p95,
                     "version": server.registry.version})

        # Plain engine batching over the identical stream: the
        # no-serving-subsystem baseline (chunked estimate_batch, as in
        # the BENCH_infer latency bench).
        sampler = v1.model.sampler
        constraints = [v1.model.fact.expand_masks(q.masks(base))
                       for q in stream]
        start = time.perf_counter()
        for lo in range(0, len(constraints), 8):
            sampler.estimate_batch(constraints[lo:lo + 8])
        engine_qps = len(stream) / (time.perf_counter() - start)

        # Drift threshold: degradation relative to the steady state
        # (1.25x the steady p90, floored — the shifted phase degrades the
        # tail well past this; steady traffic stays under it).
        steady_p90 = server.feedback.monitor.quantile(0.9)
        server.feedback.threshold = max(2.5, 1.25 * steady_p90)
        checks["steady_no_refine"] = not server.feedback.should_refine()

        # ----------------------------------------------------------
        # Phase 2: 40% of the table arrives (staged for the next
        # refinement; stale feedback labels are dropped), and the
        # workload shifts onto the new region.
        server.stage_data(new_rows)
        shifted_elapsed, shift_est, handles = _serve_stream(
            server, shift_fb.queries)
        for q, est, tru in zip(shift_fb.queries, shift_est,
                               shift_fb.cardinalities):
            server.feedback.record(q, est, tru)
        before = summarize(np.array(shift_est), shift_fb.cardinalities)
        heldout_before = summarize(
            server.estimate_batch(shift_test.queries, seed=_SEED + 1),
            shift_test.cardinalities)
        drift = server.feedback.drift()
        checks["drift_triggered"] = server.feedback.should_refine()
        rows.append({"phase": "shifted", "queries": len(shift_fb),
                     "qps": len(shift_fb) / shifted_elapsed,
                     **_phase_latency(handles),
                     "qerr_mean": before.mean, "qerr_p95": before.p95,
                     "version": server.registry.version})

        # ----------------------------------------------------------
        # Phase 3: background refinement + hot-swap under live traffic.
        # The swap stream uses *fresh* queries (nothing cached), so both
        # the outgoing and the incoming snapshot serve real engine work.
        swap_wl = generate_inworkload(full, min(64, n_stream), rng)
        failures_before = server.service.failures
        refine_thread = server.refine(background=True)
        swap_served = 0
        swap_versions: set[int] = set()
        while refine_thread is not None and refine_thread.is_alive():
            request = server.submit(
                swap_wl.queries[swap_served % len(swap_wl.queries)])
            request.result(timeout=120.0)
            swap_versions.add(request.version)
            swap_served += 1
            if request.from_cache:
                # Once the rotation is fully cached the loop would spin
                # at memory speed, starving the refinement thread it is
                # waiting on; pace like a real client instead.
                time.sleep(0.001)
        server.join_refinement()
        # One more wave after the swap so the new version shows up even
        # when refinement finishes between foreground requests.
        for q in probes:
            req = server.submit(q)
            req.result(timeout=120.0)
            swap_versions.add(req.version)
            swap_served += 1
        checks["swap_zero_failed"] = \
            server.service.failures == failures_before
        checks["swap_spans_versions"] = len(swap_versions) >= 2 \
            and server.registry.version in swap_versions
        # No qps/latency/q-error cells: the swap stream is paced load,
        # not a measurement (and NaN would corrupt the JSON artifact).
        rows.append({"phase": "hot-swap", "queries": swap_served,
                     "version": server.registry.version})

        # ----------------------------------------------------------
        # Post-swap consistency + accuracy on the shifted traffic.
        v2 = server.registry.active()
        svc_post = server.estimate_batch(probes, seed=_SEED, use_cache=False)
        ref_post = server.service.estimate_on(v2, probes, seed=_SEED)
        checks["post_swap_bit_identical"] = bool(
            np.array_equal(svc_post, ref_post))
        old = server.registry.get(v1.version)
        checks["old_version_reproducible"] = old is not None and bool(
            np.array_equal(server.service.estimate_on(old, probes,
                                                      seed=_SEED), svc_pre))
        checks["weights_actually_swapped"] = not np.array_equal(svc_pre,
                                                                svc_post)

        post_elapsed, after_est, handles = _serve_stream(
            server, shift_fb.queries)
        after = summarize(np.array(after_est), shift_fb.cardinalities)
        heldout_after = summarize(
            server.estimate_batch(shift_test.queries, seed=_SEED + 1),
            shift_test.cardinalities)
        rows.append({"phase": "post-swap shifted",
                     "queries": len(shift_fb),
                     "qps": len(shift_fb) / post_elapsed,
                     **_phase_latency(handles),
                     "qerr_mean": after.mean, "qerr_p95": after.p95,
                     "version": server.registry.version})

        improvement = before.mean / max(after.mean, 1e-9)
        checks["qerror_improves"] = after.mean <= before.mean
        checks["zero_failures"] = server.service.failures == 0
        p99 = rows[0]["p99_ms"]
        checks["latency_sane"] = p99 < 2000.0
        qps_floor = 0.9 if profile.name == "ci" else 1.0
        checks["throughput_beats_engine"] = \
            serving_qps >= qps_floor * engine_qps
        stats = server.stats()

    multi = None
    if include_multi_table:
        multi = run_multi_table(profile, raise_on_failure=False)
        checks.update({f"mt_{name}": ok
                       for name, ok in multi["checks"].items()})
        rows.extend({"phase": f"mt:{row['namespace']}",
                     "queries": row["queries"],
                     "version": row["version"]}
                    for row in multi["rows"])

    scale = None
    skipped: dict[str, str] = {}
    if include_scale_out:
        scale = run_scale_out(profile, raise_on_failure=False)
        checks.update({f"so_{name}": ok
                       for name, ok in scale["checks"].items()})
        skipped.update({f"so_{name}": reason
                        for name, reason in scale["skipped"].items()})
        rows.extend({"phase": f"so:{row['workers']}w",
                     "queries": row["queries"], "qps": row["qps"]}
                    for row in scale.get("rows", []))

    open_loop = None
    if include_open_loop:
        from .load_bench import run_open_loop
        open_loop = run_open_loop(profile, raise_on_failure=False)
        checks.update(open_loop["checks"])      # already ol_-prefixed
        rows.extend({"phase": f"ol:{row['fraction_of_capacity']}x",
                     "queries": row["sent"],
                     "qps": row["achieved_qps"],
                     "p50_ms": row["p50_ms"], "p99_ms": row["p99_ms"]}
                    for row in open_loop.get("rows", []))

    chaos = None
    if include_chaos:
        chaos = run_chaos(profile, raise_on_failure=False)
        checks.update({f"ch_{name}": ok
                       for name, ok in chaos["checks"].items()})
        rows.extend({"phase": f"ch:{row['fault']}",
                     "queries": row["observations"]}
                    for row in chaos.get("rows", []))

    infer_reference = None
    if os.path.exists(BENCH_INFER_PATH):
        try:
            with open(BENCH_INFER_PATH) as fh:
                infer_reference = json.load(fh).get("engine_qps")
        except (OSError, ValueError):
            pass

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "dataset": "dmv",
        "num_rows": full.num_rows,
        "initial_rows": base.num_rows,
        "num_samples": profile.est_samples,
        "stream_queries": len(stream),
        "repeat_fraction": _REPEAT_FRACTION,
        "serving_qps": serving_qps,
        "engine_qps_baseline": engine_qps,
        "infer_bench_engine_qps": infer_reference,
        "p50_ms": rows[0]["p50_ms"],
        "p99_ms": rows[0]["p99_ms"],
        "drift_at_trigger": drift,
        "drift_threshold": server.feedback.threshold,
        "qerr_shifted_before": before.row(),
        "qerr_shifted_after": after.row(),
        "qerr_heldout_before": heldout_before.row(),
        "qerr_heldout_after": heldout_after.row(),
        "qerr_improvement": improvement,
        "swap_served": swap_served,
        "swap_versions": sorted(swap_versions),
        "refinements": server.refinements,
        "service": stats["service"],
        "checks": checks,
        "skipped": skipped,
        "rows": rows,
    }
    if multi is not None:
        payload["multi_table"] = {k: v for k, v in multi.items()
                                  if k not in ("title", "columns")}
    if scale is not None:
        payload["scale_out"] = {k: v for k, v in scale.items()
                                if k not in ("title", "columns")}
    if open_loop is not None:
        payload["open_loop"] = {k: v for k, v in open_loop.items()
                                if k not in ("title", "columns")}
    if chaos is not None:
        payload["chaos"] = {k: v for k, v in chaos.items()
                            if k not in ("title", "columns")}
    if write_artifact:
        try:
            with open(BENCH_SERVE_PATH, "w") as fh:
                json.dump(payload, fh, indent=2)
        except OSError as exc:  # never discard timed results over a write
            print(f"warning: could not write {BENCH_SERVE_PATH}: {exc}")

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(
            f"serving bench invariants violated: {failed} "
            f"[drift {drift:.2f} vs threshold "
            f"{server.feedback.threshold:.2f}; shifted q-error mean "
            f"{before.mean:.2f} -> {after.mean:.2f}; serving "
            f"{serving_qps:.0f} q/s vs engine {engine_qps:.0f} q/s; "
            f"p99 {p99:.1f} ms; failures {server.service.failures}]; see "
            f"{BENCH_SERVE_PATH if write_artifact else 'payload'}")

    return {"title": "Online serving: micro-batched estimates, hot-swap, "
                     f"feedback refinement (DMV, profile={profile.name})",
            "columns": ["phase", "queries", "qps", "p50_ms", "p99_ms",
                        "qerr_mean", "qerr_p95", "version"],
            "rows": rows,
            **{k: v for k, v in payload.items() if k != "rows"}}
