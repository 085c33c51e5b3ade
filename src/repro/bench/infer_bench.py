"""Inference-engine latency/throughput microbenchmark.

Measures ``InferenceEngine.estimate_batch`` (the compiled engine) and
the scheduler-grouped ``BatchScheduler.estimate_many`` path (what
``UAE.cardinalities`` runs), each called directly, over one seeded DMV
workload, and A/B-gates the cost of the engine's metrics
instrumentation.
Agreement with the reference loop is a tier-1 contract
(``tests/test_infer_engine.py``), not a bench row.

Run ``python -m repro.bench latency --profile bench`` to regenerate the
``BENCH_infer.json`` artifact at the repo root (plus the usual
``results/latency.json``).
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

import numpy as np

from ..core import UAE
from ..data import load
from ..infer import InferenceEngine
from ..workload import generate_inworkload
from .profiles import Profile, current_profile
from .reporting import save_bench

_LATENCY_QUERIES = {"small": 16, "bench": 64, "paper": 256}

#: hard ceiling on metrics-instrumentation overhead for the engine path
#: (median over interleaved instrumented/uninstrumented reps)
OBS_OVERHEAD_PCT = 7.0


def _time_batches(engine: InferenceEngine, constraints: list[list],
                  batch_queries: int, num_samples: int,
                  rng: np.random.Generator) -> float:
    """Wall-clock seconds for chunked ``estimate_batch``."""
    start = time.perf_counter()
    for lo in range(0, len(constraints), batch_queries):
        engine.estimate_batch(constraints[lo:lo + batch_queries],
                              num_samples, rng)
    return time.perf_counter() - start


def _measure_obs_overhead(engine: InferenceEngine,
                          constraints: list[list], batch_queries: int,
                          num_samples: int, rng: np.random.Generator,
                          reps: int = 5) -> tuple[float, float]:
    """Median wall-clock for the engine path with metrics off vs on.

    Reps are interleaved (off, on, off, on, ...) so thermal drift and
    background load hit both arms equally; medians shrug off outliers.
    """
    from ..obs import MetricsRegistry

    plain: list[float] = []
    instrumented: list[float] = []
    try:
        for _ in range(reps):
            engine.metrics = None
            plain.append(_time_batches(engine, constraints, batch_queries,
                                       num_samples, rng))
            engine.metrics = MetricsRegistry()
            instrumented.append(_time_batches(engine, constraints,
                                              batch_queries, num_samples,
                                              rng))
    finally:
        engine.metrics = None
    return float(np.median(plain)), float(np.median(instrumented))


def run_infer_latency(profile: Profile | None = None,
                      batch_queries: int = 8) -> dict:
    """Compiled-engine and scheduler throughput on the DMV workload."""
    profile = profile or current_profile()
    n_queries = _LATENCY_QUERIES.get(profile.name, 64)
    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    uae = UAE(table, hidden=profile.hidden, num_blocks=profile.num_blocks,
              est_samples=profile.est_samples, seed=0)
    rng = np.random.default_rng(1234)
    workload = generate_inworkload(table, n_queries, rng)
    constraints = [uae.constraints(q) for q in workload.queries]

    samples = profile.est_samples
    engine = InferenceEngine(uae.model)
    rng = np.random.default_rng(5)
    # Warm the path (buffer pools for every chunk's shapes, compiled
    # caches, BLAS threads, the allocator) on one untimed pass so the
    # measured loop is steady-state.
    _time_batches(engine, constraints, batch_queries, samples, rng)
    rng = np.random.default_rng(99)
    timings = {"engine": _time_batches(engine, constraints, batch_queries,
                                       samples, rng)}

    scheduler = uae.scheduler         # over its own engine
    scheduler.estimate_many(constraints, samples, np.random.default_rng(5))
    start = time.perf_counter()
    scheduler.estimate_many(constraints, samples, np.random.default_rng(99))
    timings["engine+scheduler"] = time.perf_counter() - start

    # Observability must stay effectively free on the hot path: A/B the
    # engine with its registry attached vs detached and gate the delta.
    plain_s, instr_s = _measure_obs_overhead(
        engine, constraints, batch_queries, samples, rng)
    obs_overhead_pct = (instr_s / plain_s - 1.0) * 100.0
    checks = {"obs_overhead": obs_overhead_pct <= OBS_OVERHEAD_PCT}

    rows = [{"path": name,
             "queries_per_sec": n_queries / elapsed,
             "ms_per_query": elapsed * 1e3 / n_queries}
            for name, elapsed in timings.items()]

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "dataset": "dmv",
        "num_rows": table.num_rows,
        "num_queries": n_queries,
        "num_samples": profile.est_samples,
        "batch_queries": batch_queries,
        "engine_qps": n_queries / timings["engine"],
        "scheduler_qps": n_queries / timings["engine+scheduler"],
        "obs_overhead_pct": obs_overhead_pct,
        "obs_overhead_threshold_pct": OBS_OVERHEAD_PCT,
        "obs_plain_qps": n_queries / plain_s,
        "obs_instrumented_qps": n_queries / instr_s,
        "checks": checks,
        "rows": rows,
    }
    save_bench("infer", payload)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(
            f"inference bench invariants violated: {failed} "
            f"(metrics overhead {obs_overhead_pct:.2f}% > "
            f"{OBS_OVERHEAD_PCT}% ceiling)")
    return {"title": "Inference engine throughput "
                     f"(DMV, profile={profile.name})",
            "columns": ["path", "queries_per_sec", "ms_per_query"],
            "rows": rows,
            **{k: v for k, v in payload.items() if k != "rows"}}
