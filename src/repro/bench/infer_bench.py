"""Inference-engine latency/throughput microbenchmark.

Measures ``ProgressiveSampler.estimate_batch`` (the compiled engine) and
the scheduler-grouped ``estimate_many`` path over one seeded DMV
workload, and A/B-gates the cost of the engine's metrics instrumentation.
Agreement with the reference loop is a tier-1 contract
(``tests/test_infer_engine.py``), not a bench row.

Run ``python -m repro.bench latency --profile bench`` to regenerate the
``BENCH_infer.json`` artifact at the repo root (plus the usual
``results/latency.json``).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from ..core import UAE
from ..core.progressive import ProgressiveSampler
from ..data import load
from ..workload import generate_inworkload
from .profiles import Profile, current_profile
from .reporting import RESULTS_DIR

# Next to the results directory (which follows $REPRO_RESULTS_DIR), so the
# artifact lands in the repo for source checkouts and stays writable for
# installed packages pointed at a results location.
BENCH_PATH = os.path.join(os.path.dirname(os.path.abspath(RESULTS_DIR)),
                          "BENCH_infer.json")

_LATENCY_QUERIES = {"small": 16, "bench": 64, "paper": 256}

#: hard ceiling on metrics-instrumentation overhead for the engine path
#: (median over interleaved instrumented/uninstrumented reps)
OBS_OVERHEAD_PCT = 7.0


def _time_batches(sampler: ProgressiveSampler, constraints: list[list],
                  batch_queries: int) -> float:
    """Wall-clock seconds for chunked ``estimate_batch``."""
    start = time.perf_counter()
    for lo in range(0, len(constraints), batch_queries):
        sampler.estimate_batch(constraints[lo:lo + batch_queries])
    return time.perf_counter() - start


def _measure_obs_overhead(sampler: ProgressiveSampler,
                          constraints: list[list], batch_queries: int,
                          reps: int = 5) -> tuple[float, float]:
    """Median wall-clock for the engine path with metrics off vs on.

    Reps are interleaved (off, on, off, on, ...) so thermal drift and
    background load hit both arms equally; medians shrug off outliers.
    """
    from ..obs import MetricsRegistry

    engine = sampler.engine
    plain: list[float] = []
    instrumented: list[float] = []
    try:
        for _ in range(reps):
            engine.metrics = None
            plain.append(_time_batches(sampler, constraints,
                                       batch_queries))
            engine.metrics = MetricsRegistry()
            instrumented.append(_time_batches(sampler, constraints,
                                              batch_queries))
    finally:
        engine.metrics = None
    return float(np.median(plain)), float(np.median(instrumented))


def run_infer_latency(profile: Profile | None = None,
                      batch_queries: int = 8,
                      write_artifact: bool = True) -> dict:
    """Compiled-engine and scheduler throughput on the DMV workload."""
    profile = profile or current_profile()
    n_queries = _LATENCY_QUERIES.get(profile.name, 64)
    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    uae = UAE(table, hidden=profile.hidden, num_blocks=profile.num_blocks,
              est_samples=profile.est_samples, seed=0)
    rng = np.random.default_rng(1234)
    workload = generate_inworkload(table, n_queries, rng)
    constraints = [uae.fact.expand_masks(q.masks(table))
                   for q in workload.queries]

    engine = ProgressiveSampler(uae.model, num_samples=profile.est_samples,
                                seed=5)
    # Warm the path (buffer pools for every chunk's shapes, compiled
    # caches, BLAS threads, the allocator) on one untimed pass so the
    # measured loop is steady-state.
    _time_batches(engine, constraints, batch_queries)
    engine.rng = np.random.default_rng(99)
    timings = {"engine": _time_batches(engine, constraints, batch_queries)}

    scheduled = ProgressiveSampler(uae.model, num_samples=profile.est_samples,
                                   seed=5)
    scheduled.estimate_many(constraints)
    scheduled.rng = np.random.default_rng(99)
    start = time.perf_counter()
    scheduled.estimate_many(constraints)
    timings["engine+scheduler"] = time.perf_counter() - start

    # Observability must stay effectively free on the hot path: A/B the
    # engine with its registry attached vs detached and gate the delta.
    plain_s, instr_s = _measure_obs_overhead(
        engine, constraints, batch_queries)
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
    if write_artifact:
        try:
            with open(BENCH_PATH, "w") as fh:
                json.dump(payload, fh, indent=2)
        except OSError as exc:  # never discard timed results over a write
            print(f"warning: could not write {BENCH_PATH}: {exc}")
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
