"""Training-engine throughput microbenchmark.

Measures optimizer steps per second for the three training modes of
Algorithm 3 — data-only (Eq. 2), query-only (Eq. 5/6 via DPS), and
hybrid — on the fused training engine over a seeded DMV table, plus the
**refinement wall-clock**: the serving loop's Section 4.5 refinement
(staged-insert ``ingest_data`` + feedback ``ingest_queries``, the same
epoch counts ``UAEServer`` uses) timed end to end — the number that
bounds hot-swap freshness under drift.  Gradient parity with the
reference autograd is a tier-1 contract (``tests/test_train_engine.py``,
``tests/test_backend_matrix.py``), not a bench gate.

Run ``python -m repro.bench training --profile bench`` to regenerate the
``BENCH_train.json`` artifact at the repo root (plus the usual
``results/training.json``).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from ..core import UAE
from ..data import load
from ..workload import generate_inworkload
from .profiles import Profile, current_profile
from .reporting import RESULTS_DIR

BENCH_TRAIN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(RESULTS_DIR)), "BENCH_train.json")

# Measured optimizer steps per mode (after warmup); refinement uses the
# serving loop's epoch counts and scales with the profile's row/query
# budget on its own.
_TRAIN_STEPS = {"ci": 4, "small": 6, "bench": 12, "paper": 24}
_WARMUP = 3
# The serving defaults (UAEServer refine_epochs/data_epochs in the
# serving bench scenario).
_REFINE_EPOCHS = 12
_DATA_EPOCHS = 3


def _make_uae(table, profile: Profile) -> UAE:
    return UAE(table, hidden=profile.hidden, num_blocks=profile.num_blocks,
               est_samples=profile.est_samples,
               dps_samples=profile.dps_samples,
               batch_size=profile.batch_size,
               query_batch_size=profile.query_batch_size,
               lam=profile.lam, seed=0)


def _time_steps(uae: UAE, prepared: dict, mode: str, reps: int) -> float:
    """Mean seconds per optimizer step for one training mode."""
    rows = uae.model_codes
    batch = min(uae.config.batch_size, len(rows))

    def one_step():
        loss = None
        if mode in ("data", "hybrid"):
            idx = uae.rng.integers(0, len(rows), batch)
            loss = uae.data_loss(rows[idx])
        if mode in ("query", "hybrid"):
            q_loss = uae._query_step_loss(prepared)
            scale = uae.config.lam if mode == "hybrid" else 1.0
            loss = q_loss * scale if loss is None else loss + q_loss * scale
        uae.optimizer.zero_grad()
        loss.backward()
        uae.optimizer.step()

    for _ in range(_WARMUP):
        one_step()
    start = time.perf_counter()
    for _ in range(reps):
        one_step()
    return (time.perf_counter() - start) / reps


def _time_refinement(uae: UAE, new_rows: np.ndarray, workload) -> float:
    """Wall-clock of one serving-style refinement (data + query halves)."""
    start = time.perf_counter()
    uae.ingest_data(new_rows, epochs=_DATA_EPOCHS)
    uae.ingest_queries(workload, epochs=_REFINE_EPOCHS)
    return time.perf_counter() - start


def run_training(profile: Profile | None = None,
                 write_artifact: bool = True) -> dict:
    """Fused-engine training throughput on the DMV workload."""
    profile = profile or current_profile()
    reps = _TRAIN_STEPS.get(profile.name, 10)
    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    rng = np.random.default_rng(17)
    step_wl = generate_inworkload(table, 64, rng)
    refine_wl = generate_inworkload(table, max(32, profile.incremental_train),
                                    rng)

    # Steps/s per mode.
    uae = _make_uae(table, profile)
    prepared = uae._prepare_workload(step_wl)
    step_seconds = {mode: _time_steps(uae, prepared, mode, reps)
                    for mode in ("data", "query", "hybrid")}

    # End-to-end refinement wall-clock (Section 4.5, serving epochs):
    # 40% fresh rows staged plus the shifted feedback workload.
    n_new = max(1, int(0.4 * table.num_rows))
    new_rows = table.codes[np.random.default_rng(23).integers(
        0, table.num_rows, n_new)]
    refined = _make_uae(table, profile)
    refine_seconds = _time_refinement(refined, new_rows, refine_wl)

    rows = [{"mode": mode, "steps_per_sec": 1.0 / seconds,
             "ms_per_step": seconds * 1e3}
            for mode, seconds in step_seconds.items()]
    # Every weight still finite after the timed steps and the refinement.
    checks = {
        "all_finite": all(bool(np.isfinite(p.data).all())
                          for model in (uae.model, refined.model)
                          for p in model.parameters()),
    }

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "profile": profile.name,
        "dataset": "dmv",
        "num_rows": table.num_rows,
        "batch_size": profile.batch_size,
        "query_batch_size": profile.query_batch_size,
        "dps_samples": profile.dps_samples,
        "measured_steps": reps,
        "data_steps_per_sec": 1.0 / step_seconds["data"],
        "query_steps_per_sec": 1.0 / step_seconds["query"],
        "hybrid_steps_per_sec": 1.0 / step_seconds["hybrid"],
        "refinement_seconds": refine_seconds,
        "refinement_rows": int(n_new),
        "refinement_queries": len(refine_wl),
        "checks": checks,
        "rows": rows,
    }
    if write_artifact:
        try:
            with open(BENCH_TRAIN_PATH, "w") as fh:
                json.dump(payload, fh, indent=2)
        except OSError as exc:  # never discard timed results over a write
            print(f"warning: could not write {BENCH_TRAIN_PATH}: {exc}")

    # Sanity is a hard gate (the CI smoke job relies on the non-zero
    # exit); throughput is recorded, not gated — step timing on a noisy
    # shared core is not a correctness property.
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(
            f"training bench invariants violated: {failed}; see "
            f"{BENCH_TRAIN_PATH if write_artifact else 'payload'}")

    return {"title": "Training engine throughput "
                     f"(DMV, profile={profile.name}); refinement "
                     f"{refine_seconds:.2f} s",
            "columns": ["mode", "steps_per_sec", "ms_per_step"],
            "rows": rows,
            **{k: v for k, v in payload.items() if k != "rows"}}
