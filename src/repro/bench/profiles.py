"""Scale profiles for the benchmark harness.

The paper ran on a Tesla V100 with 11.6M-row DMV and 20K training queries;
this reproduction runs on one CPU core, so every experiment is scaled down
while keeping the *relative* comparisons intact.  Four profiles:

* ``ci``     — smallest; the CI smoke jobs (serving loop end to end).
* ``small``  — seconds; used by the test suite's integration checks.
* ``bench``  — default for ``pytest benchmarks/``; minutes.
* ``paper``  — closest to the paper's settings; hours on CPU.

Select via the ``REPRO_PROFILE`` environment variable or pass explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Profile:
    name: str
    rows: dict = field(default_factory=dict)          # dataset -> row count
    train_queries: int = 400
    test_queries: int = 100
    epochs: int = 6
    query_epochs: int = 12          # UAE-Q / refinement epochs
    hidden: int = 64
    num_blocks: int = 2
    est_samples: int = 128          # progressive-sampling estimates
    dps_samples: int = 8            # S in Algorithm 2
    batch_size: int = 512
    query_batch_size: int = 16
    lam: float = 1e-4
    join_titles: int = 2500
    join_sample: int = 10_000
    join_train_queries: int = 200
    join_test_queries: int = 60
    join_epochs: int = 6
    optimizer_queries: int = 25
    incremental_parts: int = 5
    incremental_train: int = 80
    incremental_test: int = 30
    serve_stream_queries: int = 160  # steady-phase serving-bench stream
    scale_datasets: tuple = ("dmv", "census", "kddcup", "toy")
    scale_workers: tuple = (1, 2, 4)  # worker counts for the scale_out bench
    scale_stream_queries: int = 320   # per-worker-count mixed stream length
    mscn_epochs: int = 60
    kde_budget_divisor: int = 1     # sample budget = uae_size / divisor
    # Open-loop HTTP load bench (repro.bench.load_bench): offered rates
    # are fractions of the *calibrated* capacity so the sweep spans
    # comfortable to saturated on any host; the SLO is an absolute
    # floor relaxed against calibrated baseline latency on slow boxes.
    load_pool: int = 48             # distinct queries cycled round-robin
    load_rate_fractions: tuple = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5)
    load_duration_s: float = 4.0    # per-rate open-loop window
    load_max_requests: int = 400    # per-rate arrival cap
    load_connections: int = 64      # client socket-pool cap
    load_slo_ms: float = 250.0      # p99 bound below the knee
    load_calib_requests: int = 96   # closed-loop capacity probe size
    load_calib_concurrency: int = 8
    load_max_inflight: int = 32     # front-door admission window

    def dataset_rows(self, name: str) -> int:
        return self.rows.get(name, 8000)

    def sampling_fraction(self, name: str) -> float:
        """The paper's budget-matched sample ratios (Section 5.1.4):
        0.2% DMV, 9% Census, 4.6% Kddcup98.  Matching the *fraction*
        keeps the comparison meaningful at scaled-down row counts, where
        matching bytes would hand samplers the whole table."""
        return {"dmv": 0.002, "census": 0.09, "kddcup": 0.046}.get(name, 0.05)


CI = Profile(
    name="ci",
    rows={"dmv": 1500, "census": 1200, "kddcup": 1000, "toy": 800},
    train_queries=40, test_queries=16, epochs=2, query_epochs=4,
    hidden=32, num_blocks=1, est_samples=32, dps_samples=4,
    batch_size=256, query_batch_size=8,
    join_titles=400, join_sample=1500, join_train_queries=20,
    join_test_queries=8, join_epochs=1, optimizer_queries=4,
    incremental_parts=2, incremental_train=24, incremental_test=12,
    serve_stream_queries=40,
    scale_datasets=("census", "toy"), scale_workers=(1, 2),
    scale_stream_queries=64,
    mscn_epochs=10,
    load_pool=16, load_rate_fractions=(0.25, 0.75, 2.5),
    load_duration_s=1.5, load_max_requests=60, load_connections=32,
    load_calib_requests=24, load_calib_concurrency=4,
    load_max_inflight=16,
)

SMALL = Profile(
    name="small",
    rows={"dmv": 3000, "census": 2500, "kddcup": 2000, "toy": 1500},
    train_queries=80, test_queries=30, epochs=2, query_epochs=4,
    hidden=32, num_blocks=1, est_samples=48, dps_samples=4,
    batch_size=256, query_batch_size=8,
    join_titles=800, join_sample=3000, join_train_queries=40,
    join_test_queries=15, join_epochs=2, optimizer_queries=8,
    incremental_parts=3, incremental_train=30, incremental_test=12,
    serve_stream_queries=64,
    scale_datasets=("census", "toy"), scale_workers=(1, 2),
    scale_stream_queries=96,
    mscn_epochs=20,
    load_pool=24, load_rate_fractions=(0.25, 0.75, 2.5),
    load_duration_s=2.0, load_max_requests=100, load_connections=32,
    load_calib_requests=32, load_calib_concurrency=4,
    load_max_inflight=16,
)

BENCH = Profile(
    name="bench",
    rows={"dmv": 12_000, "census": 8000, "kddcup": 6000, "toy": 4000},
    train_queries=500, test_queries=120, epochs=8, query_epochs=15,
    hidden=64, num_blocks=2, est_samples=128, dps_samples=8,
    join_titles=2500, join_sample=10_000, join_train_queries=200,
    join_test_queries=60, join_epochs=25, optimizer_queries=25,
    incremental_train=300, incremental_test=40,
    mscn_epochs=60,
)

PAPER = Profile(
    name="paper",
    rows={"dmv": 200_000, "census": 48_000, "kddcup": 95_000, "toy": 10_000},
    train_queries=20_000, test_queries=2000, epochs=20, query_epochs=20,
    hidden=128, num_blocks=2, est_samples=200, dps_samples=200,
    join_titles=20_000, join_sample=100_000, join_train_queries=10_000,
    join_test_queries=1000, join_epochs=20, optimizer_queries=50,
    incremental_train=4000, incremental_test=200,
    serve_stream_queries=512,
    mscn_epochs=100,
)

PROFILES = {"ci": CI, "small": SMALL, "bench": BENCH, "paper": PAPER}


def current_profile() -> Profile:
    """Profile selected by the REPRO_PROFILE env var (default bench)."""
    name = os.environ.get("REPRO_PROFILE", "bench").lower()
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown REPRO_PROFILE {name!r}; pick from {sorted(PROFILES)}"
        ) from None
