"""The benchmark's fixed specification: what is served and how hard it is
driven.  Both the server launcher and the load generator import this, so
the child process and the harness always agree on tables, splits and
sizes.  Nothing here is read from the program under test: the instrument
must not change when the program does.
"""

from __future__ import annotations

import numpy as np

#: The four table namespaces, at the `bench` profile sizes.
NAMESPACES = ("dmv", "census", "kddcup", "toy")
ROWS = {"dmv": 12_000, "census": 8_000, "kddcup": 6_000, "toy": 4_000}

#: Estimator shape (the `bench` profile) and data-only pre-training, as
#: `repro.bench.serve_bench.run_scale_out` does it.
UAE_KWARGS = dict(hidden=64, num_blocks=2, est_samples=128, dps_samples=8,
                  batch_size=512, query_batch_size=16)
PRETRAIN_EPOCHS = 2

#: Production serving defaults.
FRONT_KWARGS = dict(max_batch=32, max_wait_ms=2.0, cache_capacity=8192,
                    seed=7)
CLUSTER_WORKERS = 2

WORKLOADS = ("unique", "hot", "batch", "cluster", "refresh")
#: Which front each workload runs against (F1 routed, F2 cluster).
FRONT_OF = {"unique": "F1", "hot": "F1", "batch": "F1", "cluster": "F2",
            "refresh": "F1"}

#: Server lifetimes per untraced run.  Each is set up, warmed up, measures
#: an equal share of `--seconds` and is torn down; the timing metrics are
#: medians over both, so neither one process's memory layout nor the ten
#: seconds it happened to run in decide a run's result, and `setup_s` is
#: the median of as many set-ups.  A traced run has one.
ROUNDS = 2
WARMUP_REQUESTS = 200
#: Width of the slices whose median the timing metrics report: wide
#: enough to hold some sixty requests.  `batch` answers ~30 requests/s;
#: `refresh` posts its 300 feedback queries in about 1.6 s a round.
SLICE_SECONDS = {"unique": 1.0, "hot": 1.0, "batch": 2.0, "cluster": 1.0,
                 "refresh": 0.4}
#: A slice is left out of those medians when the hypervisor stole more
#: than this share of the VM's CPU time during it (a calm host steals
#: about 0.1 %, a contended one 5-25 %).
STEAL_LIMIT = 0.02
#: Keep-alive connections of the closed loop (`nproc` is 2), all driven
#: from one generator thread.
CONNECTIONS = 2
#: The server child's BLAS pools are pinned to one thread, as the
#: cluster's workers pin their own: on a 2-vCPU host OpenBLAS's second
#: thread competes with the door and the generator for the other core
#: and roughly doubles the run-to-run spread.  String hashing is pinned
#: too, so every server lifetime lays its dicts and sets out alike.
#: Export any of these to override.
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# --- sizing.  Pools are generated for `headroom` x the reference rate so
# a faster program never exhausts (and so never wraps) its stream; an
# exhausted pool ends the window early instead.
REFERENCE_QPS = {"unique": 190.0, "cluster": 380.0, "hot": 1000.0,
                 "batch": 32.0}      # batch: requests/s, 8 queries each
POOL_HEADROOM = 1.6

HOT_POOL = 64
HOT_POOL_SEED = 0
HOT_ZIPF = 1.3
BATCH_QUERIES = 8
#: Namespace of request i.  Five slots, not four: with four equally
#: frequent cost classes (toy << dmv < census << kddcup) the median
#: latency would sit on the boundary between two of them and flip
#: between runs; with dmv taken twice it sits inside dmv's class.
BATCH_ROTATION = ("dmv", "census", "kddcup", "toy", "dmv")
BATCH_RESEND_EVERY = 10
BATCH_RESEND_MAX = 12

# --- refresh: one Section 4.5 drift cycle under live reads.  One cycle,
# not two: every publish arms ModelOps' q-error tripwire, and feedback
# from a *second* drift reads to it like a bad swap, so a second cycle
# ends in an automatic rollback about one run in two (see README).
REFRESH_TABLE = "dmv"
REFRESH_BASE_FRACTION = 0.6         # rows served before the inserts
REFRESH_READER_RATE = 60.0          # paced requests/s
REFRESH_READER_POOL = 256
REFRESH_READER_ZIPF = 1.1
REFRESH_TAIL_SECONDS = 1.0          # reads kept going after the swap
REFRESH_SHIFT_SEED = 0              # see workloads.plan_refresh
REFRESH_FEEDBACK = 300              # labelled shifted queries posted
REFRESH_PROBES = 400                # held-out shifted queries, post-swap
REFRESH_PROBES_BEFORE = 100         # of those, also asked pre-swap
REFRESH_PROBE_CHUNK = 25
REFRESH_SECONDS = 10.0              # what a cycle + tail take here
FEEDBACK_KWARGS = dict(window=300, capacity=600, min_observations=300,
                       threshold=1.0)
REFRESH_SERVER_KWARGS = dict(auto_refine=True, refine_epochs=12,
                             data_epochs=3)
SHIFT_VOLUME = 0.08
SHIFT_FILTERS = (2, 5)


def drift_split(codes: np.ndarray):
    """Sorted-by-first-column split, as the `incremental_data` experiment
    does it: ``(base_rows, inserted_rows)``."""
    order = np.argsort(codes[:, 0], kind="stable")
    n_base = int(REFRESH_BASE_FRACTION * len(codes))
    return codes[order[:n_base]], codes[order[n_base:]]


SMOKE = False


def shrink_for_smoke() -> None:
    """About 1/50 of the work, for the plumbing smoke test: the harness
    and the server child both call this, so they still agree."""
    global SMOKE, PRETRAIN_EPOCHS, WARMUP_REQUESTS, REFRESH_FEEDBACK, \
        REFRESH_PROBES, REFRESH_PROBES_BEFORE, REFRESH_READER_POOL, \
        REFRESH_TAIL_SECONDS, REFRESH_SECONDS
    SMOKE = True
    ROWS.update(dmv=1500, census=1200, kddcup=1000, toy=800)
    UAE_KWARGS.update(hidden=32, num_blocks=1, est_samples=32)
    PRETRAIN_EPOCHS = 1
    WARMUP_REQUESTS = 16
    REFRESH_FEEDBACK = 40
    REFRESH_PROBES = 50
    REFRESH_PROBES_BEFORE = 25
    REFRESH_READER_POOL = 32
    REFRESH_TAIL_SECONDS = 0.2
    REFRESH_SECONDS = 2.0
    FEEDBACK_KWARGS.update(window=40, capacity=80, min_observations=40)
    REFRESH_SERVER_KWARGS.update(refine_epochs=2, data_epochs=1)
