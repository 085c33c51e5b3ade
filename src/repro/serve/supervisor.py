"""Worker supervision for the scale-out cluster.

PR 6's cluster *contains* a worker crash (typed errors, ``recover()``)
but never heals it — a dead worker stays dead until an operator calls
``recover()`` by hand.  The split is: the cluster's reader thread for a
worker quarantines it the moment its pipe hits EOF (out of the ring,
its in-flight requests failed typed); :class:`WorkerSupervisor`
restarts it.  A background thread polls
:meth:`ClusterEstimateService.dead_workers` (which also catches a
process that exited before its reader noticed) and drives a small state
machine per worker:

``healthy -> crashed -> backoff -> restarting -> healthy``
                     \\-> (crash loop) -> evicted

* **Restart with backoff + jitter** — each crash inside the rolling
  ``crash_window_s`` doubles the delay (``backoff_base_s`` up to
  ``backoff_max_s``), scaled by a seeded jitter so a fleet of
  supervisors never stampedes.  The restart re-forks the worker under
  its original id — consistent hashing then restores its original
  namespace placement — and re-adopts those namespaces from the retained
  shared-memory snapshot segments, so a restarted worker serves
  bit-identical estimates (``repro_worker_restarts_total``).
* **Crash-loop circuit breaker** — more than ``max_restarts`` crashes
  inside the window means restarting is not healing (poisoned state,
  bad host); the worker is evicted for good and
  :meth:`ClusterEstimateService.recover` rebalances its namespaces onto
  the survivors (``repro_worker_evictions_total``).

Every transition lands in the event log (``worker_backoff``,
``worker_restart``, ``worker_evict``); the deterministic chaos harness
(:mod:`repro.chaos`) is what this machine is tested against.
"""

from __future__ import annotations

import random
import threading
import time
from collections import defaultdict, deque


class WorkerSupervisor:
    """Detect dead cluster workers; restart with backoff or evict."""

    def __init__(self, cluster, *, poll_interval: float = 0.05,
                 backoff_base_s: float = 0.05, backoff_max_s: float = 2.0,
                 jitter: float = 0.25, max_restarts: int = 3,
                 crash_window_s: float = 30.0, seed: int = 0,
                 metrics=None, events=None):
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.cluster = cluster
        self.poll_interval = float(poll_interval)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.jitter = float(jitter)
        self.max_restarts = int(max_restarts)
        self.crash_window_s = float(crash_window_s)
        self._rng = random.Random(seed)
        self.metrics = metrics if metrics is not None else cluster.metrics
        self.events = events if events is not None else cluster.events
        self._c_restarts = self.metrics.counter(
            "repro_worker_restarts_total",
            "Dead workers restarted by the supervisor", ("worker",))
        self._c_evictions = self.metrics.counter(
            "repro_worker_evictions_total",
            "Crash-looping workers evicted by the circuit breaker",
            ("worker",))
        self._crashes: dict[str, deque] = defaultdict(deque)
        self._evicted: set[str] = set()
        self.restarts: list[dict] = []
        self.evictions: list[dict] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="worker-supervisor", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            if not self.cluster.running:
                continue
            try:
                self.check()
            except Exception as exc:  # noqa: BLE001 - keep supervising
                self.events.emit("supervisor_error", error=repr(exc))

    def check(self) -> None:
        """One supervision pass (also callable inline from tests)."""
        for worker_id in self.cluster.dead_workers():
            if worker_id in self._evicted:
                continue
            self._handle_crash(worker_id)

    def _handle_crash(self, worker_id: str) -> None:
        now = time.monotonic()
        window = self._crashes[worker_id]
        while window and now - window[0] > self.crash_window_s:
            window.popleft()
        window.append(now)
        attempt = len(window)
        if attempt > self.max_restarts:
            self._evict(worker_id, crashes=attempt)
            return
        delay = min(self.backoff_max_s,
                    self.backoff_base_s * (2 ** (attempt - 1)))
        delay *= 1.0 + self.jitter * self._rng.random()
        self.events.emit("worker_backoff", worker=worker_id,
                         attempt=attempt, delay_s=delay)
        if self._stop.wait(delay) or not self.cluster.running:
            return
        try:
            result = self.cluster.restart_worker(worker_id)
        except Exception as exc:  # noqa: BLE001 - counts as another crash
            self.events.emit("worker_restart_failed", worker=worker_id,
                             attempt=attempt, error=repr(exc))
            return
        if not result.get("restarted"):
            return
        self._c_restarts.labels(worker=worker_id).inc()
        self.restarts.append({"worker": worker_id, "attempt": attempt,
                              "delay_s": delay, **result})

    def _evict(self, worker_id: str, crashes: int) -> None:
        self._evicted.add(worker_id)
        try:
            self.cluster.fail_worker(worker_id)
            healed = self.cluster.recover()
        except Exception as exc:  # noqa: BLE001 - e.g. all workers down
            self.events.emit("worker_evict_failed", worker=worker_id,
                             error=repr(exc))
            return
        self._c_evictions.labels(worker=worker_id).inc()
        record = {"worker": worker_id, "crashes": crashes,
                  "moved": healed.get("moved", [])}
        self.evictions.append(record)
        self.events.emit("worker_evict", **record)

    def stats(self) -> dict:
        return {"running": self.running,
                "restarts": list(self.restarts),
                "evictions": list(self.evictions),
                "evicted": sorted(self._evicted)}
