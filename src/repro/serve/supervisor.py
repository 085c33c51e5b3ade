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
  :attr:`~WorkerSupervisor.CRASH_WINDOW_S` doubles the delay (from
  :attr:`~WorkerSupervisor.BACKOFF_BASE_S`), scaled by a seeded jitter
  so a fleet of supervisors never stampedes.  The restart re-forks the
  worker under its original id — consistent hashing then restores its
  original namespace placement — and re-adopts those namespaces from the
  retained shared-memory snapshot segments, so a restarted worker serves
  bit-identical estimates (``repro_worker_restarts_total``).
* **Crash-loop circuit breaker** — more than
  :attr:`~WorkerSupervisor.MAX_RESTARTS` crashes inside the window
  means restarting is not healing (poisoned state, bad host); the
  worker is evicted for good and
  :meth:`ClusterEstimateService.recover` rebalances its namespaces onto
  the survivors (``repro_worker_evictions_total``).

Every transition lands in the cluster's event log (``worker_backoff``,
``worker_restart``, ``worker_evict``) and its metrics registry; the
deterministic chaos harness (:mod:`repro.chaos`) is what this machine is
tested against.  The supervisor has no settings: its timings are the
class constants below, and ``ClusterEstimateService.supervise()`` takes
no arguments.
"""

from __future__ import annotations

import random
import threading
import time
from collections import defaultdict, deque


class WorkerSupervisor:
    """Detect dead cluster workers; restart with backoff or evict.

    With these constants the longest backoff is the third restart's,
    ``BACKOFF_BASE_S * 2**2 * (1 + JITTER)`` = 0.1 s.
    """

    #: Seconds between dead-worker polls.
    POLL_INTERVAL_S = 0.02
    #: Delay before a window's first restart; each later crash doubles it.
    BACKOFF_BASE_S = 0.02
    #: Largest fraction a seeded draw adds to a delay.
    JITTER = 0.25
    #: Crashes inside the window that are restarted; one more evicts.
    MAX_RESTARTS = 3
    #: Rolling window, in seconds, in which crashes count together.
    CRASH_WINDOW_S = 30.0
    #: Seed of the jitter stream.
    SEED = 7

    def __init__(self, cluster):
        self.cluster = cluster
        self._rng = random.Random(self.SEED)
        self.metrics = cluster.metrics
        self.events = cluster.events
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
        while not self._stop.wait(self.POLL_INTERVAL_S):
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
        while window and now - window[0] > self.CRASH_WINDOW_S:
            window.popleft()
        window.append(now)
        attempt = len(window)
        if attempt > self.MAX_RESTARTS:
            self._evict(worker_id, crashes=attempt)
            return
        delay = self.BACKOFF_BASE_S * (2 ** (attempt - 1)) \
            * (1.0 + self.JITTER * self._rng.random())
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
