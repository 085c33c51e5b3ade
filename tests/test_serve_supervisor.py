"""Tests for cluster worker supervision (repro.serve.supervisor).

The state machine (backoff, circuit breaker, bookkeeping) is unit
tested in tier-1 against a scripted fake cluster.  The end-to-end
self-healing scenarios — a real SIGKILLed worker restarted and serving
bit-identical answers, a crash-looping worker evicted and rebalanced —
fork worker processes and are driven by the deterministic chaos
harness; they are marked ``chaos`` (deselected from tier-1, run by the
CI chaos step) and skip without ``multiprocessing.shared_memory``.
"""

import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import (HAVE_SHARED_MEMORY, ChaosPlan,
                         ClusterEstimateService, LoadShedError,
                         WorkerSupervisor)
from repro.serve import supervisor as supervisor_module
from repro.serve.placement import WorkerUnavailableError

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY,
    reason="multiprocessing.shared_memory unavailable on this platform")


# ----------------------------------------------------------------------
# Tier-1: state machine against a scripted fake cluster (no processes).
# ----------------------------------------------------------------------
class EventRecorder:
    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        record = {"event": event, **fields}
        self.events.append(record)
        return record

    def of(self, event):
        return [e for e in self.events if e["event"] == event]


class FakeCluster:
    """Scripted stand-in: ``dead`` is the rolling dead-worker report;
    restart/evict calls are recorded, and restarts can be made to
    fail."""

    def __init__(self, restart_ok=True):
        self.metrics = MetricsRegistry()
        self.events = EventRecorder()
        self.running = True
        self.dead = []
        self.restart_ok = restart_ok
        self.restarted = []
        self.failed = []
        self.recovers = 0

    def dead_workers(self):
        return list(self.dead)

    def restart_worker(self, worker_id):
        if not self.restart_ok:
            raise RuntimeError("fork failed")
        self.restarted.append(worker_id)
        self.dead.remove(worker_id)
        return {"restarted": True, "worker": worker_id, "incarnation": 1,
                "adopted": ["toy"]}

    def fail_worker(self, worker_id):
        self.failed.append(worker_id)
        if worker_id in self.dead:
            self.dead.remove(worker_id)

    def recover(self):
        self.recovers += 1
        return {"removed": list(self.failed), "moved": ["toy"]}


S = WorkerSupervisor


def expected_delays(attempts):
    """The backoff delays of ``attempts`` (each a 1-based attempt
    number), drawn from the supervisor's seeded jitter stream in order."""
    rng = random.Random(S.SEED)
    return [S.BACKOFF_BASE_S * 2 ** (attempt - 1)
            * (1.0 + S.JITTER * rng.random()) for attempt in attempts]


class TestSupervisorStateMachine:
    def test_restart_records_and_counts(self):
        cluster = FakeCluster()
        supervisor = WorkerSupervisor(cluster)
        cluster.dead = ["w0"]
        supervisor.check()
        assert cluster.restarted == ["w0"]
        (record,) = supervisor.restarts
        assert record["worker"] == "w0" and record["attempt"] == 1
        assert record["incarnation"] == 1
        assert supervisor.stats()["evictions"] == []
        assert cluster.metrics.total("repro_worker_restarts_total",
                                     worker="w0") == 1

    def test_backoff_doubles(self):
        cluster = FakeCluster()
        supervisor = WorkerSupervisor(cluster)
        for _ in range(S.MAX_RESTARTS):
            cluster.dead = ["w0"]
            supervisor.check()
        delays = [e["delay_s"] for e in cluster.events.of("worker_backoff")]
        assert delays == pytest.approx(
            expected_delays(range(1, S.MAX_RESTARTS + 1)))
        # Jitter only ever adds: each delay is at least its doubling.
        for attempt, delay in enumerate(delays, start=1):
            base = S.BACKOFF_BASE_S * 2 ** (attempt - 1)
            assert base <= delay <= base * (1.0 + S.JITTER)

    def test_jitter_is_seeded(self):
        def delays():
            cluster = FakeCluster()
            supervisor = WorkerSupervisor(cluster)
            for _ in range(3):
                cluster.dead = ["w0"]
                supervisor.check()
            return [e["delay_s"]
                    for e in cluster.events.of("worker_backoff")]

        first = delays()
        assert first == delays()
        assert first != [S.BACKOFF_BASE_S * 2 ** k for k in range(3)]

    def test_circuit_breaker_evicts_after_max_restarts(self):
        cluster = FakeCluster()
        supervisor = WorkerSupervisor(cluster)
        for _ in range(S.MAX_RESTARTS + 1):
            cluster.dead = ["w0"]
            supervisor.check()
        assert cluster.restarted == ["w0"] * S.MAX_RESTARTS  # then...
        assert cluster.failed == ["w0"]                # ...evicted
        assert cluster.recovers == 1
        (evict,) = supervisor.evictions
        assert evict["worker"] == "w0"
        assert evict["crashes"] == S.MAX_RESTARTS + 1
        assert evict["moved"] == ["toy"]
        # An evicted worker is never touched again.
        cluster.dead = ["w0"]
        supervisor.check()
        assert cluster.restarted == ["w0"] * S.MAX_RESTARTS
        assert supervisor.stats()["evicted"] == ["w0"]
        assert cluster.metrics.total("repro_worker_evictions_total") == 1

    def test_failed_restart_counts_as_another_crash(self):
        cluster = FakeCluster(restart_ok=False)
        supervisor = WorkerSupervisor(cluster)
        for _ in range(S.MAX_RESTARTS):
            cluster.dead = ["w0"]
            supervisor.check()                         # restart raises
        assert supervisor.restarts == []
        assert len(cluster.events.of("worker_restart_failed")) == \
            S.MAX_RESTARTS
        assert cluster.failed == []
        supervisor.check()                             # one more: evict
        assert cluster.failed == ["w0"]

    def test_crash_window_expiry_resets_attempts(self, monkeypatch):
        clock = [1000.0]
        monkeypatch.setattr(supervisor_module, "time",
                            SimpleNamespace(monotonic=lambda: clock[0]))
        cluster = FakeCluster()
        supervisor = WorkerSupervisor(cluster)
        cluster.dead = ["w0"]
        supervisor.check()
        clock[0] += S.CRASH_WINDOW_S + 1.0             # window expires
        cluster.dead = ["w0"]
        supervisor.check()
        attempts = [e["attempt"]
                    for e in cluster.events.of("worker_backoff")]
        assert attempts == [1, 1]                      # attempt reset to 1
        delays = [e["delay_s"] for e in cluster.events.of("worker_backoff")]
        assert delays == pytest.approx(expected_delays([1, 1]))

    def test_supervise_takes_no_settings(self):
        with pytest.raises(TypeError):
            ClusterEstimateService().supervise(poll_interval=0.02)
        with pytest.raises(TypeError):
            WorkerSupervisor(FakeCluster(), max_restarts=2)


# ----------------------------------------------------------------------
# End-to-end: real forked workers under the chaos harness.
# ----------------------------------------------------------------------
@needs_shm
@pytest.mark.chaos
class TestSupervisedCluster:
    def wave(self, cluster, queries, seed):
        """One seeded batch, retrying through the healing window (typed
        gaps only — anything untyped is a real failure)."""
        deadline = time.monotonic() + 60.0
        while True:
            try:
                return cluster.estimate_batch(queries, seed=seed)
            except (WorkerUnavailableError, LoadShedError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def make_cluster(self, tiny_uae, second_uae, plan):
        cluster = ClusterEstimateService(workers=2, seed=3, chaos=plan)
        cluster.add_table(tiny_uae)
        cluster.add_table(second_uae)
        return cluster

    def test_killed_worker_restarts_bit_identical(
            self, tiny_uae, second_uae, tiny_workload, second_workload):
        plan = ChaosPlan(seed=29)
        # Crash-once: the victim's 2nd batch dies in incarnation 0 only
        # (each forked worker counts its own occurrences from zero).
        plan.inject("worker.batch", "kill", at=2,
                    where={"worker": "w0", "incarnation": 0})
        mixed = [q for pair in zip(tiny_workload.queries[:8],
                                   second_workload.queries[:8])
                 for q in pair]
        with self.make_cluster(tiny_uae, second_uae, plan) as cluster:
            supervisor = cluster.supervise()
            expected = self.wave(cluster, mixed, seed=777)  # occurrence 1
            self.wave(cluster, mixed, seed=777)             # occurrence 2:
            deadline = time.monotonic() + 60.0              # kill + heal
            while not supervisor.restarts \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert supervisor.restarts, "supervisor never restarted w0"
            assert supervisor.restarts[0]["worker"] == "w0"
            # Restarted worker re-attached to the retained shared
            # segments: answers are bit-identical to pre-crash.
            post = self.wave(cluster, mixed, seed=777)
            assert np.array_equal(post, expected)
            stats = cluster.stats()
            assert stats["workers"]["w0"]["incarnation"] >= 1
            assert cluster.metrics.total("repro_cluster_failures_total") == 0
            assert stats["supervisor"]["evictions"] == []

    def test_crash_loop_evicted_and_rebalanced(
            self, tiny_uae, second_uae, tiny_workload, second_workload):
        plan = ChaosPlan(seed=31)
        # No incarnation guard: every incarnation of w0 dies on its
        # first batch — restarting cannot heal this.
        plan.inject("worker.batch", "kill", at=1,
                    where={"worker": "w0"}, count=None)
        mixed = [q for pair in zip(tiny_workload.queries[:6],
                                   second_workload.queries[:6])
                 for q in pair]
        with self.make_cluster(tiny_uae, second_uae, plan) as cluster:
            supervisor = cluster.supervise()
            deadline = time.monotonic() + 90.0
            while not supervisor.evictions \
                    and time.monotonic() < deadline:
                try:
                    cluster.estimate_batch(mixed, seed=55)
                except (WorkerUnavailableError, LoadShedError):
                    time.sleep(0.05)
            (evict,) = supervisor.evictions
            assert evict["worker"] == "w0"
            # MAX_RESTARTS restarts, then the kill that evicts.
            assert evict["crashes"] == WorkerSupervisor.MAX_RESTARTS + 1
            # Namespaces rebalanced onto the survivor: full coverage,
            # deterministic answers, no untyped failures.
            assignment = cluster.assignment()
            assert set(assignment.values()) == {"w1"}
            a = self.wave(cluster, mixed, seed=55)
            b = self.wave(cluster, mixed, seed=55)
            assert np.array_equal(a, b)
            assert cluster.metrics.total("repro_cluster_failures_total") == 0
