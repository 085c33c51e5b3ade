"""Tests for the scale-out serving tier (repro.serve.cluster/.snapshot):
snapshot codec round-trips, seqlock tear protection, and the
multi-process cluster itself (parity, zero-copy publish, crash
containment, load shedding).

The codec/layout tests run in tier-1; everything spawning worker
processes is marked ``multiproc`` (deselected from tier-1, run by the
CI scale-out step) and skips cleanly on platforms without
``multiprocessing.shared_memory``.
"""

import threading
import time

import numpy as np
import pytest

from repro.infer.compiled import (STATE_ALIGN, pack_state, state_layout,
                                  unpack_state)
from repro.serve import (HAVE_SHARED_MEMORY, ClusterEstimateService,
                         LoadShedError, SharedSnapshot, SnapshotCodec,
                         SnapshotTornError, UnknownNamespaceError)
from repro.serve.placement import WorkerUnavailableError

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY,
    reason="multiprocessing.shared_memory unavailable on this platform")


def mixed_state() -> dict:
    """A state dict covering every dtype/shape class the codec must
    carry: f32/f64 matrices, integer vectors, bools, scalars, and a
    zero-size array."""
    rng = np.random.default_rng(5)
    return {
        "blocks.0.fc1.weight": rng.normal(size=(7, 5)).astype(np.float32),
        "blocks.0.fc1.bias": rng.normal(size=5).astype(np.float32),
        "out.weight": rng.normal(size=(3, 11)).astype(np.float64),
        "codes": rng.integers(0, 100, size=9).astype(np.int64),
        "mask": (rng.random(size=(4, 4)) > 0.5),
        "scalar": np.float32(3.25).reshape(()),
        "empty": np.zeros((0, 3), dtype=np.float32),
    }


def assert_states_equal(a: dict, b: dict) -> None:
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].shape == b[name].shape, name
        assert np.array_equal(a[name], b[name]), name


# ----------------------------------------------------------------------
class TestStateLayout:
    def test_offsets_aligned_and_disjoint(self):
        entries, total = state_layout(mixed_state())
        spans = []
        for entry in entries:
            assert entry["offset"] % STATE_ALIGN == 0
            spans.append((entry["offset"], entry["offset"] + entry["nbytes"]))
        spans.sort()
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi <= lo
        assert total >= max(hi for _, hi in spans)

    def test_layout_is_pure_function_of_architecture(self):
        state = mixed_state()
        other = {k: np.zeros_like(v) for k, v in state.items()}
        assert state_layout(state) == state_layout(other)

    def test_pack_unpack_round_trip_bit_exact(self):
        state = mixed_state()
        entries, total = state_layout(state)
        buf = bytearray(total)
        pack_state(state, buf, entries)
        assert_states_equal(unpack_state(buf, entries), state)

    def test_pack_rejects_mismatched_array(self):
        state = mixed_state()
        entries, total = state_layout(state)
        bad = dict(state, codes=state["codes"].astype(np.int32))
        with pytest.raises(ValueError):
            pack_state(bad, bytearray(total), entries)

    def test_model_state_dict_round_trips(self, tiny_uae):
        state = tiny_uae.model.state_dict()
        entries, total = state_layout(state)
        buf = bytearray(total)
        pack_state(state, buf, entries)
        assert_states_equal(unpack_state(buf, entries), state)


# ----------------------------------------------------------------------
class TestSnapshotCodec:
    def test_encode_decode_round_trip(self):
        state = mixed_state()
        codec = SnapshotCodec.for_state(state)
        buf = bytearray(codec.total_bytes)
        codec.init_buffer(buf)
        codec.encode(buf, state, version=7)
        version, decoded = codec.decode(buf)
        assert version == 7
        assert_states_equal(decoded, state)

    def test_codec_rebuilds_from_buffer_header(self):
        state = mixed_state()
        codec = SnapshotCodec.for_state(state)
        buf = bytearray(codec.total_bytes)
        codec.init_buffer(buf)
        codec.encode(buf, state, version=2)
        reread = SnapshotCodec.from_buffer(buf)
        assert reread.entries == codec.entries
        version, decoded = reread.decode(buf)
        assert version == 2
        assert_states_equal(decoded, state)

    def test_unpublished_buffer_times_out_torn(self):
        codec = SnapshotCodec.for_state(mixed_state())
        buf = bytearray(codec.total_bytes)
        codec.init_buffer(buf)          # seq starts odd: nothing published
        with pytest.raises(SnapshotTornError):
            codec.decode(buf, timeout=0.05)

    def test_mid_publish_never_observed_torn(self):
        """A reader racing republishes sees only complete versions: the
        decoded state must always be the exact payload matching its
        version, never a mix."""
        base = {"w": np.zeros((64, 64), dtype=np.float32)}
        states = {v: {"w": np.full((64, 64), float(v), dtype=np.float32)}
                  for v in (1, 2)}
        codec = SnapshotCodec.for_state(base)
        buf = bytearray(codec.total_bytes)
        codec.init_buffer(buf)
        codec.encode(buf, states[1], version=1)
        stop = threading.Event()

        def writer():
            v = 2
            while not stop.is_set():
                codec.encode(buf, states[1 + v % 2], version=1 + v % 2)
                v += 1
                time.sleep(0.0002)   # realistic cadence: republishes are
                                     # not a back-to-back hot loop

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(300):
                version, decoded = codec.decode(buf, timeout=5.0)
                assert version in states
                assert np.array_equal(decoded["w"], states[version]["w"])
        finally:
            stop.set()
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
@needs_shm
class TestSharedSnapshot:
    def test_create_attach_read_bit_exact(self):
        state = mixed_state()
        owner = SharedSnapshot.create(state, version=3)
        try:
            reader = SharedSnapshot.attach(owner.name)
            version, decoded = reader.read()
            assert version == 3
            assert_states_equal(decoded, state)
            reader.close()
        finally:
            owner.close()
            owner.unlink()

    def test_publish_in_place_updates_attached_reader(self):
        state = mixed_state()
        owner = SharedSnapshot.create(state, version=1)
        try:
            reader = SharedSnapshot.attach(owner.name)
            new = {k: v + 1 if v.dtype != bool else ~v
                   for k, v in state.items()}
            owner.publish(new, version=2)
            version, decoded = reader.read()
            assert version == 2
            assert_states_equal(decoded, new)
            reader.close()
        finally:
            owner.close()
            owner.unlink()

    def test_only_owner_unlinks(self):
        owner = SharedSnapshot.create(mixed_state(), version=1)
        reader = SharedSnapshot.attach(owner.name)
        reader.close()
        reader.unlink()                 # no-op: reader is not the owner
        again = SharedSnapshot.attach(owner.name)   # still there
        again.close()
        owner.close()
        owner.unlink()


# ----------------------------------------------------------------------
@needs_shm
class TestDispatchWindow:
    """The parent-side in-flight window without any worker process: a
    stub handle whose "worker" is a thread acking whatever lands in its
    inbox, so the slot accounting can be hammered in tier-1."""

    class _Inbox:
        def __init__(self):
            self.items = []
            self.cond = threading.Condition()

        def put(self, message):
            with self.cond:
                self.items.append(message)
                self.cond.notify()

        def take(self, timeout):
            with self.cond:
                if not self.items:
                    self.cond.wait(timeout)
                return self.items.pop(0) if self.items else None

        def close(self):
            pass

        cancel_join_thread = close

    class _Process:
        pid = 0

        def is_alive(self):
            return True

    def make(self, tiny_uae, depth):
        from repro.serve.cluster import _WorkerHandle
        cluster = ClusterEstimateService(workers=1, queue_depth=depth)
        cluster.add_table(tiny_uae)
        handle = _WorkerHandle("w0", self._Process(), self._Inbox(), depth)
        cluster._handles["w0"] = handle
        cluster._assignment = {"tiny": "w0"}
        return cluster, handle

    def ack(self, cluster, handle, message):
        """What the collector does with a worker's ``ok`` response."""
        req_id, _kind, _ns, queries = message[:4]
        with cluster._lock:
            request, _handle, _is_batch = cluster._pending.pop(req_id)
            handle.in_flight -= 1
        handle.release()
        request._complete(np.zeros(len(queries)), 1, worker="w0")

    def test_saturated_submit_parks_then_is_placed_in_order(
            self, tiny_uae, tiny_workload):
        cluster, handle = self.make(tiny_uae, depth=1)
        try:
            queries = list(tiny_workload.queries)
            first = cluster.submit(queries[0])
            parked = [cluster.submit(q) for q in queries[1:4]]
            assert not first.deferred and all(r.deferred for r in parked)
            assert cluster.saturations == 3 and handle.free == 0
            doomed = cluster.submit(queries[4], deadline_ms=30.0)
            assert parked[1].cancel()           # abandoned while parked
            with pytest.raises(LoadShedError):  # shed by the placer, on time
                doomed.result(timeout=5.0)
            assert doomed.shed and 0.02 < doomed.latency() < 1.0
            order = []
            for _ in range(3):
                message = handle.request_q.take(timeout=5.0)
                order.append(message[3][0])
                self.ack(cluster, handle, message)
            assert order == [queries[0], queries[1], queries[3]]
            assert parked[2].result(timeout=5.0) == 0.0
            assert handle.free == 1 and not handle.parked
            assert cluster.cancellations == 1 and cluster.sheds == 1
        finally:
            cluster._snapshots.pop("tiny").unlink()
            assert handle.close() == []

    def test_window_never_overfills_under_contention(
            self, tiny_uae, tiny_workload):
        import sys
        cluster, handle = self.make(tiny_uae, depth=2)
        query = tiny_workload.queries[0]
        stop = threading.Event()
        worst = [0]

        def worker():
            while not stop.is_set():
                message = handle.request_q.take(timeout=0.05)
                if message is not None:
                    worst[0] = max(worst[0], handle.in_flight)
                    self.ack(cluster, handle, message)

        handles = [[] for _ in range(6)]

        def caller(mine):
            for _ in range(150):
                mine.append(cluster.submit(query))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker)] + [
                threading.Thread(target=caller, args=(mine,))
                for mine in handles]
            for thread in threads:
                thread.start()
            for thread in threads[1:]:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            for mine in handles:
                assert len(mine) == 150
                assert all(r.result(timeout=30.0) == 0.0 for r in mine)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            threads[0].join(timeout=10.0)
            cluster._snapshots.pop("tiny").unlink()
        assert not threads[0].is_alive()
        assert worst[0] <= 2                    # never beyond queue_depth
        assert handle.free == 2 and not handle.parked
        assert handle.in_flight == 0 and not cluster._pending
        assert handle.close() == []


# ----------------------------------------------------------------------
# Multi-process cluster end-to-end (deselected from tier-1).
@needs_shm
@pytest.mark.multiproc
class TestCluster:
    @pytest.fixture(scope="class")
    def parity_setup(self, tiny_uae, second_uae, tiny_workload,
                     second_workload):
        """The single-process reference answers for a seeded mixed
        stream (computed once; the cluster must match bit-for-bit)."""
        from repro.serve import RoutedEstimateService
        mixed = [q for pair in zip(tiny_workload.queries,
                                   second_workload.queries) for q in pair]
        front = RoutedEstimateService(seed=3)
        front.add_table(tiny_uae)
        front.add_table(second_uae)
        with front:
            expected = front.estimate_batch(mixed, seed=4321,
                                            use_cache=False)
        return mixed, expected

    def make_cluster(self, tiny_uae, second_uae, **kwargs) -> \
            ClusterEstimateService:
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("seed", 3)
        cluster = ClusterEstimateService(**kwargs)
        cluster.add_table(tiny_uae)
        cluster.add_table(second_uae)
        return cluster

    def test_parity_with_single_process_front_door(
            self, tiny_uae, second_uae, parity_setup):
        mixed, expected = parity_setup
        with self.make_cluster(tiny_uae, second_uae) as cluster:
            got = cluster.estimate_batch(mixed, seed=4321)
            assert np.array_equal(got, expected)
            # Same stream again: the seeded path is deterministic.
            assert np.array_equal(cluster.estimate_batch(mixed, seed=4321),
                                  expected)
            assert cluster.stats()["failures"] == 0

    def test_publish_rebuilds_worker_from_shared_buffer(
            self, tiny_uae, second_uae, tiny_workload):
        probes = list(tiny_workload.queries[:6])
        refined = tiny_uae.clone()
        for p in refined.model.parameters():
            p.data += 0.05
            p.bump_version()
        with self.make_cluster(tiny_uae, second_uae) as cluster:
            ns = tiny_uae.table.name
            before = cluster.estimate_batch(probes, seed=99)
            info = cluster.publish(ns, refined)
            assert info["version"] == 2 and cluster.version(ns) == 2
            after = cluster.estimate_batch(probes, seed=99)
            assert not np.array_equal(before, after)
            # Bit-parity with a direct engine reference on the new
            # weights: the version-counter rebuild crossed the process
            # boundary intact.
            constraints = [refined.fact.expand_masks(
                q.masks(refined.table)) for q in probes]
            sels = refined.sampler.scheduler.estimate_many(
                constraints, refined.sampler.num_samples,
                np.random.default_rng(99))
            ref = np.clip(sels, 0.0, 1.0) * refined.table.num_rows
            assert np.array_equal(after, ref)

    def test_crashed_worker_typed_gap_then_recover(
            self, tiny_uae, second_uae, parity_setup):
        mixed, expected = parity_setup
        cluster = self.make_cluster(tiny_uae, second_uae)
        with cluster:
            ns = tiny_uae.table.name
            victim = cluster.assignment()[ns]
            cluster._handles[victim].process.terminate()
            cluster._handles[victim].process.join(timeout=10.0)
            with pytest.raises(WorkerUnavailableError):
                cluster.estimate_batch(mixed[:4], seed=1)
            healed = cluster.recover()
            assert victim in healed["removed"]
            assert ns in healed["moved"]
            # Post-recovery answers are bit-identical: the model state
            # lived in the shared segment, not the dead process.
            assert np.array_equal(cluster.estimate_batch(mixed, seed=4321),
                                  expected)
            assert cluster.stats()["unavailable"] > 0
            assert cluster.stats()["failures"] == 0

    def test_overload_sheds_typed_never_fails(
            self, tiny_uae, second_uae, tiny_workload):
        burst = (list(tiny_workload.queries) * 4)[:48]
        with self.make_cluster(tiny_uae, second_uae,
                               queue_depth=1) as cluster:
            cluster.estimate_batch(burst[:4])   # warm the latency EWMA
            requests = [cluster.submit(q, deadline_ms=1.0) for q in burst]
            shed = answered = 0
            for request in requests:
                try:
                    request.result(timeout=60.0)
                    answered += 1
                except LoadShedError:
                    shed += 1
            assert shed > 0
            assert shed + answered == len(burst)
            assert cluster.stats()["failures"] == 0

    def test_join_query_rejected_typed(self, tiny_uae, second_uae):
        from repro.joins import JoinQuery
        from repro.workload import Predicate
        q = JoinQuery(("title", "movie_info"),
                      (Predicate("title.kind_id", "=", 0),))
        with self.make_cluster(tiny_uae, second_uae) as cluster:
            with pytest.raises(UnknownNamespaceError):
                cluster.resolve(q)

    def test_add_table_after_start_rejected(self, tiny_uae, second_uae):
        with self.make_cluster(tiny_uae, second_uae) as cluster:
            with pytest.raises(RuntimeError):
                cluster.add_table(second_uae, namespace="late")


@needs_shm
@pytest.mark.multiproc
def test_scale_out_bench_skips_the_gate_it_cannot_measure(monkeypatch):
    """Fewer cores than workers: ``scale_throughput`` is not a check
    that passes on a fallback, it is listed as skipped with the reason."""
    from dataclasses import replace

    from repro.bench import PROFILES
    from repro.bench.serve_bench import run_scale_out
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    result = run_scale_out(replace(PROFILES["ci"], scale_workers=(1, 2)))
    assert result["cpu_limited"]
    assert "scale_throughput" not in result["checks"]
    assert result["skipped"] == {
        "scale_throughput": "cpu_count 1 < workers 2"}
    assert all(result["checks"].values()), result["checks"]
