"""Tests for consistent-hash namespace placement (repro.serve.placement):
ring stability under membership changes, bounded-load balance, and the
typed unavailability error."""

import math

import pytest

from repro.serve.placement import HashRing, WorkerUnavailableError, stable_hash

KEYS = [f"namespace-{i}" for i in range(200)]


# ----------------------------------------------------------------------
class TestStableHash:
    def test_deterministic_and_64bit(self):
        assert stable_hash("dmv") == stable_hash("dmv")
        assert 0 <= stable_hash("dmv") < 2 ** 64

    def test_distinct_keys_distinct_hashes(self):
        hashes = {stable_hash(k) for k in KEYS}
        assert len(hashes) == len(KEYS)


# ----------------------------------------------------------------------
class TestHashRing:
    def test_owner_deterministic_across_instances(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])   # insertion order is irrelevant
        assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]

    def test_empty_ring_raises_typed(self):
        with pytest.raises(WorkerUnavailableError):
            HashRing().owner("dmv")
        with pytest.raises(WorkerUnavailableError):
            HashRing().assign(["dmv"])

    def test_add_worker_moves_about_one_over_n(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {k: ring.owner(k) for k in KEYS}
        ring.add("w3")
        after = {k: ring.owner(k) for k in KEYS}
        moved = [k for k in KEYS if before[k] != after[k]]
        # Every move lands on the new worker, and the fraction is ~1/4
        # (generous band: vnode placement is hash-noisy at 200 keys).
        assert all(after[k] == "w3" for k in moved)
        assert 0.10 <= len(moved) / len(KEYS) <= 0.45

    def test_remove_worker_restores_prior_assignment(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {k: ring.owner(k) for k in KEYS}
        ring.add("w3")
        ring.remove("w3")
        assert {k: ring.owner(k) for k in KEYS} == before

    def test_remove_only_moves_dead_workers_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {k: ring.owner(k) for k in KEYS}
        ring.remove("w1")
        after = {k: ring.owner(k) for k in KEYS}
        for k in KEYS:
            if before[k] != "w1":
                assert after[k] == before[k]
            else:
                assert after[k] != "w1"

    def test_walk_yields_each_worker_once(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        assert sorted(ring.walk("census")) == ["w0", "w1", "w2", "w3"]


# ----------------------------------------------------------------------
class TestBoundedAssign:
    def test_perfectly_even_at_balance_one(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        assignment = ring.assign(["dmv", "census", "kddcup", "toy"])
        loads = {}
        for worker in assignment.values():
            loads[worker] = loads.get(worker, 0) + 1
        assert set(loads.values()) == {1}

    def test_respects_cap_at_scale(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        assignment = ring.assign(KEYS)
        cap = math.ceil(len(KEYS) * HashRing.BALANCE / 4)
        loads = {}
        for worker in assignment.values():
            loads[worker] = loads.get(worker, 0) + 1
        assert max(loads.values()) <= cap
        assert sum(loads.values()) == len(KEYS)

    def test_membership_change_moves_few_keys(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        before = ring.assign(KEYS)
        ring.remove("w3")
        after = ring.assign(KEYS)
        # Displaced keys: everything w3 owned, plus bounded-load spill.
        moved = [k for k in KEYS if before[k] != after[k]]
        assert "w3" not in set(after.values())
        assert len(moved) / len(KEYS) <= 0.6
