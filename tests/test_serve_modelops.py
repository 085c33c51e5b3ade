"""Tests for self-healing model-ops (repro.serve.modelops): shadow
validation, the post-swap q-error tripwire with automatic rollback,
post-swap cache warming, and the ModelRegistry rollback edge cases the
healing path leans on."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (ModelOpsConfig, ModelRegistry, QErrorTripwire,
                         ShadowValidator, UAEServer)


@pytest.fixture
def uae(tiny_uae):
    return tiny_uae


@pytest.fixture
def workload(tiny_workload):
    return tiny_workload


# ----------------------------------------------------------------------
class TestShadowValidator:
    def test_insufficient_probes_passes_unjudged(self):
        validator = ShadowValidator(ModelOpsConfig(min_probes=4))
        verdict = validator.score(None, None, None)   # never hits the engine
        assert verdict["accepted"] and \
            verdict["reason"] == "insufficient-probes"

    def test_probe_capacity_keeps_hottest(self):
        cfg = ModelOpsConfig(probe_capacity=8, max_probes=4)
        validator = ShadowValidator(cfg)
        # Probe keys only need to be hashable; ints stand in for queries.
        for hot in range(4):
            for _ in range(10):
                validator.add_probe(hot, truth=float(hot))
        for cold in range(100, 120):                  # overflow capacity
            validator.add_probe(cold, truth=1.0)
        queries, truths = validator.probes()
        assert len(queries) == cfg.max_probes
        assert set(queries) == {0, 1, 2, 3}           # hottest survived
        np.testing.assert_array_equal(sorted(truths), [0.0, 1.0, 2.0, 3.0])

    def test_seeded_workload_pads_probes(self, workload):
        cfg = ModelOpsConfig(max_probes=6, min_probes=1)
        validator = ShadowValidator(cfg, workload=workload)
        queries, truths = validator.probes()
        assert len(queries) == 6                       # cold start: seeded
        validator.add_probe(workload.queries[3], truth=123.0)
        queries, truths = validator.probes()
        assert queries[0] is workload.queries[3]       # observed first
        assert truths[0] == 123.0
        assert len(queries) == 6                       # no duplicate pad

    def test_score_compares_candidate_against_live(self):
        """The verdict is a pure function of the two scored streams; a
        stub service makes the accept/reject boundary exact."""
        cfg = ModelOpsConfig(reject_ratio=1.5, min_probes=2, max_probes=8)
        validator = ShadowValidator(cfg)
        truths = 100.0
        for key in range(4):
            validator.add_probe(key, truth=truths)
        live_marker, cand_marker = object(), object()
        answers = {"live": np.full(4, 100.0), "cand": np.full(4, 100.0)}

        def estimate_on(snap, queries, seed=0):
            if snap is live_marker:
                return answers["live"]
            assert snap.model is cand_marker           # wrapped candidate
            return answers["cand"]

        service = SimpleNamespace(estimate_on=estimate_on)
        verdict = validator.score(service, live_marker, cand_marker)
        assert verdict["accepted"] and verdict["candidate_qerr"] == 1.0
        # Candidate 10x worse than a perfect live model: rejected.
        answers["cand"] = np.full(4, 10.0)
        verdict = validator.score(service, live_marker, cand_marker)
        assert not verdict["accepted"]
        assert verdict["candidate_qerr"] == pytest.approx(10.0)
        # Just inside the ratio: accepted.
        answers["cand"] = np.full(4, 70.0)             # q-error ~1.43
        assert validator.score(service, live_marker, cand_marker)["accepted"]


# ----------------------------------------------------------------------
class TestQErrorTripwire:
    def cfg(self, **kw):
        base = dict(tripwire_ratio=2.0, tripwire_window=8,
                    tripwire_min_obs=3, cooldown_s=60.0)
        base.update(kw)
        return ModelOpsConfig(**base)

    def test_unarmed_never_trips(self):
        wire = QErrorTripwire(self.cfg())
        assert not any(wire.observe(1e9) for _ in range(8))

    def test_trips_on_window_mean_after_min_obs(self):
        wire = QErrorTripwire(self.cfg())
        wire.arm(baseline=10.0, version=2)
        assert not wire.observe(100.0)                 # 1 obs < min_obs
        assert not wire.observe(100.0)
        assert wire.observe(100.0)                     # mean 100 > 2 x 10
        assert wire.trips == 1
        # Healthy errors dilute the window back under the ceiling.
        wire.disarm()
        wire.arm(baseline=10.0, version=3)
        for _ in range(8):
            assert not wire.observe(5.0)

    def test_baseline_floored_at_one(self):
        wire = QErrorTripwire(self.cfg())
        wire.arm(baseline=0.01, version=2)
        assert wire.baseline == 1.0

    def test_nonfinite_errors_count_as_worst_case(self):
        """Poisoned weights can overflow the engine into NaN estimates;
        a NaN q-error must trip the wire, not sail through a NaN-mean
        comparison."""
        wire = QErrorTripwire(self.cfg())
        wire.arm(baseline=10.0, version=2)
        wire.observe(float("nan"))
        wire.observe(float("inf"))
        assert wire.observe(float("nan"))

    def test_cooldown_suppresses_and_disarm_clears(self):
        wire = QErrorTripwire(self.cfg(cooldown_s=60.0))
        wire.arm(baseline=1.0, version=2)
        wire.start_cooldown()
        assert not any(wire.observe(1e9) for _ in range(8))
        wire.disarm()
        assert wire.stats()["armed"] is False
        assert wire.stats()["window"] == 0


# ----------------------------------------------------------------------
class TestModelOps:
    def make_server(self, uae, **cfg_kw):
        cfg_kw.setdefault("reject_ratio", float("inf"))
        cfg_kw.setdefault("cooldown_s", 0.0)
        cfg_kw.setdefault("warm_top_n", 0)
        return UAEServer(uae.clone(), refine_epochs=1, seed=21,
                         modelops=ModelOpsConfig(**cfg_kw))

    def feed(self, server, workload, n=8, factor=1.0):
        for q, tru in zip(workload.queries[:n], workload.cardinalities[:n]):
            server.observe(q, tru, estimate=max(factor * tru, 1.0))

    def test_gate_disabled_publishes_and_arms_tripwire(self, uae, workload):
        server = self.make_server(uae)
        self.feed(server, workload)
        record = server.refine()
        assert record["version"] == 2 and "rejected" not in record
        assert server.modelops.last_verdict["reason"] == "gate-disabled"
        wire = server.modelops.tripwire.stats()
        assert wire["armed"] and wire["version"] == 2

    def test_shadow_reject_blocks_publish_and_rewinds_trainer(
            self, uae, workload):
        server = self.make_server(uae, reject_ratio=1.5)
        live_state = server.registry.active().model.model.state_dict()
        rejected = {"accepted": False, "reason": "scored", "probes": 8,
                    "candidate_qerr": 50.0, "live_qerr": 1.2,
                    "reject_ratio": 1.5}
        server.modelops.validator.score = lambda *a, **k: dict(rejected)
        self.feed(server, workload, factor=100.0)      # drifted feedback
        record = server.refine()
        assert record["rejected"] and record["source"] == "shadow-reject"
        assert server.registry.version == 1            # nothing published
        assert server.modelops.rejects == [rejected]
        restored = server.trainer.model.state_dict()
        for key in live_state:                         # bad update erased
            np.testing.assert_array_equal(restored[key], live_state[key])

    def test_tripwire_rolls_back_automatically(self, uae, workload):
        server = self.make_server(uae, tripwire_ratio=2.0,
                                  tripwire_window=8, tripwire_min_obs=4)
        self.feed(server, workload)                    # accurate: errs ~1
        assert server.refine()["version"] == 2
        v2_model = server.registry.active().model
        # Serving accuracy collapses post-swap: the wire must roll back
        # to v1's weights (re-published forward as v3) on its own.
        self.feed(server, workload, factor=1000.0)
        assert server.registry.version == 3
        (record,) = server.modelops.rollbacks
        assert record["rolled_back_to"] == 1
        assert server.registry.active().model is not v2_model
        assert not server.modelops.tripwire.stats()["armed"]
        # The rollback version is the new fallback target.
        assert server.modelops._last_good == 3

    def test_bad_feedback_is_refused_before_it_can_roll_back_a_swap(
            self, uae, workload):
        """A NaN / infinite / negative truth or estimate used to reach
        the training buffer and the probe set, and — as a 1e18 q-error —
        the tripwire window, where it rolls back a healthy swap."""
        server = self.make_server(uae, tripwire_ratio=2.0,
                                  tripwire_window=8, tripwire_min_obs=4)
        self.feed(server, workload)
        assert server.refine()["version"] == 2         # healthy, wire armed
        query = workload.queries[0]
        _, probes_before = server.modelops.validator.probes()
        for bad in (float("nan"), float("inf"), -5.0):
            for _ in range(4):                         # >= tripwire_min_obs
                with pytest.raises(ValueError, match="true_cardinality"):
                    server.observe(query, bad, estimate=10.0)
                with pytest.raises(ValueError, match="estimate"):
                    server.observe(query, 10.0, estimate=bad)
            with pytest.raises(ValueError, match="true_cardinality"):
                server.feedback.record(query, 10.0, bad)
        assert len(server.feedback) == 0
        assert server.feedback.stats()["observed"] == 8
        assert server.modelops.tripwire.stats()["window"] == 0
        assert server.registry.version == 2 and not server.modelops.rollbacks
        _, probes_after = server.modelops.validator.probes()
        np.testing.assert_array_equal(probes_after, probes_before)
        # No upper bound: a truth above the table size is legitimate.
        server.observe(query, 1e300, estimate=1e300)
        assert len(server.feedback) == 1

    def test_lost_rollback_target_disarms(self, uae, workload):
        server = self.make_server(uae)
        self.feed(server, workload)
        server.refine()
        server.modelops._last_good = 99                # aged out of retention
        self.feed(server, workload, factor=1000.0)
        assert server.modelops.rollbacks == []
        assert not server.modelops.tripwire.stats()["armed"]
        assert server.registry.version == 2            # no thrash

    def test_publish_warms_hot_signatures(self, uae, workload):
        server = self.make_server(uae, warm_top_n=4)
        hot = workload.queries[0]
        for _ in range(3):
            server.estimate(hot)                       # becomes hottest
        self.feed(server, workload)
        record = server.refine()
        server.modelops.join_warm(timeout=30.0)
        assert server.modelops.warmed > 0
        hits = server.cache.hits
        server.estimate(hot)                           # primed for v2
        assert server.cache.hits == hits + 1
        assert server.modelops.stats()["warmed"] == server.modelops.warmed
        assert record["version"] == 2


# ----------------------------------------------------------------------
class TestRegistryRollbackEdges:
    """Satellite coverage: rollback edge cases the tripwire can hit."""

    def test_rollback_at_version_zero_rejected(self, uae):
        registry = ModelRegistry(uae)
        with pytest.raises(KeyError):
            registry.rollback(0)                       # versions start at 1

    def test_double_rollback_stays_monotonic(self, uae):
        registry = ModelRegistry(uae, keep_versions=8)
        registry.publish(uae)                          # v2
        v1_model = registry.get(1).model
        v2_model = registry.get(2).model
        first = registry.rollback(1)                   # v3 = v1's weights
        assert first.version == 3 and first.model is v1_model
        second = registry.rollback(2)                  # v4 = v2's weights
        assert second.version == 4 and second.model is v2_model
        third = registry.rollback(3)                   # rollback a rollback
        assert third.version == 5 and third.model is v1_model
        assert [h["version"] for h in registry.history()] == \
            [1, 2, 3, 4, 5]

    def test_rollback_racing_concurrent_hot_swap(self, uae):
        """Rollbacks interleaved with publishes must keep versions
        strictly monotonic and the retained map consistent."""
        registry = ModelRegistry(uae, keep_versions=64)
        barrier = threading.Barrier(2)
        errors = []

        def publisher():
            barrier.wait()
            for _ in range(10):
                registry.publish(uae, source="swap")

        def roller():
            barrier.wait()
            for _ in range(10):
                try:
                    registry.rollback(1)
                except KeyError as exc:               # retention race: typed
                    errors.append(exc)

        threads = [threading.Thread(target=publisher),
                   threading.Thread(target=roller)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        versions = [h["version"] for h in registry.history()]
        assert versions == sorted(set(versions))       # strictly monotonic
        assert registry.version == 21                  # 1 + 10 + 10
        assert registry.active().version == 21

    def test_rollback_invalidates_result_cache(self, uae, workload):
        server = UAEServer(uae.clone(), seed=22)
        query = workload.queries[0]
        server.estimate(query)
        server.estimate(query)
        assert server.cache.hits == 1
        record = server.rollback(1)                    # re-publish v1 as v2
        assert record["version"] == 2
        hits, misses = server.cache.hits, server.cache.misses
        server.estimate(query)                         # version-bump miss
        assert server.cache.misses > misses
        assert server.cache.hits == hits
