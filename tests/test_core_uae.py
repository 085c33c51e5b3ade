"""Tests for the UAE estimator: training modes, incremental ingestion,
estimation API, configuration."""

import gc

import numpy as np
import pytest

from repro.core import UAE, UAEConfig
from repro.estimators import MSCNBase, MSCNSampling, Naru
from repro.obs import MetricsRegistry
from repro.workload import (LabeledWorkload, Predicate, Query,
                            generate_inworkload, qerrors, summarize,
                            true_cardinality)

from reference.made import nll_np

FAST = dict(hidden=24, num_blocks=1, est_samples=64, dps_samples=4,
            batch_size=128, query_batch_size=8, seed=0)


class TestConfig:
    def test_overrides(self, toy_table):
        uae = UAE(toy_table, hidden=16, lam=0.5)
        assert uae.config.hidden == 16
        assert uae.config.lam == 0.5

    def test_explicit_config_object(self, toy_table):
        cfg = UAEConfig(hidden=16, num_blocks=1)
        uae = UAE(toy_table, cfg)
        assert uae.config.hidden == 16

    def test_bad_mode_rejected(self, toy_table):
        uae = UAE(toy_table, **FAST)
        with pytest.raises(ValueError):
            uae.fit(epochs=1, mode="bogus")

    def test_query_mode_requires_workload(self, toy_table):
        uae = UAE(toy_table, **FAST)
        with pytest.raises(ValueError):
            uae.fit(epochs=1, mode="query")

    def test_bad_discrepancy(self, toy_table):
        """Rejected when the model is built, not at the first query step."""
        with pytest.raises(ValueError, match="discrepancy"):
            UAE(toy_table, **FAST, discrepancy="nope")

    def test_misspelled_gradient_estimator_rejected_at_build(self, toy_table):
        """A typo must not silently train with Gumbel-Softmax."""
        with pytest.raises(ValueError, match="gradient_estimator"):
            UAE(toy_table, **FAST, gradient_estimator="reinfroce")


class TestDataTraining:
    def test_loglikelihood_improves(self, toy_table):
        uae = UAE(toy_table, **FAST)
        before = uae.loglikelihood(toy_table.codes[:400])
        uae.fit(epochs=3, mode="data")
        after = uae.loglikelihood(toy_table.codes[:400])
        assert after > before

    def test_loglikelihood_matches_reference_nll(self, toy_table):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=1, mode="data")
        codes = toy_table.codes[:300]
        expected = -nll_np(uae.model, uae.fact.encode_rows(codes)).mean()
        assert uae.loglikelihood(codes) == pytest.approx(expected, rel=1e-5)

    def test_loglikelihood_runs_in_batch_size_chunks(self, toy_table,
                                                     monkeypatch):
        """Chunked evaluation matches one forward over every row, and no
        pooled buffer grows taller than ``batch_size`` rows."""
        from repro.nn.buffers import BufferPool
        from repro.train import FusedDataLoss

        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=1, mode="data")
        codes = toy_table.codes[:3 * FAST["batch_size"] + 37]
        nll, _ = FusedDataLoss(uae.model).forward(uae.fact.encode_rows(codes))

        rows_seen = []
        get = BufferPool.get

        def spy(pool, tag, rows, cols, dtype=np.float32):
            rows_seen.append(rows)
            return get(pool, tag, rows, cols, dtype)

        monkeypatch.setattr(BufferPool, "get", spy)
        assert uae.loglikelihood(codes) == pytest.approx(-nll, rel=1e-9)
        assert rows_seen and max(rows_seen) == FAST["batch_size"]

    def test_history_records_epochs(self, toy_table):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=2, mode="data")
        assert len(uae.history) == 2
        assert uae.history[0]["mode"] == "data"

    def test_on_epoch_end_callback(self, toy_table):
        seen = []
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=2, mode="data",
                on_epoch_end=lambda e, m: seen.append(e))
        assert seen == [0, 1]

    def test_estimates_beat_random_guessing(self, toy_table, toy_workloads):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=4, mode="data")
        test = toy_workloads["test_in"]
        est = uae.estimate_many(test.queries)
        errs = qerrors(est, test.cardinalities)
        # A constant-guess estimator (always half the table) for reference.
        naive = np.full(len(test), toy_table.num_rows / 2)
        naive_errs = qerrors(naive, test.cardinalities)
        assert np.median(errs) < np.median(naive_errs)


class TestHybridAndQueryTraining:
    def test_hybrid_runs_and_tracks_both_losses(self, toy_table,
                                                toy_workloads):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=2, workload=toy_workloads["train"], mode="hybrid")
        record = uae.history[-1]
        assert record["data_loss"] > 0
        assert record["query_loss"] > 0

    def test_query_only_learns_workload(self, toy_table, toy_workloads):
        uae = UAE(toy_table, **FAST)
        train = toy_workloads["train"]
        uae.fit(epochs=6, workload=train, mode="query")
        est = uae.estimate_many(train.queries[:20])
        errs = qerrors(est, train.cardinalities[:20])
        assert np.median(errs) < 8.0

    def test_reinforce_mode_runs(self, toy_table, toy_workloads):
        uae = UAE(toy_table, **FAST, gradient_estimator="reinforce")
        uae.fit(epochs=1, workload=toy_workloads["train"], mode="query")
        assert np.isfinite(uae.history[-1]["query_loss"])

    def test_mse_discrepancy_runs(self, toy_table, toy_workloads):
        uae = UAE(toy_table, **FAST, discrepancy="mse")
        uae.fit(epochs=1, workload=toy_workloads["train"], mode="query")
        assert np.isfinite(uae.history[-1]["query_loss"])


class TestNoGraph:
    def test_training_leaves_no_cyclic_garbage(self, tiny_table,
                                               tiny_workload):
        """No step builds an autograd graph, so none leaves a reference
        cycle for the cyclic collector: hybrid fit, Section 4.5
        refinement, the REINFORCE ablation and the MSCN baselines all
        free their state by reference counting alone."""
        hybrid = UAE(tiny_table, **FAST)
        refined = UAE(tiny_table, **FAST)
        reinforce = UAE(tiny_table, **FAST, gradient_estimator="reinforce")
        mscn = [cls(tiny_table, epochs=2, batch_size=8, seed=0)
                for cls in (MSCNBase, MSCNSampling)]
        gc.collect()
        gc.disable()
        try:
            hybrid.fit(epochs=2, workload=tiny_workload, mode="hybrid")
            refined.ingest_data(tiny_table.codes[:300], epochs=2)
            refined.ingest_queries(tiny_workload, epochs=2)
            reinforce.fit(epochs=1, workload=tiny_workload, mode="query")
            for est in mscn:
                est.fit(tiny_workload)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEstimation:
    @pytest.fixture(scope="class")
    def trained(self, toy_table):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=4, mode="data")
        return uae

    def test_estimate_in_range(self, trained, toy_table, toy_workloads):
        for query in toy_workloads["test_in"].queries[:5]:
            card = trained.estimate(query)
            assert 0.0 <= card <= toy_table.num_rows

    def test_estimate_many_matches_single(self, trained, toy_workloads):
        queries = toy_workloads["test_in"].queries[:4]
        batched = trained.estimate_many(queries)
        for i, query in enumerate(queries):
            solo = trained.estimate(query)
            # Same model, different sample draws: expect agreement.
            assert batched[i] == pytest.approx(solo, rel=0.6, abs=30)

    def test_empty_query_estimates_full_table(self, trained, toy_table):
        card = trained.estimate(Query(()))
        assert card == pytest.approx(toy_table.num_rows, rel=1e-3)

    def test_estimate_many_empty_input(self, trained):
        out = trained.estimate_many([])
        assert out.shape == (0,)
        assert out.dtype == np.float64
        out = trained.cardinalities([])
        assert out.shape == (0,)

    def test_every_estimate_runs_the_seeded_stream(self, toy_table,
                                                    toy_workloads):
        """``estimate``, ``estimate_interval`` and ``estimate_many`` draw
        from one ``seed + 1`` stream, and a single estimate is exactly
        the one-query engine call on it."""
        from repro.infer import InferenceEngine
        queries = toy_workloads["test_in"].queries[:6]
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=1, mode="data")
        engine = InferenceEngine(uae.model)
        rng = np.random.default_rng(FAST["seed"] + 1)
        samples, n = FAST["est_samples"], toy_table.num_rows
        for q in queries[:3]:
            sel = engine.estimate_batch([uae.constraints(q)], samples, rng)
            assert uae.estimate(q) == sel[0] * n
        sel, err = engine.estimate_batch([uae.constraints(queries[3])],
                                         samples, rng, with_error=True)
        est, low, _ = uae.estimate_interval(queries[3])
        assert est == sel[0] * n
        assert low == max((sel[0] - 1.96 * err[0]) * n, 0.0)
        sels = engine.estimate_batch(
            [uae.constraints(q) for q in queries[4:]], samples, rng)
        np.testing.assert_array_equal(uae.estimate_many(queries[4:]),
                                      sels * n)

    def test_engine_is_built_on_first_estimate(self, toy_table,
                                               toy_workloads, monkeypatch):
        import repro.core.uae as uae_module
        built = []
        engine_cls = uae_module.InferenceEngine
        monkeypatch.setattr(uae_module, "InferenceEngine",
                            lambda model: built.append(model)
                            or engine_cls(model))
        uae = UAE(toy_table, **FAST)
        assert built == []
        query = toy_workloads["test_in"].queries[0]
        uae.estimate(query)
        uae.estimate_many([query, query])
        assert built == [uae.model]
        assert len(uae.snapshot().estimate_many([query])) == 1
        assert len(built) == 2

    def test_uniform_estimator_path(self, trained, toy_table, toy_workloads):
        query = toy_workloads["test_in"].queries[0]
        card = trained.estimate_uniform(query, num_samples=500)
        assert 0.0 <= card <= toy_table.num_rows

    def test_size_bytes_positive(self, trained):
        assert trained.size_bytes() > 1000


class TestClone:
    def test_clone_preserves_model(self, toy_table):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=2, mode="data")
        copy = uae.clone()
        x = toy_table.codes[:50]
        np.testing.assert_allclose(nll_np(uae.model, uae.fact.encode_rows(x)),
                                   nll_np(copy.model, copy.fact.encode_rows(x)),
                                   atol=1e-5)

    def test_clone_is_independent(self, toy_table):
        uae = UAE(toy_table, **FAST)
        copy = uae.clone()
        copy.fit(epochs=1, mode="data")
        x = uae.fact.encode_rows(toy_table.codes[:20])
        assert not np.allclose(nll_np(uae.model, x), nll_np(copy.model, x))


class TestPersistence:
    """Save/load -> estimate round-trips with the compiled engine.

    The invalidation contract (repro/infer/compiled.py): compiled
    artifacts are keyed on parameter version counters, and
    ``load_state_dict`` bumps them — a freshly loaded model must never
    serve estimates from the previous weights' fused snapshot.
    """

    def test_save_load_estimates_bitwise(self, tmp_path, toy_table,
                                         toy_workloads):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=1, mode="data")
        queries = toy_workloads["test_in"].queries[:4]
        constraints = [uae.fact.expand_masks(q.masks(toy_table))
                       for q in queries]
        rng_a = np.random.default_rng(77)
        original = uae.engine.estimate_batch(constraints, 64, rng_a)
        path = str(tmp_path / "uae.npz")
        uae.save(path)
        loaded = UAE.load(path, toy_table)
        rng_b = np.random.default_rng(77)
        restored = loaded.engine.estimate_batch(constraints, 64,
                                                        rng_b)
        np.testing.assert_array_equal(original, restored)

    def test_load_state_dict_bumps_versions_on_warm_engine(self, toy_table,
                                                           toy_workloads):
        uae = UAE(toy_table, **FAST)
        other = UAE(toy_table, **dict(FAST, seed=9))
        other.fit(epochs=1, mode="data")
        query = toy_workloads["test_in"].queries[0]
        constraints = [uae.fact.expand_masks(query.masks(toy_table))]
        # Warm the compiled engine on the *initial* weights.
        compiled = uae.engine.compiled
        compiled.ensure_current()
        versions_before = tuple(p.version for p in uae.model.parameters())
        rng = np.random.default_rng(5)
        stale = uae.engine.estimate_batch(constraints, 128, rng)

        uae.model.load_state_dict(other.model.state_dict())
        versions_after = tuple(p.version for p in uae.model.parameters())
        assert all(a > b for a, b in zip(versions_after, versions_before))
        # The warm engine recompiles and serves the new weights...
        fresh = uae.engine.estimate_batch(
            constraints, 128, np.random.default_rng(5))
        assert compiled.ensure_current() is False  # already recompiled
        # ...matching the donor model bit for bit under the same draws.
        reference = other.engine.estimate_batch(
            constraints, 128, np.random.default_rng(5))
        np.testing.assert_array_equal(fresh, reference)
        assert not np.array_equal(stale, fresh)

    def test_snapshot_is_warm_and_detached(self, toy_table, toy_workloads):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=1, mode="data")
        uae.engine.compiled.ensure_current()  # warm the source too
        snap = uae.snapshot()
        # Snapshot compiled eagerly; further training of the source does
        # not touch it.
        assert snap.engine.compiled.ensure_current() is False
        uae.fit(epochs=1, mode="data")
        assert snap.engine.compiled.ensure_current() is False
        assert uae.engine.compiled.ensure_current() is True

    def test_snapshot_does_not_share_metrics(self, tiny_table):
        """A served snapshot never records into its trainer's registry."""
        uae = UAE(tiny_table, **FAST)
        uae.metrics = MetricsRegistry()
        assert uae.snapshot().metrics is None


class TestIncremental:
    def test_ingest_data_improves_new_region(self, toy_table):
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=2, mode="data")
        # New tuples concentrated on a single value pattern.
        new = np.tile(toy_table.codes[:1], (300, 1))
        before = uae.loglikelihood(new[:50])
        uae.ingest_data(new, epochs=2)
        after = uae.loglikelihood(new[:50])
        assert after > before
        assert uae.table.num_rows == toy_table.num_rows + 300

    def test_ingest_queries_adapts(self, toy_table):
        """Section 4.5: refining on a shifted workload improves it."""
        rng = np.random.default_rng(77)
        from repro.workload import WorkloadConfig
        shifted_cfg = WorkloadConfig(center_range=(0.75, 1.0))
        shifted = generate_inworkload(toy_table, 40, rng, cfg=shifted_cfg)
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=2, mode="data")
        before = summarize(uae.estimate_many(shifted.queries),
                           shifted.cardinalities)
        uae.ingest_queries(shifted, epochs=6)
        after = summarize(uae.estimate_many(shifted.queries),
                          shifted.cardinalities)
        assert after.mean <= before.mean * 1.5  # never catastrophically worse

    def test_naru_equivalence_statement(self, toy_table):
        """Naru is UAE-D: same architecture, data-only training."""
        naru = Naru(toy_table, **FAST)
        assert isinstance(naru, UAE)
        with pytest.raises(ValueError):
            naru.fit(epochs=1, mode="hybrid")
