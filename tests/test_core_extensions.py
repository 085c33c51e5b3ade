"""Tests for confidence intervals, early stopping, LR decay, and extended
workload operators."""

import numpy as np
import pytest

from repro.core import UAE
from repro.data import make_toy
from repro.workload import (Predicate, Query, WorkloadConfig,
                            generate_inworkload, true_cardinality)

FAST = dict(hidden=24, num_blocks=1, est_samples=64, dps_samples=4,
            batch_size=256, query_batch_size=8, seed=0)


@pytest.fixture(scope="module")
def trained():
    table = make_toy(rows=1500, seed=4, num_cols=4, max_domain=9)
    model = UAE(table, **FAST)
    model.fit(epochs=4, mode="data")
    return table, model


class TestConfidenceIntervals:
    def test_interval_contains_point(self, trained):
        table, model = trained
        rng = np.random.default_rng(0)
        wl = generate_inworkload(table, 5, rng)
        for query in wl.queries:
            est, low, high = model.estimate_interval(query)
            assert low <= est <= high
            assert 0 <= low and high <= table.num_rows

    def test_more_samples_tighter_error(self, trained):
        table, model = trained
        rng = np.random.default_rng(1)
        query = generate_inworkload(table, 1, rng).queries[0]
        constraints = model.constraints(query)

        from repro.infer import InferenceEngine
        engine = InferenceEngine(model.model)
        _, (err_few,) = engine.estimate_batch(
            [constraints], 16, np.random.default_rng(0), with_error=True)
        _, (err_many,) = engine.estimate_batch(
            [constraints], 1024, np.random.default_rng(0), with_error=True)
        assert err_many <= err_few * 1.1

    def test_point_query_zero_variance(self, trained):
        """Fully-specified equality queries need a single forward chain;
        the per-sample densities coincide so the error collapses."""
        table, model = trained
        anchor = table.codes[0]
        preds = tuple(Predicate(col.name, "=", col.values[anchor[j]])
                      for j, col in enumerate(table.columns))
        query = Query(preds)
        est, low, high = model.estimate_interval(query)
        assert high - low < max(est, 1.0) * 2  # tight-ish interval


class TestEarlyStopping:
    def test_stops_before_max_epochs(self):
        table = make_toy(rows=1200, seed=5, num_cols=3, max_domain=8)
        rng = np.random.default_rng(2)
        train = generate_inworkload(table, 40, rng)
        val = generate_inworkload(table, 20, rng)
        model = UAE(table, **FAST)
        model.fit(epochs=50, mode="data", validation=val, patience=2)
        assert len(model.history) < 50
        assert "val_qerror" in model.history[-1]

    def test_validation_metric_recorded_without_patience(self):
        table = make_toy(rows=800, seed=6, num_cols=3)
        rng = np.random.default_rng(3)
        val = generate_inworkload(table, 10, rng)
        model = UAE(table, **FAST)
        model.fit(epochs=2, mode="data", validation=val)
        assert all("val_qerror" in h for h in model.history)

    def test_lr_decay_applied_and_restored(self):
        table = make_toy(rows=600, seed=7, num_cols=3)
        model = UAE(table, **FAST, lr_decay=0.5)
        base = model.optimizer.lr
        model.fit(epochs=3, mode="data")
        assert model.optimizer.lr == base  # restored after fit


class TestExtendedOperators:
    def test_generator_emits_in_and_not_equal(self):
        table = make_toy(rows=1500, seed=8, num_cols=5, max_domain=12)
        rng = np.random.default_rng(4)
        cfg = WorkloadConfig(num_filters_min=3,
                             operators=("IN", "!="), in_list_size=3)
        wl = generate_inworkload(table, 20, rng, cfg=cfg)
        ops = {p.op for q in wl.queries for p in q.predicates}
        assert "IN" in ops
        assert "!=" in ops
        assert (wl.cardinalities > 0).all()

    def test_uae_answers_in_and_not_equal(self, trained):
        table, model = trained
        col = table.columns[1]
        values = tuple(int(v) for v in col.values[:2])
        query = Query((Predicate(col.name, "IN", values),
                       Predicate(table.columns[2].name, "!=",
                                 int(table.columns[2].values[0]))))
        est = model.estimate(query)
        truth = true_cardinality(table, query)
        assert 0 <= est <= table.num_rows
        # Loose agreement — small model, but the mask plumbing must work.
        assert max(est, 1) / max(truth, 1) < 30
        assert max(truth, 1) / max(est, 1) < 30
