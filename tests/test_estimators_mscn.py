"""Tests for MSCN-base and MSCN+sampling."""

import numpy as np
import pytest

from repro.data import Table
from repro.estimators import MSCNBase, MSCNSampling
from repro.workload import (Query, WorkloadConfig, generate_inworkload,
                            generate_random, qerrors)

from reference.losses import mse_loss
from reference.mscn import set_mlp_forward
from reference.parity import collect_grads, max_grad_diff
from reference.tensor import Tensor

CONTRACT = 1e-4          # the documented parity tolerance (README/ROADMAP)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 25, 4000)
    b = (a // 3 + rng.integers(0, 3, 4000)) % 10
    c = rng.integers(0, 6, 4000)
    return Table.from_raw("t", {"a": a, "b": b, "c": c})


@pytest.fixture(scope="module")
def workloads(table):
    rng = np.random.default_rng(1)
    cfg = WorkloadConfig(num_filters_min=1)
    return {
        "train": generate_inworkload(table, 150, rng, cfg=cfg),
        "test": generate_inworkload(table, 40, rng, cfg=cfg),
        "random": generate_random(table, 40, rng, cfg=cfg),
    }


class TestFeaturization:
    def test_shapes(self, table, workloads):
        est = MSCNBase(table, epochs=1)
        feats, mask = est._featurize(workloads["train"].queries[:5])
        max_preds = max(len(q) for q in workloads["train"].queries[:5])
        assert feats.shape == (5, max_preds, est.pred_dim)
        assert mask.shape == (5, max_preds)
        assert mask.sum() == sum(len(q)
                                 for q in workloads["train"].queries[:5])

    def test_column_onehot_set(self, table, workloads):
        est = MSCNBase(table, epochs=1)
        query = workloads["train"].queries[0]
        feats, _ = est._featurize([query])
        first_pred_col = table.column_index(query.predicates[0].column)
        assert feats[0, 0, first_pred_col] == 1.0


class TestTraining:
    def test_learns_training_distribution(self, table, workloads):
        est = MSCNBase(table, epochs=40, seed=0).fit(workloads["train"])
        errs = qerrors(est.estimate_many(workloads["test"].queries),
                       workloads["test"].cardinalities)
        assert np.median(errs) < 6.0

    def test_requires_workload(self, table):
        with pytest.raises(ValueError):
            MSCNBase(table).fit(None)

    def test_estimates_clipped_to_table(self, table, workloads):
        est = MSCNBase(table, epochs=2, seed=0).fit(workloads["train"])
        cards = est.estimate_many(workloads["test"].queries)
        assert (cards >= 0).all()
        assert (cards <= table.num_rows).all()

    def test_sampling_variant_beats_base_on_shift(self, table, workloads):
        """The paper's finding 7: sample features help on random queries."""
        base = MSCNBase(table, epochs=40, seed=0).fit(workloads["train"])
        plus = MSCNSampling(table, epochs=40, seed=0).fit(workloads["train"])
        rand = workloads["random"]
        base_err = np.median(qerrors(base.estimate_many(rand.queries),
                                     rand.cardinalities))
        plus_err = np.median(qerrors(plus.estimate_many(rand.queries),
                                     rand.cardinalities))
        assert plus_err <= base_err * 1.2

    def test_bitmap_features_shape(self, table, workloads):
        est = MSCNSampling(table, epochs=1, bitmap_size=32)
        extra = est._extra_features(workloads["train"].queries[:3])
        assert extra.shape == (3, 34)
        # Fraction feature in [0, 1].
        assert (extra[:, -2] >= 0).all() and (extra[:, -2] <= 1).all()

    def test_sampling_size_includes_sample(self, table):
        base = MSCNBase(table, epochs=1)
        plus = MSCNSampling(table, epochs=1)
        assert plus.size_bytes() > base.size_bytes()


class TestGradientParity:
    """The hand-written set-MLP backward against the graph oracle."""

    @pytest.mark.parametrize("cls", [MSCNBase, MSCNSampling],
                             ids=["base", "sampling"])
    def test_matches_graph_oracle(self, cls, table, workloads):
        train = workloads["train"]
        # Trained weights (live ReLUs on every layer) and a batch mixing
        # one-predicate queries with longer ones, so padded predicate
        # slots and the mean pool's per-query counts both matter.
        est = cls(table, epochs=2, seed=0).fit(train)
        queries = ([Query(q.predicates[:1]) for q in train.queries[:3]]
                   + train.queries[3:12])
        feats, mask = est._featurize(queries)
        assert (mask.sum(axis=1) == 1).any() and (mask == 0).any()
        extra = est._extra_features(queries)
        target = np.random.default_rng(2).random(len(queries),
                                                 dtype=np.float32)

        est.net.zero_grad()
        loss = est.net.mse_loss(feats, mask, extra, target)
        hand = collect_grads(est.net)
        est.net.zero_grad()
        pred = set_mlp_forward(est.net, Tensor(feats), mask,
                               None if extra is None else Tensor(extra))
        graph_loss = mse_loss(pred, target)
        graph_loss.backward()
        oracle = collect_grads(est.net)

        assert sorted(hand) == sorted(oracle)
        assert ("extra_fc.weight" in hand) == (cls is MSCNSampling)
        assert all(np.abs(g).max() > 0 for g in hand.values())
        assert max_grad_diff(hand, oracle) < CONTRACT
        assert loss == pytest.approx(graph_loss.item(), abs=CONTRACT)
        np.testing.assert_allclose(est.net.forward(feats, mask, extra)[0],
                                   pred.data, atol=CONTRACT)
