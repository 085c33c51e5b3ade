"""Tests for non-natural autoregressive column orders."""

import numpy as np
import pytest

from repro.core import UAE
from repro.infer import InferenceEngine
from repro.data import make_toy
from repro.nn import ResMADE
from repro.workload import generate_inworkload, qerrors

from reference import made as ref


class TestOrderedMADE:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ResMADE([3, 4], hidden=8, order=[0, 0])

    def test_autoregressive_property_follows_order(self):
        """With order [2, 0, 1], column 2 is first: its logits must be
        constant, and column 1 (last) may depend on both others."""
        model = ResMADE([4, 4, 4], hidden=32, num_blocks=1,
                        rng=np.random.default_rng(0), order=[2, 0, 1])
        rng = np.random.default_rng(1)
        codes = np.stack([rng.integers(0, 4, 6) for _ in range(3)], axis=1)

        out = ref.forward_np(model, model.encode_tuples(codes))
        col2 = ref.logits_for(model, out, 2)
        assert np.abs(col2 - col2[0]).max() < 1e-6  # first in order

        # Column 0 (position 1) must ignore column 1 (position 2).
        altered = codes.copy()
        altered[:, 1] = (altered[:, 1] + 1) % 4
        pert = ref.forward_np(model, model.encode_tuples(altered))
        np.testing.assert_allclose(ref.logits_for(model, out, 0),
                                   ref.logits_for(model, pert, 0), atol=1e-5)
        # ...but column 1 (position 2) does depend on column 0.
        altered0 = codes.copy()
        altered0[:, 0] = (altered0[:, 0] + 1) % 4
        pert0 = ref.forward_np(model, model.encode_tuples(altered0))
        assert np.abs(ref.logits_for(model, out, 1)
                      - ref.logits_for(model, pert0, 1)).max() > 1e-7

    def test_progressive_sampling_with_order(self):
        """The sampler must still be unbiased under a permuted order."""
        rng = np.random.default_rng(2)
        model = ResMADE([4, 3, 5], hidden=24, num_blocks=1, rng=rng,
                        order=[1, 2, 0])
        for p in model.parameters():
            p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.3
        masks = [np.array([True, True, False, False]),
                 np.array([True, False, True]),
                 np.array([False, True, True, True, False])]
        # Exact enumeration of the model joint.
        grids = np.meshgrid(*[np.arange(d) for d in [4, 3, 5]], indexing="ij")
        tuples = np.stack([g.reshape(-1) for g in grids], axis=1)
        probs = np.exp(-ref.nll_np(model, tuples))
        keep = np.ones(len(tuples), dtype=bool)
        for col, mask in enumerate(masks):
            keep &= mask[tuples[:, col]]
        exact = float(probs[keep].sum())

        est = InferenceEngine(model).estimate_batch(
            [[("fixed", m) for m in masks]], 4000,
            np.random.default_rng(3))[0]
        assert est == pytest.approx(exact, rel=0.12)

    def test_joint_sums_to_one_under_order(self):
        model = ResMADE([3, 4], hidden=16, num_blocks=1,
                        rng=np.random.default_rng(4), order=[1, 0])
        grids = np.meshgrid(np.arange(3), np.arange(4), indexing="ij")
        tuples = np.stack([g.reshape(-1) for g in grids], axis=1)
        total = np.exp(-ref.nll_np(model, tuples)).sum()
        assert total == pytest.approx(1.0, abs=1e-3)


class TestUAEOrdering:
    def test_random_order_trains_and_estimates(self):
        table = make_toy(rows=1200, seed=5, num_cols=4, max_domain=8)
        uae = UAE(table, hidden=24, num_blocks=1, est_samples=48,
                  dps_samples=4, batch_size=256, column_order="random",
                  seed=0)
        uae.fit(epochs=3, mode="data")
        rng = np.random.default_rng(6)
        wl = generate_inworkload(table, 15, rng)
        errs = qerrors(uae.estimate_many(wl.queries), wl.cardinalities)
        assert np.isfinite(errs).all()
        assert np.median(errs) < 20

    def test_random_order_keeps_factored_pairs_adjacent(self):
        from repro.data import Table
        rng = np.random.default_rng(7)
        table = Table.from_raw("t", {
            "big": np.concatenate([np.arange(3000),
                                   rng.integers(0, 3000, 1000)]),
            "small": rng.integers(0, 5, 4000),
        })
        uae = UAE(table, hidden=16, num_blocks=1, factor_threshold=2048,
                  factor_bits=6, column_order="random", seed=3)
        order = uae.model.order
        # Find hi/lo of the factored column in model space.
        names = uae.fact.model_names
        hi_idx = names.index("big__hi")
        lo_idx = names.index("big__lo")
        assert order.index(lo_idx) == order.index(hi_idx) + 1

    def test_unknown_order_rejected(self):
        table = make_toy(rows=300, seed=8, num_cols=3)
        with pytest.raises(ValueError):
            UAE(table, column_order="alphabetical")
