"""Tests for Algorithm 1 (GS-Sampling) and the hard categorical sampler.

The graph Gumbel-Softmax sampler is the reference DPS loop's
(``reference.gumbel``); the fused DPS kernel inlines the same draw and
is held to that loop draw for draw by ``test_train_engine.py``.
"""

import numpy as np
import pytest

from repro.nn.functional import hard_sample_np

from reference.gumbel import gs_sample, gs_sample_from_logits
from reference.tensor import Tensor


class TestGumbelSoftmax:
    def test_output_is_distribution(self):
        rng = np.random.default_rng(0)
        log_probs = Tensor(np.log(np.full((16, 5), 0.2, dtype=np.float32)))
        y = gs_sample(log_probs, tau=1.0, rng=rng)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-5)
        assert (y.data >= 0).all()

    def test_low_temperature_approaches_onehot(self):
        rng = np.random.default_rng(1)
        logp = Tensor(np.log(np.array([[0.5, 0.3, 0.2]] * 64,
                                      dtype=np.float32)))
        hot = gs_sample(logp, tau=0.05, rng=rng)
        assert hot.data.max(axis=1).mean() > 0.95

    def test_high_temperature_flattens(self):
        rng = np.random.default_rng(2)
        logp = Tensor(np.log(np.array([[0.8, 0.1, 0.1]] * 64,
                                      dtype=np.float32)))
        soft = gs_sample(logp, tau=20.0, rng=rng)
        assert soft.data.max(axis=1).mean() < 0.6

    def test_argmax_frequency_matches_pi(self):
        """The GS sample's argmax must be distributed as the categorical."""
        rng = np.random.default_rng(3)
        pi = np.array([0.5, 0.3, 0.15, 0.05], dtype=np.float32)
        logp = Tensor(np.log(np.tile(pi, (30_000, 1))))
        y = gs_sample(logp, tau=1.0, rng=rng)
        freq = np.bincount(y.data.argmax(axis=1), minlength=4) / 30_000
        np.testing.assert_allclose(freq, pi, atol=0.02)

    def test_gradient_flows_to_logits(self):
        """The whole point: d sample / d distribution parameters exists."""
        rng = np.random.default_rng(4)
        logits = Tensor(np.zeros((8, 4), dtype=np.float32),
                        requires_grad=True)
        y = gs_sample_from_logits(logits, tau=1.0, rng=rng)
        (y[:, 0]).sum().backward()
        assert logits.grad is not None
        assert np.abs(logits.grad).sum() > 0

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            gs_sample(Tensor(np.zeros((1, 2))), tau=0.0,
                      rng=np.random.default_rng(0))

    def test_respects_masked_categories(self):
        """-inf log-probs (Algorithm 2's region masking) never get mass
        beyond the softmax tail."""
        rng = np.random.default_rng(5)
        logp = np.zeros((256, 4), dtype=np.float32)
        logp[:, 2] = -1e9
        y = gs_sample(Tensor(logp), tau=1.0, rng=rng)
        assert y.data[:, 2].max() < 1e-6
        assert (y.data.argmax(axis=1) != 2).all()


class TestHardSampler:
    def test_matches_distribution(self):
        rng = np.random.default_rng(6)
        probs = np.tile(np.array([0.7, 0.2, 0.1]), (50_000, 1))
        codes = hard_sample_np(probs, rng)
        freq = np.bincount(codes, minlength=3) / 50_000
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.01)

    def test_single_category(self):
        rng = np.random.default_rng(7)
        codes = hard_sample_np(np.ones((10, 1)), rng)
        assert (codes == 0).all()

    def test_unnormalised_rows_ok(self):
        rng = np.random.default_rng(8)
        probs = np.tile(np.array([7.0, 2.0, 1.0]), (20_000, 1))
        codes = hard_sample_np(probs, rng)
        freq = np.bincount(codes, minlength=3) / 20_000
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.015)

    def test_never_samples_zero_probability(self):
        rng = np.random.default_rng(9)
        probs = np.tile(np.array([0.5, 0.0, 0.5]), (5000, 1))
        codes = hard_sample_np(probs, rng)
        assert (codes != 1).all()
