"""Tests for softmax/cross-entropy (the reference paths' graph
functions), the query-loss discrepancies and Gumbel noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.train import DISCREPANCIES, discrepancy
from tests.conftest import numeric_gradient

from reference import functional as G
from reference.losses import GRAPH_DISCREPANCY, mse_loss
from reference.tensor import Tensor

RNG = np.random.default_rng(1)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(RNG.standard_normal((5, 7)))
        probs = G.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
        assert (probs >= 0).all()

    def test_matches_scipy(self):
        from scipy.special import softmax as scipy_softmax
        x = RNG.standard_normal((4, 6))
        np.testing.assert_allclose(G.softmax(Tensor(x)).data,
                                   scipy_softmax(x, axis=-1), atol=1e-5)

    def test_stable_with_large_logits(self):
        x = np.array([[1000.0, 1000.0, -1000.0]])
        probs = G.softmax(Tensor(x)).data
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[0, :2], 0.5, atol=1e-5)

    def test_gradient(self):
        x = RNG.standard_normal((3, 4))

        def fn(arr):
            return (G.softmax(Tensor(arr, requires_grad=False)) ** 2) \
                .sum().item()

        t = Tensor(x, requires_grad=True)
        (G.softmax(t) ** 2).sum().backward()
        numeric = numeric_gradient(lambda a: fn(a), x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=2e-2)

    def test_log_softmax_consistency(self):
        x = RNG.standard_normal((4, 5))
        np.testing.assert_allclose(G.log_softmax(Tensor(x)).data,
                                   np.log(G.softmax(Tensor(x)).data),
                                   atol=1e-5)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((8, 5)))
        targets = RNG.integers(0, 5, 8)
        loss = G.cross_entropy(logits, targets)
        assert loss.item() == pytest.approx(np.log(5), rel=1e-4)

    def test_perfect_prediction_near_zero(self):
        targets = np.array([0, 1, 2])
        logits = np.full((3, 3), -50.0)
        logits[np.arange(3), targets] = 50.0
        assert G.cross_entropy(Tensor(logits), targets).item() < 1e-4

    def test_gradient_direction(self):
        """Gradient should push the target logit up."""
        logits = Tensor(np.zeros((1, 4)), requires_grad=True)
        loss = G.cross_entropy(logits, np.array([2]))
        loss.backward()
        assert logits.grad[0, 2] < 0          # increase target logit
        assert (np.delete(logits.grad[0], 2) > 0).all()


class TestQErrorLoss:
    """The shipped closed-form q-error (:func:`repro.train.discrepancy`)."""

    def test_perfect_estimate_is_one(self):
        loss, _ = discrepancy("qerror", np.array([0.25, 0.5]),
                              np.array([0.25, 0.5]))
        assert loss == pytest.approx(1.0, rel=1e-5)

    def test_symmetric_in_ratio(self):
        over, _ = discrepancy("qerror", np.array([0.4]), np.array([0.1]))
        under, _ = discrepancy("qerror", np.array([0.1]), np.array([0.4]))
        assert over == pytest.approx(under, rel=1e-5)
        assert over == pytest.approx(4.0, rel=1e-5)

    def test_gradient_sign(self):
        _, grad = discrepancy("qerror", np.array([0.4]), np.array([0.1]))
        assert grad[0] > 0  # overestimate: push estimate down
        _, grad = discrepancy("qerror", np.array([0.05]), np.array([0.2]))
        assert grad[0] < 0  # underestimate: push estimate up

    def test_zero_estimate_clamped(self):
        loss, grad = discrepancy("qerror", np.array([0.0]), np.array([0.5]))
        assert np.isfinite(loss)
        assert grad[0] == 0.0  # below the clamp: no gradient


class TestOtherLosses:
    def test_mse(self):
        loss = mse_loss(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        assert discrepancy("mse", np.array([1.0, 2.0]),
                           np.array([0.0, 0.0]))[0] == pytest.approx(2.5)

    def test_msle_perfect(self):
        loss, grad = discrepancy("msle", np.array([0.1, 0.9]),
                                 np.array([0.1, 0.9]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)

    def test_masked_fill(self):
        logits = Tensor(np.ones((2, 3)), requires_grad=True)
        invalid = np.array([[True, False, False], [False, False, True]])
        out = G.masked_fill(logits, invalid)
        assert out.data[0, 0] == F.NEG_INF
        assert out.data[0, 1] == 1.0
        out.sum().backward()
        # Gradient flows only through the kept entries.
        np.testing.assert_allclose(logits.grad, (~invalid).astype(float))


class TestGumbelNoise:
    def test_moments(self):
        g = F.sample_gumbel((200_000,), np.random.default_rng(0))
        euler = 0.5772156649
        assert g.mean() == pytest.approx(euler, abs=0.02)
        assert g.std() == pytest.approx(np.pi / np.sqrt(6), abs=0.02)

    def test_argmax_gumbel_trick_distribution(self):
        """argmax(log pi + g) should sample from pi (Eq. 8)."""
        pi = np.array([0.6, 0.3, 0.1])
        rng = np.random.default_rng(2)
        n = 40_000
        noise = F.sample_gumbel((n, 3), rng)
        picks = (np.log(pi)[None, :] + noise).argmax(axis=1)
        freq = np.bincount(picks, minlength=3) / n
        np.testing.assert_allclose(freq, pi, atol=0.02)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
def test_qerror_loss_at_least_one(est, true):
    loss, _ = discrepancy("qerror", np.array([est]), np.array([true]))
    assert loss >= 1.0 - 1e-4


class TestDiscrepancyMatchesGraph:
    """The closed form vs the graph-built loss it replaced
    (``reference.losses``), bit for bit — value and ``scale * dL/d est``
    — on every branch: est above truth, below truth, equal to truth
    (the q-error tie splits 0.5 / 0.5), and below the ``eps`` clamp
    (no gradient)."""

    EST = np.array([0.4, 0.05, 0.2, 1e-12, 0.0], dtype=np.float32)
    TRUE = np.array([0.1, 0.2, 0.2, 0.3, 0.25])

    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    @pytest.mark.parametrize("kind", DISCREPANCIES)
    def test_value_and_gradient_bit_identical(self, kind, scale):
        est = Tensor(self.EST, requires_grad=True)
        graph = GRAPH_DISCREPANCY[kind](est, self.TRUE)
        (graph * scale).backward()
        value, grad = discrepancy(kind, self.EST, self.TRUE, scale)
        assert value == graph.item()
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad, est.grad)

    def test_branches(self):
        _, grad = discrepancy("qerror", self.EST, self.TRUE)
        n = len(self.EST)
        above, below, tie, tiny, zero = grad
        assert above == pytest.approx(1.0 / n / 0.1, rel=1e-6)
        assert below == pytest.approx(-0.2 / 0.05 ** 2 / n, rel=1e-6)
        # A tie: half of d(est/true) plus half of d(true/est).
        assert tie == pytest.approx(0.5 * (1 / 0.2 - 0.2 / 0.2 ** 2) / n,
                                    abs=1e-6)
        assert tiny == 0.0 and zero == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            discrepancy("nope", self.EST, self.TRUE)
