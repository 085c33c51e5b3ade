"""Tests for differentiable progressive sampling (Algorithm 2).

Key properties: the DPS estimate agrees with the non-differentiable sampler
in expectation, and — the paper's whole contribution — gradients flow from
the query loss through the sampled chain into every model parameter
(Figure 2(3)).
"""

import numpy as np
import pytest

from repro.core import UAE
from repro.core.dps import ScoreFunctionSampler
from repro.infer import InferenceEngine
from repro.nn import ResMADE
from repro.train import FusedDPS, discrepancy


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    model = ResMADE([4, 3, 5], hidden=24, num_blocks=1, rng=rng)
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.3
    return model


def fixed(mask):
    return ("fixed", np.asarray(mask, dtype=bool))


def qerror_step(sampler, constraint_lists, true_sels, *draws):
    """Estimate (``draws`` are the rest of ``estimate_batch``'s
    arguments), then add the mean q-error's gradient (closed form
    through ``sampler.accumulate_grad``); returns the loss value."""
    est = sampler.estimate_batch(constraint_lists, *draws)
    value, g_est = discrepancy("qerror", est, true_sels)
    sampler.accumulate_grad(g_est)
    return value


def hard_estimate(model, constraints, num_samples, seed):
    """Progressive-sampling selectivity of one query on the engine."""
    return float(InferenceEngine(model).estimate_batch(
        [constraints], num_samples, np.random.default_rng(seed))[0])


def draws(num_samples, seed, temperature=1.0):
    """``FusedDPS.estimate_batch``'s sampling arguments, freshly seeded."""
    return num_samples, temperature, np.random.default_rng(seed)


@pytest.fixture
def constraints():
    return [fixed([True, True, False, False]),
            fixed([True, False, True]),
            fixed([False, True, True, True, False])]


class TestEstimates:
    def test_agrees_with_hard_sampler(self, model, constraints):
        reference = hard_estimate(model, constraints, 4000, seed=1)
        soft = FusedDPS(model).estimate_batch(
            [constraints], *draws(2000, seed=2, temperature=0.2))[0]
        # Low temperature -> soft samples are close to hard one-hots.
        assert soft == pytest.approx(reference, rel=0.3, abs=0.02)

    def test_no_constraints_returns_one(self, model):
        out = FusedDPS(model).estimate_batch([[None, None, None]],
                                             *draws(8, seed=3))
        np.testing.assert_allclose(out, 1.0)

    def test_batch_shape(self, model, constraints):
        out = FusedDPS(model).estimate_batch([constraints, constraints],
                                             *draws(4, seed=4))
        assert out.shape == (2,)

    def test_invalid_sample_count(self, tiny_table):
        with pytest.raises(ValueError):
            UAE(tiny_table, dps_samples=0)


class TestGradients:
    def test_gradients_reach_all_layers(self, model, constraints):
        """Backprop through DPS must touch input, block and output weights."""
        model.zero_grad()
        qerror_step(FusedDPS(model), [constraints], np.array([0.3]),
                    *draws(8, seed=5))
        for name, param in [("input", model.input_layer.weight),
                            ("block", model.blocks[0].fc1.weight),
                            ("output", model.output_layer.weight)]:
            assert param.grad is not None, f"{name} got no gradient"
            assert np.abs(param.grad).sum() > 0, f"{name} gradient is zero"

    def test_gradient_reduces_query_loss(self, model, constraints):
        """A few SGD steps on the DPS loss should fit a target selectivity."""
        from repro.nn import Adam
        rng = np.random.default_rng(6)
        local = ResMADE([4, 3, 5], hidden=24, num_blocks=1, rng=rng)
        dps, stream = FusedDPS(local), draws(16, seed=7)
        target = np.array([0.05])
        opt = Adam(local.parameters(), lr=5e-3)
        first = None
        for step in range(60):
            opt.zero_grad()
            loss = qerror_step(dps, [constraints], target, *stream)
            if first is None:
                first = loss
            opt.step()
        final_est = hard_estimate(local, constraints, 2000, seed=8)
        first_q = max(first, 1.0)
        final_q = max(final_est / target[0], target[0] / max(final_est, 1e-9))
        assert final_q < first_q, (
            f"training did not reduce q-error: {first_q} -> {final_q}")

    def test_scaled_constraint_gradients(self, model):
        gain = 1.0 / (np.arange(4) + 1.0)
        model.zero_grad()
        qerror_step(FusedDPS(model), [[("scaled", np.ones(4, bool), gain),
                                       fixed([True, False, True]), None]],
                    np.array([0.1]), *draws(8, seed=9))
        assert model.output_layer.weight.grad is not None
        assert np.isfinite(model.output_layer.weight.grad).all()

    def test_temperature_changes_sample_softness(self, model, constraints):
        # Run one batch each and inspect the recorded hard argmax spread —
        # the estimates should both be finite and in [0, 1].
        for temperature in (5.0, 0.1):
            est = FusedDPS(model).estimate_batch(
                [constraints], *draws(64, seed=10, temperature=temperature))
            assert np.isfinite(est).all()
            assert (est >= 0).all() and (est <= 1.0 + 1e-5).all()


class TestScoreFunction:
    def test_surrogate_produces_gradients(self, model, constraints):
        model.zero_grad()
        sf = ScoreFunctionSampler(model, num_samples=8, seed=11)
        qerror_step(sf, [constraints], np.array([0.3]))
        assert model.output_layer.weight.grad is not None
        assert np.isfinite(model.output_layer.weight.grad).all()

    def test_estimates_match_hard_sampler(self, model, constraints):
        sf = ScoreFunctionSampler(model, num_samples=3000, seed=12)
        est = sf.estimate_batch([constraints])
        assert est.shape == (1,)
        reference = hard_estimate(model, constraints, 3000, seed=13)
        assert est[0] == pytest.approx(reference, rel=0.25, abs=0.02)

    def test_rejects_scaled_constraints(self, model):
        sf = ScoreFunctionSampler(model, num_samples=4, seed=14)
        with pytest.raises(NotImplementedError):
            sf.estimate_batch([[("scaled", np.ones(4, bool), np.ones(4)),
                                None, None]])
