"""Tests for the compiled hybrid-training engine (:mod:`repro.train`).

The engine's contract is numerical equivalence with the reference
autograd path (``tests/reference/``, "legacy" below): same weights + same
batch + same random draws => same gradients to float32 rounding.
Verified three ways: against the reference backward, against central
finite differences, and through bit-level run-to-run determinism of full
``fit`` loops on both.
"""

import numpy as np
import pytest

from repro.core import UAE
from repro.core.dps import DifferentiableProgressiveSampler
from repro.core.progressive import ProgressiveSampler
from repro.nn import ResMADE
from repro.nn import functional as F
from repro.serve import RoutedEstimateService, UAEServer
from repro.train import FusedDataLoss, FusedDPS

from reference.dps import estimate_batch_legacy
from reference.parity import collect_grads, gradient_parity, max_grad_diff
from reference.uae import UAE_CLASS

FAST = dict(hidden=24, num_blocks=1, est_samples=32, dps_samples=4,
            batch_size=128, query_batch_size=8, seed=0)


def small_model(seed: int = 0) -> ResMADE:
    rng = np.random.default_rng(seed)
    model = ResMADE([5, 7, 4, 6], hidden=16, num_blocks=2, rng=rng)
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.2
        p.bump_version()
    return model


def fixed(mask):
    return ("fixed", np.asarray(mask, dtype=bool))


CONSTRAINTS = [fixed([1, 1, 0, 1, 0]), fixed([0, 1, 1, 0, 1, 1, 0]),
               None, fixed([1, 0, 0, 1, 1, 1])]


def dps_estimate(dps, backend, constraint_lists):
    """``dps``'s seeded stream through the reference loop or the kernel."""
    if backend == "legacy":
        return estimate_batch_legacy(dps, constraint_lists)
    return dps.estimate_batch(constraint_lists)


def batch_codes(model: ResMADE, n: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, d, n) for d in model.domain_sizes],
                    axis=1).astype(np.int64)


def directional_fd(loss_fn, params, direction, eps):
    """Central finite difference of ``loss_fn`` along ``direction``."""
    originals = [p.data.copy() for p in params]
    for p, o, d in zip(params, originals, direction):
        p.data = o + eps * d
        p.bump_version()
    hi = loss_fn()
    for p, o, d in zip(params, originals, direction):
        p.data = o - eps * d
        p.bump_version()
    lo = loss_fn()
    for p, o in zip(params, originals):
        p.data = o
        p.bump_version()
    return (hi - lo) / (2.0 * eps)


class TestFusedDataLoss:
    def test_matches_legacy_loss_and_grads(self):
        model = small_model()
        codes = batch_codes(model, 64)
        wc = np.random.default_rng(2).random((64, 4)) < 0.4

        legacy = None
        logits = model.forward_codes(codes, wildcard=wc)
        for col in range(model.num_cols):
            term = F.cross_entropy(model.logits_for(logits, col),
                                   codes[:, col])
            legacy = term if legacy is None else legacy + term
        model.zero_grad()
        legacy.backward()
        legacy_grads = collect_grads(model)

        fused = FusedDataLoss(model).loss(codes, wc)
        assert fused.item() == pytest.approx(legacy.item(), rel=1e-5)
        model.zero_grad()
        fused.backward()
        fused_grads = collect_grads(model)
        assert max_grad_diff(legacy_grads, fused_grads) < 1e-4

    def test_finite_difference(self):
        model = small_model(3)
        codes = batch_codes(model, 32)
        wc = np.random.default_rng(5).random((32, 4)) < 0.3
        fused = FusedDataLoss(model)

        loss = fused.loss(codes, wc)
        model.zero_grad()
        loss.backward()
        params = list(model.parameters())
        rng = np.random.default_rng(9)
        direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                     for p in params]
        analytic = sum(float((p.grad * d).sum())
                       for p, d in zip(params, direction))
        numeric = directional_fd(
            lambda: FusedDataLoss(model).loss(codes, wc).item(),
            params, direction, eps=2e-3)
        assert numeric == pytest.approx(analytic, rel=0.03, abs=2e-3)

    def test_backward_respects_scale(self):
        model = small_model(4)
        codes = batch_codes(model, 16)
        wc = np.zeros((16, 4), dtype=bool)
        fused = FusedDataLoss(model)
        model.zero_grad()
        fused.loss(codes, wc).backward()
        base = collect_grads(model)
        model.zero_grad()
        (FusedDataLoss(model).loss(codes, wc) * 2.0).backward()
        doubled = collect_grads(model)
        for name in base:
            np.testing.assert_allclose(doubled[name], 2.0 * base[name],
                                       rtol=1e-5, atol=1e-6)

    def test_pooled_buffers_stable_across_steps(self):
        """A reused pool must give the same grads as a fresh instance."""
        model = small_model(6)
        fused = FusedDataLoss(model)
        wc = np.zeros((16, 4), dtype=bool)
        first = batch_codes(model, 16, seed=11)
        second = batch_codes(model, 16, seed=12)
        model.zero_grad()
        fused.loss(first, wc).backward()     # warm the pool
        model.zero_grad()
        fused.loss(second, wc).backward()
        pooled = collect_grads(model)
        model.zero_grad()
        FusedDataLoss(model).loss(second, wc).backward()
        fresh = collect_grads(model)
        assert max_grad_diff(pooled, fresh) == 0.0


class TestFusedDPS:
    def test_matches_legacy_estimates_and_grads(self):
        model = small_model(7)
        results = {}
        for backend in ("legacy", "engine"):
            dps = DifferentiableProgressiveSampler(
                model, num_samples=8, temperature=1.0, seed=42)
            est = dps_estimate(dps, backend,
                               [CONSTRAINTS, CONSTRAINTS[:2] + [None, None]])
            loss = F.qerror_loss(est, np.array([0.2, 0.4]))
            model.zero_grad()
            loss.backward()
            results[backend] = (est.data.copy(), collect_grads(model))
        np.testing.assert_allclose(results["legacy"][0],
                                   results["engine"][0], atol=1e-5)
        assert max_grad_diff(results["legacy"][1],
                             results["engine"][1]) < 1e-4

    def test_finite_difference(self):
        model = small_model(8)
        fused = FusedDPS(model)

        def forward():
            # Fresh identically-seeded RNG per evaluation: the estimate
            # is then a deterministic, differentiable function of the
            # weights (Gumbel noise enters as a constant).
            est = fused.estimate_batch([CONSTRAINTS], 8, 1.0,
                                       np.random.default_rng(13))
            return est

        est = forward()
        model.zero_grad()
        est.sum().backward()
        params = list(model.parameters())
        rng = np.random.default_rng(14)
        direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                     for p in params]
        analytic = sum(float((p.grad * d).sum())
                       for p, d in zip(params, direction))
        numeric = directional_fd(lambda: float(forward().data.sum()),
                                 params, direction, eps=2e-3)
        assert numeric == pytest.approx(analytic, rel=0.05, abs=5e-4)

    def test_gradients_reach_all_layers(self):
        model = small_model(10)
        dps = DifferentiableProgressiveSampler(model, num_samples=8, seed=3)
        model.zero_grad()
        est = dps.estimate_batch([CONSTRAINTS])
        F.qerror_loss(est, np.array([0.3])).backward()
        for name, param in [("input", model.input_layer.weight),
                            ("block", model.blocks[0].fc1.weight),
                            ("output", model.output_layer.weight)]:
            assert param.grad is not None, f"{name} got no gradient"
            assert np.abs(param.grad).sum() > 0, f"{name} gradient is zero"

    def test_scaled_constraints_match_legacy(self):
        model = small_model(15)
        gain = 1.0 / (np.arange(5) + 1.0)
        cls = [[("scaled", np.array([1, 1, 0, 1, 1], bool), gain),
                fixed([1, 0, 1, 0, 1, 1, 1]), None, None]]
        grads = {}
        for backend in ("legacy", "engine"):
            dps = DifferentiableProgressiveSampler(
                model, num_samples=8, seed=21)
            est = dps_estimate(dps, backend, cls)
            model.zero_grad()
            F.qerror_loss(est, np.array([0.15])).backward()
            grads[backend] = collect_grads(model)
        assert max_grad_diff(grads["legacy"], grads["engine"]) < 1e-4

    def test_unknown_backend_rejected(self):
        """There is one implementation: ``backend=`` is no longer a
        keyword, for any value."""
        for backend in ("engine", "legacy", "fast"):
            with pytest.raises(TypeError):
                DifferentiableProgressiveSampler(small_model(),
                                                 backend=backend)

    def test_no_constraints_returns_one(self):
        model = small_model(16)
        dps = DifferentiableProgressiveSampler(model, num_samples=4, seed=1)
        out = dps.estimate_batch([[None] * 4])
        np.testing.assert_allclose(out.data, 1.0)


class TestUAEBackends:
    def test_gradient_parity_on_uae(self, toy_table, toy_workloads):
        wl = toy_workloads["train"]

        def make(backend):
            return UAE_CLASS[backend](toy_table, **FAST)

        probe = make("engine")
        codes = probe.model_codes[
            np.random.default_rng(1).integers(0, len(probe.model_codes), 96)]
        constraints = [probe.fact.expand_masks(q.masks(toy_table))
                       for q in wl.queries[:6]]
        sels = wl.selectivities(toy_table.num_rows)[:6]
        report = gradient_parity(make, codes, constraints, sels)
        assert report["passed"], report

    @pytest.mark.parametrize("backend", ["engine", "legacy"])
    def test_fit_deterministic_per_backend(self, toy_table, toy_workloads,
                                           backend):
        """Two identically-seeded fits produce bit-identical weights."""
        states = []
        for _ in range(2):
            uae = UAE_CLASS[backend](toy_table, **FAST)
            uae.fit(epochs=1, workload=toy_workloads["train"], mode="hybrid")
            states.append(uae.model.state_dict())
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name

    def test_engine_hybrid_fit_learns(self, toy_table, toy_workloads):
        uae = UAE(toy_table, **FAST)
        before = uae.loglikelihood(toy_table.codes[:300])
        uae.fit(epochs=3, workload=toy_workloads["train"], mode="hybrid")
        after = uae.loglikelihood(toy_table.codes[:300])
        assert after > before
        assert np.isfinite(uae.history[-1]["query_loss"])

    def test_backend_options_are_gone(self, toy_table):
        """The selector is deleted, not ignored: every entry point that
        took it now rejects it like any unknown keyword."""
        uae = UAE(toy_table, **FAST)
        assert not hasattr(uae, "train_backend")
        assert not hasattr(uae.config, "train_backend")
        for value in ("engine", "legacy"):
            with pytest.raises(TypeError):
                UAE(toy_table, **FAST, train_backend=value)
            with pytest.raises(TypeError):
                ProgressiveSampler(uae.model, backend=value)
            with pytest.raises(TypeError):
                UAEServer(uae, train_backend=value)
            with pytest.raises(TypeError):
                RoutedEstimateService(train_backend=value)

    @pytest.mark.parametrize("retired", ["engine", "legacy"])
    def test_load_checkpoint_from_before_the_option_was_retired(
            self, toy_table, toy_workloads, tmp_path, retired):
        """A checkpoint whose meta still says ``train_backend`` opens and
        serves the saved model's seeded estimates bit for bit."""
        import json
        uae = UAE(toy_table, **FAST)
        uae.fit(epochs=1, mode="data")
        path, old = str(tmp_path / "new.npz"), str(tmp_path / "old.npz")
        uae.save(path)
        with np.load(path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["config"]["train_backend"] = retired
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez(old, **arrays)

        loaded = UAE.load(old, toy_table)
        assert loaded.config == uae.config
        queries = toy_workloads["test_in"].queries[:8]
        np.testing.assert_array_equal(loaded.estimate_many(queries),
                                      uae.estimate_many(queries))

    def test_fit_early_stop_restores_optimizer_state(self, toy_table,
                                                     toy_workloads):
        """Early stopping must rewind Adam moments with the weights."""
        uae = UAE(toy_table, **FAST)
        wl = toy_workloads["train"]
        snapshots = []

        def capture(epoch, estimator):
            snapshots.append((estimator.model.state_dict(),
                              estimator.optimizer.state_dict()))

        uae.fit(epochs=4, workload=wl, mode="data",
                validation=toy_workloads["test_in"], patience=1,
                on_epoch_end=capture)
        # Whatever epoch was restored, weights and optimizer state must
        # come from the *same* epoch-end snapshot.
        final_state = uae.model.state_dict()
        for weights, opt_state in snapshots:
            if all(np.array_equal(final_state[k], weights[k])
                   for k in final_state):
                for m_final, m_snap in zip(uae.optimizer.state_dict()["m"],
                                           opt_state["m"]):
                    np.testing.assert_array_equal(m_final, m_snap)
                assert uae.optimizer.state_dict()["t"] == opt_state["t"]
                break
        else:  # pragma: no cover - diagnostic
            pytest.fail("restored weights match no epoch-end snapshot")
