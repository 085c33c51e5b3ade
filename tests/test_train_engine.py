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
from repro.core.dps import ScoreFunctionSampler
from repro.data import ColumnFactorization, Table
from repro.infer import InferenceEngine
from repro.nn import ResMADE
from repro.nn.encoders import EmbeddingEncoder
from repro.serve import RoutedEstimateService, UAEServer
from repro.train import FusedDataLoss, FusedDPS, discrepancy

from reference import functional as F
from reference import made as ref
from reference.dps import estimate_batch_legacy, surrogate_legacy
from reference.fused import LoopDataLoss
from reference.losses import qerror_loss
from reference.made import encode_tuples_concat
from reference.parity import collect_grads, gradient_parity, max_grad_diff
from reference.uae import UAE_CLASS

FAST = dict(hidden=24, num_blocks=1, est_samples=32, dps_samples=4,
            batch_size=128, query_batch_size=8, seed=0)


def small_model(seed: int = 0, **kwargs) -> ResMADE:
    rng = np.random.default_rng(seed)
    model = ResMADE([5, 7, 4, 6], hidden=16, num_blocks=2, rng=rng,
                    embedding_dim=3, **kwargs)
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.2
        p.bump_version()
    return model


def fixed(mask):
    return ("fixed", np.asarray(mask, dtype=bool))


CONSTRAINTS = [fixed([1, 1, 0, 1, 0]), fixed([0, 1, 1, 0, 1, 1, 0]),
               None, fixed([1, 0, 0, 1, 1, 1])]


def dps_qerror_grads(model, backend, constraint_lists, true_sels, *,
                     num_samples=8, temperature=1.0, seed=0):
    """A DPS stream seeded ``seed`` through the reference loop (graph
    q-error, ``backward()``) or the kernel (closed-form q-error,
    ``FusedDPS.accumulate_grad``): returns the estimates and the
    parameter gradients."""
    rng = np.random.default_rng(seed)
    model.zero_grad()
    if backend == "legacy":
        est = estimate_batch_legacy(model, constraint_lists, num_samples,
                                    temperature, rng)
        qerror_loss(est, true_sels).backward()
        est = est.data
    else:
        fused = FusedDPS(model)
        est = fused.estimate_batch(constraint_lists, num_samples,
                                   temperature, rng)
        fused.accumulate_grad(discrepancy("qerror", est, true_sels)[1])
    return est.copy(), collect_grads(model)


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


def assert_data_loss_matches_legacy(model, codes, wc) -> dict:
    """Fused data loss vs the reference graph: same loss, gradients to
    1e-4.  Returns the fused gradients."""
    legacy = None
    logits = ref.forward_codes(model, codes, wildcard=wc)
    for col in range(model.num_cols):
        term = F.cross_entropy(ref.logits_for(model, logits, col),
                               codes[:, col])
        legacy = term if legacy is None else legacy + term
    model.zero_grad()
    legacy.backward()
    legacy_grads = collect_grads(model)

    model.zero_grad()
    fused = FusedDataLoss(model).loss(codes, wc)
    assert fused == pytest.approx(legacy.item(), rel=1e-5)
    fused_grads = collect_grads(model)
    assert max_grad_diff(legacy_grads, fused_grads) < 1e-4
    return fused_grads


class TestFusedDataLoss:
    def test_matches_legacy_loss_and_grads(self):
        model = small_model()
        codes = batch_codes(model, 64)
        wc = np.random.default_rng(2).random((64, 4)) < 0.4

        assert_data_loss_matches_legacy(model, codes, wc)

    def test_embedding_tables_match_legacy(self):
        """Embedding tables get the gradient of the rows their
        non-wildcarded entries looked up, as in the reference graph."""
        model = small_model(2, encoding="embedding")
        codes = batch_codes(model, 64)
        wc = np.random.default_rng(3).random((64, 4)) < 0.4
        grads = assert_data_loss_matches_legacy(model, codes, wc)
        for c in model.order[:-1]:        # the last column feeds no logit
            enc = model.encoders[c]
            name = f"encoders.{c}.table.weight"
            seen = np.unique(codes[~wc[:, c], c])
            unseen = np.setdiff1d(np.arange(enc.domain_size), seen)
            assert np.abs(grads[name][seen]).sum(axis=1).min() > 0
            assert not grads[name][unseen].any()

    def test_embedding_table_finite_difference(self):
        model = small_model(4, encoding="embedding")
        codes = batch_codes(model, 32)
        wc = np.random.default_rng(6).random((32, 4)) < 0.3
        model.zero_grad()
        FusedDataLoss(model).loss(codes, wc)
        tables = [enc.table.weight for enc in model.encoders]
        rng = np.random.default_rng(7)
        direction = [rng.standard_normal(t.data.shape).astype(np.float32)
                     for t in tables]
        analytic = sum(float((t.grad * d).sum())
                       for t, d in zip(tables, direction))
        numeric = directional_fd(
            lambda: FusedDataLoss(model).forward(codes, wc)[0],
            tables, direction, eps=2e-3)
        assert abs(analytic) > 1e-3
        assert numeric == pytest.approx(analytic, rel=0.03, abs=1e-4)

    def test_finite_difference(self):
        model = small_model(3)
        codes = batch_codes(model, 32)
        wc = np.random.default_rng(5).random((32, 4)) < 0.3
        fused = FusedDataLoss(model)

        model.zero_grad()
        fused.loss(codes, wc)
        params = list(model.parameters())
        rng = np.random.default_rng(9)
        direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                     for p in params]
        analytic = sum(float((p.grad * d).sum())
                       for p, d in zip(params, direction))
        numeric = directional_fd(
            lambda: FusedDataLoss(model).forward(codes, wc)[0],
            params, direction, eps=2e-3)
        assert numeric == pytest.approx(analytic, rel=0.03, abs=2e-3)

    def test_backward_respects_scale(self):
        model = small_model(4)
        codes = batch_codes(model, 16)
        wc = np.zeros((16, 4), dtype=bool)
        fused = FusedDataLoss(model)
        model.zero_grad()
        fused.loss(codes, wc)
        base = collect_grads(model)
        model.zero_grad()
        FusedDataLoss(model).loss(codes, wc, scale=2.0)
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
        fused.loss(first, wc)                # warm the pool
        model.zero_grad()
        fused.loss(second, wc)
        pooled = collect_grads(model)
        model.zero_grad()
        FusedDataLoss(model).loss(second, wc)
        fresh = collect_grads(model)
        assert max_grad_diff(pooled, fresh) == 0.0


def oracle_model(encoding: str, order=None, factorize: bool = False,
                 seed: int = 0) -> ResMADE:
    """A model whose columns span every encoder width the kernels see:
    a one-value column, a 37-wide one and, with ``factorize``, the
    digits of a factorized 300-value column."""
    domains = [5, 1, 37, 7, 4]
    if factorize:
        table = Table.from_raw("t", {"big": np.arange(300),
                                     "small": np.arange(300) % 6})
        fact = ColumnFactorization(table, threshold=64, bits=5)
        assert fact.any_factored
        domains += fact.model_domains
    if order == "random":
        order = list(np.random.default_rng(seed).permutation(len(domains)))
    rng = np.random.default_rng(seed)
    model = ResMADE(domains, hidden=24, num_blocks=2, rng=rng,
                    encoding=encoding, embedding_dim=3, order=order)
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.5
        p.bump_version()
    return model


ORACLE_CASES = [("binary", None, False), ("onehot", None, False),
                ("embedding", None, False), ("binary", "random", False),
                ("binary", None, True), ("embedding", "random", True)]


class TestOnePassCrossEntropy:
    """The one-pass cross-entropy against the per-column loop it
    replaced (``reference.fused.LoopDataLoss``): equal to the bit."""

    @pytest.mark.parametrize("encoding,order,factorize", ORACLE_CASES)
    @pytest.mark.parametrize("wildcarded", [False, True])
    def test_loss_logit_grads_and_param_grads_are_bit_identical(
            self, encoding, order, factorize, wildcarded):
        model = oracle_model(encoding, order, factorize)
        codes = batch_codes(model, 97, seed=3)
        wc = (np.random.default_rng(4).random(codes.shape) < 0.35
              if wildcarded else None)
        seen = []
        for kernel in (FusedDataLoss, LoopDataLoss):
            total, state = kernel(model).forward(codes, wc)
            model.zero_grad()
            value = kernel(model).loss(codes, wc, scale=0.5)
            seen.append((total, state[-1].copy(), value,
                         collect_grads(model)))
        (total, grad_logits, value, grads), (ref_total, ref_logits,
                                             ref_value, ref_grads) = seen
        assert total == ref_total
        assert value == ref_value
        np.testing.assert_array_equal(grad_logits, ref_logits)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name],
                                          err_msg=name)

    @pytest.mark.parametrize("encoding", ["binary", "onehot", "embedding",
                                          "mixed"])
    @pytest.mark.parametrize("wildcarded", [False, True])
    def test_encode_tuples_is_the_encoders_concatenation(self, encoding,
                                                         wildcarded):
        if encoding == "mixed":      # one column over the embedding cut
            model = ResMADE([5, 40, 3, 2], hidden=16, encoding="binary",
                            embedding_threshold=16, embedding_dim=4)
            assert any(isinstance(e, EmbeddingEncoder)
                       for e in model.encoders)
        else:
            model = oracle_model(encoding, factorize=True)
        codes = batch_codes(model, 61, seed=5)
        wc = (np.random.default_rng(6).random(codes.shape) < 0.4
              if wildcarded else None)
        for dtype in (np.int64, np.int32):
            out = model.encode_tuples(codes.astype(dtype), wc)
            ref = encode_tuples_concat(model, codes, wc)
            assert out.dtype == ref.dtype == np.float32
            # The layout too: the input GEMMs round by it.
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


class TestFusedDPS:
    def test_matches_legacy_estimates_and_grads(self):
        model = small_model(7)
        results = {}
        for backend in ("legacy", "engine"):
            results[backend] = dps_qerror_grads(
                model, backend, [CONSTRAINTS, CONSTRAINTS[:2] + [None, None]],
                np.array([0.2, 0.4]), num_samples=8, temperature=1.0,
                seed=42)
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
            return fused.estimate_batch([CONSTRAINTS], 8, 1.0,
                                        np.random.default_rng(13))

        est = forward()
        model.zero_grad()
        fused.accumulate_grad(np.ones_like(est))   # d sum(est)
        params = list(model.parameters())
        rng = np.random.default_rng(14)
        direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                     for p in params]
        analytic = sum(float((p.grad * d).sum())
                       for p, d in zip(params, direction))
        numeric = directional_fd(lambda: float(forward().sum()),
                                 params, direction, eps=2e-3)
        assert numeric == pytest.approx(analytic, rel=0.05, abs=5e-4)

    def test_gradients_reach_all_layers(self):
        model = small_model(10)
        dps_qerror_grads(model, "engine", [CONSTRAINTS], np.array([0.3]),
                         num_samples=8, seed=3)
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
            _, grads[backend] = dps_qerror_grads(model, backend, cls,
                                                 np.array([0.15]),
                                                 num_samples=8, seed=21)
        assert max_grad_diff(grads["legacy"], grads["engine"]) < 1e-4

    def test_unknown_backend_rejected(self):
        """There is one implementation: ``backend=`` is no longer a
        keyword, for any value."""
        for backend in ("engine", "legacy", "fast"):
            with pytest.raises(TypeError):
                FusedDPS(small_model(), backend=backend)

    def test_no_constraints_returns_one(self):
        model = small_model(16)
        dps = FusedDPS(model)
        out = dps.estimate_batch([[None] * 4], 4, 1.0,
                                 np.random.default_rng(1))
        np.testing.assert_allclose(out, 1.0)
        model.zero_grad()
        dps.accumulate_grad(np.ones_like(out))   # a constant: nothing to add
        assert all(p.grad is None for p in model.parameters())


class TestScoreFunction:
    """The REINFORCE gradient (``ScoreFunctionSampler.accumulate_grad``, on the
    trunk kernel) vs the graph surrogate it replaced
    (``reference.dps.surrogate_legacy``): same seed, same hard draws,
    gradients within the 1e-4 contract."""

    @pytest.mark.parametrize("encoding", ["binary", "onehot", "embedding"])
    def test_matches_legacy_surrogate(self, encoding):
        model = small_model(17, encoding=encoding)
        cls = [CONSTRAINTS, CONSTRAINTS[:2] + [None, fixed([0, 1, 1, 1, 0, 1])]]
        true = np.array([0.3, 0.2])
        legacy_sf = ScoreFunctionSampler(model, num_samples=16, seed=5)
        surrogate, legacy_est = surrogate_legacy(legacy_sf, cls, true)
        model.zero_grad()
        surrogate.backward()
        legacy = collect_grads(model)

        sf = ScoreFunctionSampler(model, num_samples=16, seed=5)
        est = sf.estimate_batch(cls)
        model.zero_grad()
        sf.accumulate_grad(discrepancy("qerror", est, true)[1])
        engine = collect_grads(model)

        np.testing.assert_allclose(est, legacy_est, rtol=1e-5, atol=1e-7)
        # Both consumed the uniform stream draw for draw.
        assert sf.rng.random() == legacy_sf.rng.random()
        assert max(np.abs(g).max() for g in engine.values()) > 1e-2
        assert max_grad_diff(legacy, engine) < 1e-4

    def test_single_queried_column_has_no_gradient(self):
        """Nothing is sampled before the last queried column, so the
        score-function estimator has no term (as the surrogate)."""
        model = small_model(18)
        sf = ScoreFunctionSampler(model, num_samples=4, seed=6)
        est = sf.estimate_batch([[None, CONSTRAINTS[1], None, None]])
        model.zero_grad()
        sf.accumulate_grad(discrepancy("qerror", est, np.array([0.4]))[1])
        assert all(p.grad is None for p in model.parameters())


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

    def test_embedding_tables_train(self, toy_table):
        uae = UAE(toy_table, **dict(FAST, encoding="embedding",
                                    embedding_dim=4))
        tables = [enc.table.weight for enc in uae.model.encoders]
        before = [t.data.copy() for t in tables]
        uae.fit(epochs=2, mode="data")
        for c in uae.model.order[:-1]:    # the last column feeds no logit
            assert np.abs(tables[c].data - before[c]).max() > 0

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
                InferenceEngine(uae.model, backend=value)
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
