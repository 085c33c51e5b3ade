"""Equivalence tests: compiled inference engine vs the reference numpy
loop (``tests/reference/progressive.py``, "legacy" below).

The engine must be a *semantics-preserving* rewrite: compiled model
forwards match ``hidden_np``/``column_logits_np``/``forward_np`` to float
tolerance, compiled constraints match the reference ``_valid_matrix``
expansion exactly (including factorized ``"lo"`` columns and fanout-scaled
join constraints), and full estimates agree draw-for-draw when both
consume the same random stream.
"""

import numpy as np
import pytest

from repro.core.progressive import ProgressiveSampler
from repro.infer import (BatchScheduler, CompiledModel, InferenceEngine,
                         compile_constraints)
from repro.nn import Adam, ResMADE, Tensor

from reference.progressive import _valid_matrix, estimate_batch_legacy


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    m = ResMADE([4, 6, 5, 3], hidden=24, num_blocks=2, rng=rng)
    for p in m.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.3
        p.bump_version()
    return m


def fixed(mask):
    return ("fixed", np.asarray(mask, dtype=bool))


def make_queries(model, rng, n):
    queries = []
    for _ in range(n):
        cl = []
        for d in model.domain_sizes:
            if rng.random() < 0.3:
                cl.append(None)
                continue
            mask = rng.random(d) < 0.6
            if not mask.any():
                mask[:] = True
            cl.append(fixed(mask))
        if all(c is None for c in cl):
            cl[0] = fixed(np.ones(model.domain_sizes[0], dtype=bool))
        queries.append(cl)
    return queries


class TestCompiledModel:
    def test_hidden_matches_reference(self, model):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, model.input_width)).astype(np.float32)
        compiled = CompiledModel(model)
        np.testing.assert_allclose(compiled.hidden(x), model.hidden_np(x),
                                   atol=1e-6)

    def test_column_logits_match_reference(self, model):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, model.input_width)).astype(np.float32)
        compiled = CompiledModel(model)
        h = model.hidden_np(x)
        for col in range(model.num_cols):
            np.testing.assert_allclose(compiled.column_logits(h.copy(), col),
                                       model.column_logits_np(h, col),
                                       atol=1e-6)

    def test_all_logits_match_forward_np(self, model):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, model.input_width)).astype(np.float32)
        compiled = CompiledModel(model)
        np.testing.assert_allclose(compiled.all_logits(x),
                                   model.forward_np(x), atol=1e-6)

    def test_wildcard_logits_match_reference(self, model):
        compiled = CompiledModel(model)
        zero = np.zeros((1, model.num_cols), dtype=np.int64)
        wild = np.ones((1, model.num_cols), dtype=bool)
        x = model.encode_tuples(zero, wildcard=wild)
        h = model.hidden_np(x)
        for col in range(model.num_cols):
            np.testing.assert_allclose(compiled.wildcard_logits(col),
                                       model.column_logits_np(h, col),
                                       atol=1e-6)

    def test_version_invalidation_on_optimizer_step(self):
        rng = np.random.default_rng(4)
        m = ResMADE([3, 4], hidden=12, num_blocks=1, rng=rng)
        compiled = CompiledModel(m)
        x = rng.standard_normal((4, m.input_width)).astype(np.float32)
        before = compiled.hidden(x).copy()
        # One training step must invalidate the compiled snapshot.
        opt = Adam(m.parameters(), lr=0.1)
        m.forward(Tensor(x)).sum().backward()
        opt.step()
        assert compiled.ensure_current()  # recompiled
        after = compiled.hidden(x)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, m.hidden_np(x), atol=1e-6)

    def test_load_state_dict_invalidates(self):
        rng = np.random.default_rng(5)
        m1 = ResMADE([3, 4], hidden=12, num_blocks=1, rng=rng)
        m2 = ResMADE([3, 4], hidden=12, num_blocks=1,
                     rng=np.random.default_rng(6))
        compiled = CompiledModel(m1)
        m1.load_state_dict(m2.state_dict())
        assert compiled.ensure_current()
        x = rng.standard_normal((3, m1.input_width)).astype(np.float32)
        np.testing.assert_allclose(compiled.hidden(x), m2.hidden_np(x),
                                   atol=1e-6)


class TestCompiledConstraints:
    def test_fixed_and_wildcard_match_legacy(self, model):
        rng = np.random.default_rng(7)
        queries = make_queries(model, rng, 5)
        cc = compile_constraints(queries, model.domain_sizes)
        s = 3
        for col in range(model.num_cols):
            if not cc.queried[col]:
                continue
            valid, gain = cc.valid_gain_rows(col, s, {})
            ref_valid, ref_gain = _valid_matrix(model, queries, col, s, {})
            np.testing.assert_array_equal(valid, ref_valid)
            assert gain is None and ref_gain is None

    def test_lo_grid_matches_legacy(self, model):
        # Column 1 (domain 6) acts as the low digit of column 0 (domain 4).
        grid = np.zeros((4, 6), dtype=bool)
        grid[0, :2] = True
        grid[1, 2:] = True
        grid[3, ::2] = True
        hi_mask = grid.any(axis=1)
        q_lo = [fixed(hi_mask), ("lo", grid), None,
                fixed(np.array([True, False, True]))]
        q_plain = [fixed(np.array([True, True, False, False])), None,
                   fixed(np.array([True, True, False, True, True])), None]
        queries = [q_lo, q_plain]
        s = 4
        hi_codes = np.array([0, 1, 3, 2, 1, 0, 3, 3])  # 2 queries x 4 samples
        sampled = {0: hi_codes}
        cc = compile_constraints(queries, model.domain_sizes)
        valid, gain = cc.valid_gain_rows(1, s, sampled)
        ref_valid, ref_gain = _valid_matrix(model, queries, 1, s, sampled)
        np.testing.assert_array_equal(valid, ref_valid)
        assert gain is None and ref_gain is None
        # Without the sampled high digit the union fallback must apply.
        valid_u, _ = cc.valid_gain_rows(1, s, {})
        ref_valid_u, _ = _valid_matrix(model, queries, 1, s, {})
        np.testing.assert_array_equal(valid_u, ref_valid_u)

    def test_scaled_gain_matches_legacy(self, model):
        gain0 = 1.0 / (np.arange(4) + 1.0)
        q_scaled = [("scaled", np.ones(4, dtype=bool), gain0), None,
                    fixed(np.array([True, False, True, True, False])), None]
        q_plain = [fixed(np.array([False, True, True, True])), None, None,
                   None]
        queries = [q_plain, q_scaled]
        s = 2
        cc = compile_constraints(queries, model.domain_sizes)
        valid, gain = cc.valid_gain_rows(0, s, {})
        ref_valid, ref_gain = _valid_matrix(model, queries, 0, s, {})
        np.testing.assert_array_equal(valid, ref_valid)
        np.testing.assert_allclose(gain, ref_gain, atol=1e-6)
        # Engine-facing combined weights equal valid * gain.
        state_qi = np.array([0, 1])
        w = cc.weight_states(0, state_qi, None)
        np.testing.assert_allclose(
            w, (ref_valid[::s] * ref_gain[::s]).astype(np.float32), atol=1e-6)

    def test_weight_states_resolves_lo_per_state(self, model):
        grid = np.zeros((4, 6), dtype=bool)
        grid[1, :3] = True
        grid[2, 3:] = True
        queries = [[fixed(grid.any(axis=1)), ("lo", grid), None, None]]
        cc = compile_constraints(queries, model.domain_sizes)
        state_qi = np.zeros(3, dtype=np.int64)
        hi = np.array([1, 2, 0])
        w = cc.weight_states(1, state_qi, hi)
        np.testing.assert_array_equal(w.astype(bool), grid[hi])


class TestEngineEquivalence:
    def test_estimates_match_legacy_draw_for_draw(self, model):
        rng = np.random.default_rng(8)
        queries = make_queries(model, rng, 6)
        legacy = ProgressiveSampler(model, num_samples=200, seed=11)
        engine = ProgressiveSampler(model, num_samples=200, seed=11)
        a = estimate_batch_legacy(legacy, queries)
        b = engine.estimate_batch(queries)
        # Same seed -> same uniform stream -> near bit-identical estimates.
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)

    def test_with_error_matches_legacy(self, model):
        rng = np.random.default_rng(9)
        queries = make_queries(model, rng, 3)
        legacy = ProgressiveSampler(model, num_samples=64, seed=13)
        engine = ProgressiveSampler(model, num_samples=64, seed=13)
        a, ae = estimate_batch_legacy(legacy, queries, with_error=True)
        b, be = engine.estimate_batch(queries, with_error=True)
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(ae, be, rtol=1e-3, atol=1e-7)

    def test_lo_constraints_match_legacy(self, model):
        grid = np.zeros((4, 6), dtype=bool)
        grid[0, :2] = True
        grid[1, 1:4] = True
        grid[2, 4:] = True
        q1 = [fixed(grid.any(axis=1)), ("lo", grid),
              fixed(np.array([True, True, False, True, True])), None]
        q2 = [fixed(np.array([True, False, True, True])), None, None,
              fixed(np.array([True, False, True]))]
        legacy = ProgressiveSampler(model, num_samples=300, seed=17)
        engine = ProgressiveSampler(model, num_samples=300, seed=17)
        a = estimate_batch_legacy(legacy, [q1, q2])
        b = engine.estimate_batch([q1, q2])
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)

    def test_scaled_constraints_match_legacy(self, model):
        gain = 1.0 / (np.arange(6) + 2.0)
        q = [fixed(np.array([True, True, False, False])),
             ("scaled", np.ones(6, dtype=bool), gain),
             fixed(np.array([False, True, True, True, False])), None]
        legacy = ProgressiveSampler(model, num_samples=400, seed=19)
        engine = ProgressiveSampler(model, num_samples=400, seed=19)
        a = estimate_batch_legacy(legacy, [q])
        b = engine.estimate_batch([q])
        np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-7)

    def test_empty_region_is_zero(self, model):
        q = [fixed(np.zeros(4, dtype=bool)), None, None, None]
        engine = ProgressiveSampler(model, num_samples=50, seed=21)
        assert engine.estimate(q) == 0.0

    def test_no_constraints_is_one(self, model):
        engine = InferenceEngine(model)
        rng = np.random.default_rng(23)
        out = engine.estimate_batch([[None] * model.num_cols], 16, rng)
        np.testing.assert_allclose(out, 1.0)

    def test_single_column_query_uses_wildcard_cache(self, model):
        """One queried column never touches the batched network path."""
        mask = np.array([True, False, True, False])
        q = [fixed(mask), None, None, None]
        legacy = ProgressiveSampler(model, num_samples=500, seed=29)
        engine = ProgressiveSampler(model, num_samples=500, seed=29)
        np.testing.assert_allclose(estimate_batch_legacy(legacy, [q])[0],
                                   engine.estimate(q),
                                   rtol=1e-5, atol=1e-8)

    def test_engine_tracks_training_updates(self, model):
        """Estimates follow the weights across an optimizer step."""
        rng = np.random.default_rng(31)
        m = ResMADE([4, 3], hidden=16, num_blocks=1, rng=rng)
        engine = ProgressiveSampler(m, num_samples=400, seed=37)
        q = [fixed(np.array([True, False, False, True])), None]
        before = engine.estimate(q)
        opt = Adam(m.parameters(), lr=0.3)
        x = rng.standard_normal((8, m.input_width)).astype(np.float32)
        # Asymmetric loss so column marginals actually move.
        scale = Tensor(rng.standard_normal((1, m.total_logits))
                       .astype(np.float32))
        (m.forward(Tensor(x)) * scale).sum().backward()
        opt.step()
        after = engine.estimate(q)
        reference = estimate_batch_legacy(
            ProgressiveSampler(m, num_samples=4000, seed=41), [q])[0]
        assert after == pytest.approx(reference, rel=0.2, abs=0.02)
        assert before != after


class TestScheduler:
    def test_matches_per_query_estimates(self, model):
        rng = np.random.default_rng(43)
        queries = make_queries(model, rng, 7)
        sampler = ProgressiveSampler(model, num_samples=2000, seed=47)
        many = sampler.estimate_many(queries)
        for i, q in enumerate(queries):
            solo = ProgressiveSampler(model, num_samples=2000,
                                      seed=53 + i).estimate(q)
            assert many[i] == pytest.approx(solo, rel=0.25, abs=0.02)

    def test_groups_by_signature(self, model):
        q_a = [fixed(np.ones(4, dtype=bool)), None, None, None]
        q_b = [None, fixed(np.ones(6, dtype=bool)), None, None]
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine)
        plan = scheduler.plan([q_a, q_b, q_a, q_b, q_b])
        assert sorted(sorted(g) for g in plan) == [[0, 2], [1, 3, 4]]

    def test_chunking_respects_row_budget(self, model):
        q = [fixed(np.ones(4, dtype=bool)), None, None, None]
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine, max_rows=20)
        rng = np.random.default_rng(59)
        out = scheduler.estimate_many([q] * 9, num_samples=10, rng=rng)
        assert out.shape == (9,)
        assert np.all((out >= 0) & (out <= 1))

    def test_empty_input(self, model):
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine)
        rng = np.random.default_rng(61)
        assert scheduler.estimate_many([], 16, rng).shape == (0,)
        out, err = scheduler.estimate_many([], 16, rng, with_error=True)
        assert out.shape == (0,) and err.shape == (0,)

    def _count_engine_calls(self, scheduler, queries, num_samples=32):
        calls = []
        original = scheduler.engine.estimate_batch

        def counting(chunk, *args, **kwargs):
            calls.append(len(chunk))
            return original(chunk, *args, **kwargs)

        scheduler.engine.estimate_batch = counting
        try:
            out = scheduler.estimate_many(queries, num_samples,
                                          np.random.default_rng(67))
        finally:
            scheduler.engine.estimate_batch = original
        return out, calls

    def test_small_groups_coalesce_into_mixed_batches(self, model):
        """Singleton signatures run as one mixed engine batch, not one
        dispatch per signature (the BENCH_infer scheduler regression)."""
        rng = np.random.default_rng(63)
        queries = make_queries(model, rng, 6)
        # Force distinct signatures so every group is a singleton.
        distinct = []
        sigs = set()
        for q in queries:
            sig = tuple(c is not None for c in q)
            if sig not in sigs:
                sigs.add(sig)
                distinct.append(q)
        engine = InferenceEngine(model)
        coalescing = BatchScheduler(engine, min_group_size=4)
        out_c, calls_c = self._count_engine_calls(coalescing, distinct)
        assert len(calls_c) == 1 and calls_c[0] == len(distinct)
        grouped = BatchScheduler(engine, min_group_size=1)
        out_g, calls_g = self._count_engine_calls(grouped, distinct)
        assert len(calls_g) == len(distinct)
        assert out_c.shape == out_g.shape == (len(distinct),)
        assert np.all((out_c >= 0) & (out_c <= 1))

    def test_coalesced_estimates_match_solo(self, model):
        rng = np.random.default_rng(69)
        queries = make_queries(model, rng, 5)
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine, min_group_size=10)  # coalesce all
        many = scheduler.estimate_many(queries, 600,
                                       np.random.default_rng(71))
        for i, q in enumerate(queries):
            solo = ProgressiveSampler(model, num_samples=600,
                                      seed=73 + i).estimate(q)
            assert many[i] == pytest.approx(solo, rel=0.25, abs=0.02)

    def test_coalesce_row_budget_splits_chunks(self, model):
        rng = np.random.default_rng(75)
        queries = make_queries(model, rng, 8)
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine, min_group_size=100,
                                   coalesce_rows=3 * 32)
        out, calls = self._count_engine_calls(scheduler, queries,
                                              num_samples=32)
        assert out.shape == (8,)
        assert all(c <= 3 for c in calls)
        assert sum(calls) == 8


class TestFusedMaskedLinear:
    def test_forward_matches_manual_product(self):
        from repro.nn import MaskedLinear, Tensor
        rng = np.random.default_rng(61)
        layer = MaskedLinear(5, 4, rng)
        mask = (rng.random((4, 5)) < 0.5).astype(np.float32)
        layer.set_mask(mask)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        expected = x @ (layer.weight.data * mask).T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected,
                                   atol=1e-6)

    def test_cache_invalidates_after_step(self):
        from repro.nn import SGD, MaskedLinear, Tensor
        rng = np.random.default_rng(67)
        layer = MaskedLinear(3, 3, rng)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        first = layer.fused_weight().copy()
        out = layer(Tensor(x))
        out.sum().backward()
        SGD(layer.parameters(), lr=0.5).step()
        second = layer.fused_weight()
        assert not np.allclose(first, second)
        np.testing.assert_allclose(second, layer.weight.data * layer.mask,
                                   atol=1e-7)

    def test_gradients_match_explicit_graph(self):
        """Fused backward == gradient of x @ (W*M).T + b."""
        from repro.nn import MaskedLinear, Tensor
        rng = np.random.default_rng(71)
        layer = MaskedLinear(4, 3, rng)
        mask = (rng.random((3, 4)) < 0.6).astype(np.float32)
        layer.set_mask(mask)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32),
                   requires_grad=True)
        out = layer(x)
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(upstream)
        # Reference gradients from the explicit masked product.
        ref_w = (upstream.T @ x.data) * mask
        ref_b = upstream.sum(axis=0)
        ref_x = upstream @ (layer.weight.data * mask)
        np.testing.assert_allclose(layer.weight.grad, ref_w, atol=1e-5)
        np.testing.assert_allclose(layer.bias.grad, ref_b, atol=1e-5)
        np.testing.assert_allclose(x.grad, ref_x, atol=1e-5)
