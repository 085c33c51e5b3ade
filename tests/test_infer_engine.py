"""Equivalence tests: compiled inference engine vs the reference numpy
loop (``tests/reference/progressive.py``, "legacy" below).

The engine must be a *semantics-preserving* rewrite: the shared trunk
kernel and the compiled heads match the reference forwards
(``tests/reference/made.py``) to float tolerance, compiled constraints
match the reference ``_valid_matrix`` expansion exactly (including
factorized ``"lo"`` columns and fanout-scaled join constraints), and
full estimates agree draw-for-draw when both consume the same random
stream.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.infer import (BatchScheduler, CompiledModel, InferenceEngine,
                         compile_constraints)
from repro.infer import scheduler as scheduler_module
from repro.nn import Adam, MaskedLinear, ResMADE
from repro.nn.buffers import BufferPool
from repro.nn.encoders import EmbeddingEncoder, OneHotEncoder
from repro.nn.trunk import trunk_forward

from reference import made as ref
from reference.modules import masked_linear
from reference.progressive import _valid_matrix, estimate_batch_legacy
from reference.tensor import Tensor

# Model shapes the compiled input deltas and hidden-prefix trunk must
# handle: every encoder kind, a non-natural autoregressive order, and a
# hidden layer narrower than ``num_cols - 1`` (``hidden_prefix``
# saturates at ``hidden`` before the last position).
MODEL_SHAPES = {
    "binary": dict(domains=[4, 6, 5, 3], hidden=24),
    "onehot": dict(domains=[4, 6, 5, 3], hidden=24, encoding="onehot"),
    "embedding": dict(domains=[4, 6, 5, 3], hidden=24,
                      embedding_threshold=5, embedding_dim=4),
    "permuted_order": dict(domains=[4, 6, 5, 3], hidden=24,
                           order=[2, 0, 3, 1]),
    "narrow_hidden": dict(domains=[4, 6, 5, 3, 4, 5, 3], hidden=4),
}


@functools.lru_cache(maxsize=None)
def shaped_model(shape: str) -> ResMADE:
    """Seeded ResMADE of one ``MODEL_SHAPES`` entry, weights perturbed
    away from their initialisation so conditionals are far from flat."""
    kwargs = dict(MODEL_SHAPES[shape])
    rng = np.random.default_rng(0)
    m = ResMADE(kwargs.pop("domains"), num_blocks=2, rng=rng, **kwargs)
    for p in m.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.3
        p.bump_version()
    return m


def test_model_shapes_cover_their_cases():
    assert any(isinstance(e, OneHotEncoder)
               for e in shaped_model("onehot").encoders)
    assert any(isinstance(e, EmbeddingEncoder)
               for e in shaped_model("embedding").encoders)
    assert shaped_model("permuted_order").order != [0, 1, 2, 3]
    narrow = shaped_model("narrow_hidden")
    assert narrow.input_layer.out_features < narrow.num_cols - 1
    assert narrow.hidden_prefix[-2] == narrow.hidden_prefix[-1]


@pytest.fixture(scope="module")
def model():
    return shaped_model("binary")


def single_code_pre(model: ResMADE) -> tuple[np.ndarray, list[np.ndarray]]:
    """Input-layer output of the all-wildcard row and, per column, of
    every row that sets only that column (straight from the model)."""
    n = model.num_cols
    w = model.input_layer.fused_weight_t()
    b = model.input_layer.bias.data
    wild = np.ones((1, n), dtype=bool)
    x = model.encode_tuples(np.zeros((1, n), dtype=np.int64), wildcard=wild)
    rows = []
    for col, d in enumerate(model.domain_sizes):
        codes = np.zeros((d, n), dtype=np.int64)
        codes[:, col] = np.arange(d)
        wc = np.ones((d, n), dtype=bool)
        wc[:, col] = False
        rows.append(model.encode_tuples(codes, wildcard=wc) @ w + b)
    return x @ w + b, rows


def assert_input_deltas_current(compiled: CompiledModel, model: ResMADE):
    wildcard_pre, rows = single_code_pre(model)
    np.testing.assert_allclose(compiled.wildcard_pre, wildcard_pre,
                               atol=1e-5)
    for col, pre in enumerate(rows):
        np.testing.assert_allclose(compiled.code_delta[col],
                                   pre - wildcard_pre, atol=1e-5)


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


def input_pre(model: ResMADE, x: np.ndarray) -> np.ndarray:
    """Input-layer pre-activation of encoded rows ``x``."""
    return x @ model.input_layer.fused_weight_t() + model.input_layer.bias.data


class TestCompiledModel:
    def test_hidden_matches_reference(self, model):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, model.input_width)).astype(np.float32)
        h, acts = trunk_forward(model, x)
        assert acts is None
        np.testing.assert_allclose(h, ref.hidden_np(model, x), atol=1e-6)

    def test_column_logits_match_reference(self, model):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, model.input_width)).astype(np.float32)
        compiled = CompiledModel(model)
        pre = input_pre(model, x)
        h = ref.hidden_np(model, x)
        for col in range(model.num_cols):
            np.testing.assert_allclose(
                compiled.position_logits(pre, model.position[col]),
                ref.column_logits_np(model, h, col), atol=1e-6)

    def test_all_logits_match_forward_np(self, model):
        """The column heads tile the output layer: the full-width trunk
        plus every head is the reference full forward."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, model.input_width)).astype(np.float32)
        compiled = CompiledModel(model)
        h, _ = trunk_forward(model, x)
        fr = np.maximum(h, 0.0)
        logits = np.concatenate(
            [fr @ compiled.heads[col] + compiled.head_bias[col]
             for col in range(model.num_cols)], axis=1)
        np.testing.assert_allclose(logits, ref.forward_np(model, x),
                                   atol=1e-6)

    def test_wildcard_logits_match_reference(self, model):
        compiled = CompiledModel(model)
        zero = np.zeros((1, model.num_cols), dtype=np.int64)
        wild = np.ones((1, model.num_cols), dtype=bool)
        x = model.encode_tuples(zero, wildcard=wild)
        h = ref.hidden_np(model, x)
        for col in range(model.num_cols):
            np.testing.assert_allclose(compiled.wildcard_logits(col),
                                       ref.column_logits_np(model, h, col),
                                       atol=1e-6)

    def test_version_invalidation_on_optimizer_step(self):
        rng = np.random.default_rng(4)
        m = ResMADE([3, 4], hidden=12, num_blocks=1, rng=rng)
        compiled = CompiledModel(m)
        x = rng.standard_normal((4, m.input_width)).astype(np.float32)
        before = compiled.wildcard_logits(1).copy()
        pre_before = compiled.wildcard_pre.copy()
        delta_before = [d.copy() for d in compiled.code_delta]
        # One training step must invalidate the compiled snapshot.
        opt = Adam(m.parameters(), lr=0.1)
        ref.forward(m, Tensor(x)).sum().backward()
        opt.step()
        assert compiled.ensure_current()  # recompiled
        after = compiled.wildcard_logits(1)
        assert not np.allclose(before, after)
        assert_wildcard_logits_current(compiled, m)
        assert not np.allclose(pre_before, compiled.wildcard_pre)
        assert not all(np.allclose(a, b) for a, b
                       in zip(delta_before, compiled.code_delta))
        assert_input_deltas_current(compiled, m)

    def test_load_state_dict_invalidates(self):
        rng = np.random.default_rng(5)
        m1 = ResMADE([3, 4], hidden=12, num_blocks=1, rng=rng)
        m2 = ResMADE([3, 4], hidden=12, num_blocks=1,
                     rng=np.random.default_rng(6))
        compiled = CompiledModel(m1)
        pre_before = compiled.wildcard_pre.copy()
        m1.load_state_dict(m2.state_dict())
        assert compiled.ensure_current()
        assert_wildcard_logits_current(compiled, m2)
        assert not np.allclose(pre_before, compiled.wildcard_pre)
        assert_input_deltas_current(compiled, m2)


def assert_wildcard_logits_current(compiled: CompiledModel, model: ResMADE):
    zero = np.zeros((1, model.num_cols), dtype=np.int64)
    wild = np.ones((1, model.num_cols), dtype=bool)
    h = ref.hidden_np(model, model.encode_tuples(zero, wildcard=wild))
    for col in range(model.num_cols):
        np.testing.assert_allclose(compiled.wildcard_logits(col),
                                   ref.column_logits_np(model, h, col),
                                   atol=1e-6)


class TestPrefixStep:
    """The engine's per-step forward: a prefix state's input-layer
    pre-activation built from ``wildcard_pre`` + ``code_delta`` rows,
    then ``position_logits`` on the hidden-unit prefix, against the
    reference full forward."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(MODEL_SHAPES)), st.data())
    def test_prefix_walk_matches_full_forward(self, shape, data):
        model = shaped_model(shape)
        compiled = CompiledModel(model)
        n, rows = model.num_cols, 3
        codes = np.array(
            [data.draw(st.lists(st.integers(0, d - 1), min_size=rows,
                                max_size=rows))
             for d in model.domain_sizes], dtype=np.int64).T
        wildcard = np.ones((rows, n), dtype=bool)
        pre = np.repeat(compiled.wildcard_pre, rows, axis=0)
        for pos, col in enumerate(model.order):
            x = model.encode_tuples(codes, wildcard=wildcard)
            np.testing.assert_allclose(pre, input_pre(model, x),
                                       rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(
                compiled.position_logits(pre, pos),
                ref.column_logits_np(model, ref.hidden_np(model, x), col),
                rtol=1e-5, atol=1e-5)
            pre += compiled.code_delta[col][codes[:, col]]
            wildcard[:, col] = False


class TestTrunkKernel:
    """One kernel, three ways in: with stored activations (the training
    kernels), without (inference), and through ``position_logits``.
    All three must agree to the bit at every position."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["binary", "onehot", "embedding"]),
           st.integers(3, 7), st.integers(2, 12), st.integers(0, 2 ** 16),
           st.integers(1, 9))
    @example("embedding", 7, 3, 1, 4)     # hidden < num_cols - 1
    def test_modes_agree_bit_for_bit(self, encoding, num_cols, hidden,
                                     seed, rows):
        rng = np.random.default_rng(seed)
        domains = rng.integers(2, 9, size=num_cols).tolist()
        model = ResMADE(domains, hidden=hidden, num_blocks=2, rng=rng,
                        encoding=encoding, embedding_dim=3,
                        order=rng.permutation(num_cols).tolist())
        for p in model.parameters():
            p.data += rng.standard_normal(p.data.shape).astype(np.float32)
            p.bump_version()
        compiled = CompiledModel(model)
        codes = np.stack([rng.integers(0, d, rows) for d in domains], axis=1)
        wildcard = rng.random((rows, num_cols)) < 0.5
        pre = input_pre(model, model.encode_tuples(codes, wildcard))
        pool = BufferPool()
        for pos, col in enumerate(model.order):
            k = int(model.hidden_prefix[pos])
            stored, acts = trunk_forward(model, pre=pre, width=k, pool=pool,
                                         tag=f"p{pos}")
            scratch, _ = trunk_forward(model, pre=pre, width=k)
            assert len(acts) == len(model.blocks)
            assert np.array_equal(stored, scratch)
            fr = np.maximum(stored, 0.0)
            logits = fr @ compiled.heads[col][:k] + compiled.head_bias[col]
            assert np.array_equal(logits, compiled.position_logits(pre, pos))


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


def engine_estimate(model, constraint_lists, num_samples, seed, **kwargs):
    """Estimates from a fresh engine on a fresh stream seeded ``seed``."""
    return InferenceEngine(model).estimate_batch(
        constraint_lists, num_samples, np.random.default_rng(seed), **kwargs)


def legacy_estimate(model, constraint_lists, num_samples, seed, **kwargs):
    """The reference loop on a fresh stream seeded ``seed``."""
    return estimate_batch_legacy(model, constraint_lists, num_samples,
                                 np.random.default_rng(seed), **kwargs)


class TestEngineEquivalence:
    @pytest.mark.parametrize("shape", list(MODEL_SHAPES))
    def test_estimates_match_legacy_draw_for_draw(self, shape):
        model = shaped_model(shape)
        rng = np.random.default_rng(8)
        queries = make_queries(model, rng, 6)
        a = legacy_estimate(model, queries, 200, seed=11)
        b = engine_estimate(model, queries, 200, seed=11)
        # Same seed -> same uniform stream -> near bit-identical estimates.
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)

    def test_with_error_matches_legacy(self, model):
        rng = np.random.default_rng(9)
        queries = make_queries(model, rng, 3)
        a, ae = legacy_estimate(model, queries, 64, seed=13, with_error=True)
        b, be = engine_estimate(model, queries, 64, seed=13, with_error=True)
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
        a = legacy_estimate(model, [q1, q2], 300, seed=17)
        b = engine_estimate(model, [q1, q2], 300, seed=17)
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)

    def test_scaled_constraints_match_legacy(self, model):
        gain = 1.0 / (np.arange(6) + 2.0)
        q = [fixed(np.array([True, True, False, False])),
             ("scaled", np.ones(6, dtype=bool), gain),
             fixed(np.array([False, True, True, True, False])), None]
        a = legacy_estimate(model, [q], 400, seed=19)
        b = engine_estimate(model, [q], 400, seed=19)
        np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-7)

    def test_empty_region_is_zero(self, model):
        q = [fixed(np.zeros(4, dtype=bool)), None, None, None]
        assert engine_estimate(model, [q], 50, seed=21)[0] == 0.0

    def test_no_constraints_is_one(self, model):
        engine = InferenceEngine(model)
        rng = np.random.default_rng(23)
        out = engine.estimate_batch([[None] * model.num_cols], 16, rng)
        np.testing.assert_allclose(out, 1.0)

    def test_single_column_query_uses_wildcard_cache(self, model):
        """One queried column never touches the batched network path."""
        mask = np.array([True, False, True, False])
        q = [fixed(mask), None, None, None]
        np.testing.assert_allclose(legacy_estimate(model, [q], 500, seed=29),
                                   engine_estimate(model, [q], 500, seed=29),
                                   rtol=1e-5, atol=1e-8)

    def test_engine_tracks_training_updates(self, model):
        """Estimates follow the weights across an optimizer step."""
        rng = np.random.default_rng(31)
        m = ResMADE([4, 3], hidden=16, num_blocks=1, rng=rng)
        engine, stream = InferenceEngine(m), np.random.default_rng(37)
        q = [fixed(np.array([True, False, False, True])), None]
        before = engine.estimate_batch([q], 400, stream)[0]
        opt = Adam(m.parameters(), lr=0.3)
        x = rng.standard_normal((8, m.input_width)).astype(np.float32)
        # Asymmetric loss so column marginals actually move.
        scale = Tensor(rng.standard_normal((1, m.total_logits))
                       .astype(np.float32))
        (ref.forward(m, Tensor(x)) * scale).sum().backward()
        opt.step()
        after = engine.estimate_batch([q], 400, stream)[0]
        reference = legacy_estimate(m, [q], 4000, seed=41)[0]
        assert after == pytest.approx(reference, rel=0.2, abs=0.02)
        assert before != after


class TestScheduler:
    def test_matches_per_query_estimates(self, model):
        rng = np.random.default_rng(43)
        queries = make_queries(model, rng, 7)
        many = BatchScheduler(InferenceEngine(model)).estimate_many(
            queries, 2000, np.random.default_rng(47))
        for i, q in enumerate(queries):
            solo = engine_estimate(model, [q], 2000, seed=53 + i)[0]
            assert many[i] == pytest.approx(solo, rel=0.25, abs=0.02)

    def test_groups_by_signature(self, model):
        q_a = [fixed(np.ones(4, dtype=bool)), None, None, None]
        q_b = [None, fixed(np.ones(6, dtype=bool)), None, None]
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine)
        plan = scheduler.plan([q_a, q_b, q_a, q_b, q_b])
        assert sorted(sorted(g) for g in plan) == [[0, 2], [1, 3, 4]]

    def test_chunking_respects_row_budget(self, model, monkeypatch):
        q = [fixed(np.ones(4, dtype=bool)), None, None, None]
        monkeypatch.setattr(scheduler_module, "MAX_ROWS", 20)
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine)
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

    def test_small_groups_coalesce_into_mixed_batches(self, model,
                                                      monkeypatch):
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
        scheduler = BatchScheduler(InferenceEngine(model))
        monkeypatch.setattr(scheduler_module, "MIN_GROUP_SIZE", 4)
        out_c, calls_c = self._count_engine_calls(scheduler, distinct)
        assert len(calls_c) == 1 and calls_c[0] == len(distinct)
        monkeypatch.setattr(scheduler_module, "MIN_GROUP_SIZE", 1)
        out_g, calls_g = self._count_engine_calls(scheduler, distinct)
        assert len(calls_g) == len(distinct)
        assert out_c.shape == out_g.shape == (len(distinct),)
        assert np.all((out_c >= 0) & (out_c <= 1))

    def test_coalesced_estimates_match_solo(self, model, monkeypatch):
        rng = np.random.default_rng(69)
        queries = make_queries(model, rng, 5)
        monkeypatch.setattr(scheduler_module, "MIN_GROUP_SIZE", 10)
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine)          # coalesces all
        many = scheduler.estimate_many(queries, 600,
                                       np.random.default_rng(71))
        for i, q in enumerate(queries):
            solo = engine_estimate(model, [q], 600, seed=73 + i)[0]
            assert many[i] == pytest.approx(solo, rel=0.25, abs=0.02)

    def test_coalesce_row_budget_splits_chunks(self, model, monkeypatch):
        rng = np.random.default_rng(75)
        queries = make_queries(model, rng, 8)
        monkeypatch.setattr(scheduler_module, "MIN_GROUP_SIZE", 100)
        monkeypatch.setattr(scheduler_module, "COALESCE_ROWS", 3 * 32)
        engine = InferenceEngine(model)
        scheduler = BatchScheduler(engine)
        out, calls = self._count_engine_calls(scheduler, queries,
                                              num_samples=32)
        assert out.shape == (8,)
        assert all(c <= 3 for c in calls)
        assert sum(calls) == 8


class TestFusedMaskedLinear:
    def test_forward_matches_manual_product(self):
        rng = np.random.default_rng(61)
        layer = MaskedLinear(5, 4, rng)
        mask = (rng.random((4, 5)) < 0.5).astype(np.float32)
        layer.set_mask(mask)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        expected = x @ (layer.weight.data * mask).T + layer.bias.data
        np.testing.assert_allclose(masked_linear(layer, Tensor(x)).data,
                                   expected, atol=1e-6)

    def test_cache_invalidates_after_step(self):
        rng = np.random.default_rng(67)
        layer = MaskedLinear(3, 3, rng)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        first = layer.fused_weight().copy()
        out = masked_linear(layer, Tensor(x))
        out.sum().backward()
        Adam(layer.parameters(), lr=0.5).step()
        second = layer.fused_weight()
        assert not np.allclose(first, second)
        np.testing.assert_allclose(second, layer.weight.data * layer.mask,
                                   atol=1e-7)

    def test_gradients_match_explicit_graph(self):
        """Fused backward == gradient of x @ (W*M).T + b."""
        rng = np.random.default_rng(71)
        layer = MaskedLinear(4, 3, rng)
        mask = (rng.random((3, 4)) < 0.6).astype(np.float32)
        layer.set_mask(mask)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32),
                   requires_grad=True)
        out = masked_linear(layer, x)
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(upstream)
        # Reference gradients from the explicit masked product.
        ref_w = (upstream.T @ x.data) * mask
        ref_b = upstream.sum(axis=0)
        ref_x = upstream @ (layer.weight.data * mask)
        np.testing.assert_allclose(layer.weight.grad, ref_w, atol=1e-5)
        np.testing.assert_allclose(layer.bias.grad, ref_b, atol=1e-5)
        np.testing.assert_allclose(x.grad, ref_x, atol=1e-5)
