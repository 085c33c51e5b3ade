"""Tests for inference-time progressive sampling.

The decisive check: on a tiny domain the model's joint distribution can be
enumerated exactly, so the progressive-sampling estimate must converge to
the exact region mass (it is unbiased — paper Section 4.2).
"""

import numpy as np
import pytest

from repro.core.progressive import UniformSampler
from repro.infer import CompiledModel, InferenceEngine
from repro.nn import ResMADE

from reference.made import nll_np


def exact_region_mass(model: ResMADE, masks: list) -> float:
    """Brute-force sum of the model's joint over a masked region."""
    domains = model.domain_sizes
    grids = np.meshgrid(*[np.arange(d) for d in domains], indexing="ij")
    tuples = np.stack([g.reshape(-1) for g in grids], axis=1)
    nll = nll_np(model, tuples)
    probs = np.exp(-nll)
    keep = np.ones(len(tuples), dtype=bool)
    for col, mask in enumerate(masks):
        if mask is not None:
            keep &= mask[tuples[:, col]]
    return float(probs[keep].sum())


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(0)
    model = ResMADE([4, 3, 5], hidden=24, num_blocks=1, rng=rng)
    # Perturb weights so the joint is non-uniform but well-behaved.
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.3
    return model


def fixed(mask):
    return ("fixed", np.asarray(mask, dtype=bool))


def estimate_batch(model, constraint_lists, num_samples, seed):
    """Seeded progressive-sampling selectivities on the engine."""
    return InferenceEngine(model).estimate_batch(
        constraint_lists, num_samples, np.random.default_rng(seed))


def estimate(model, constraints, num_samples, seed) -> float:
    return float(estimate_batch(model, [constraints], num_samples, seed)[0])


class TestUnbiasedness:
    def test_converges_to_exact_mass(self, small_model):
        masks = [np.array([True, True, False, False]),
                 np.array([True, False, True]),
                 np.array([False, True, True, True, False])]
        exact = exact_region_mass(small_model, masks)
        est = estimate(small_model, [fixed(m) for m in masks], 4000, seed=1)
        assert est == pytest.approx(exact, rel=0.1)

    def test_full_region_is_one(self, small_model):
        masks = [np.ones(4, bool), np.ones(3, bool), np.ones(5, bool)]
        est = estimate(small_model, [fixed(m) for m in masks], 500, seed=2)
        assert est == pytest.approx(1.0, abs=1e-5)

    def test_empty_region_is_zero(self, small_model):
        masks = [np.zeros(4, bool), None, None]
        assert estimate(small_model, [fixed(masks[0]), None, None], 100,
                        seed=3) == 0.0

    def test_wildcard_columns_marginalised(self, small_model):
        """Constraining only column 0 must match the exact marginal mass."""
        mask0 = np.array([True, False, False, True])
        exact = exact_region_mass(small_model, [mask0, None, None])
        est = estimate(small_model, [fixed(mask0), None, None], 2000, seed=4)
        # Only needs one forward pass (first queried col is last queried);
        # the wildcard marginalisation is learned, so allow looser tolerance.
        assert est == pytest.approx(exact, rel=0.35, abs=0.05)


class TestBatching:
    def test_batch_matches_individual(self, small_model):
        rng = np.random.default_rng(5)
        queries = []
        for _ in range(4):
            masks = [rng.random(4) < 0.7, rng.random(3) < 0.7,
                     rng.random(5) < 0.7]
            masks = [m if m.any() else np.ones_like(m) for m in masks]
            queries.append([fixed(m) for m in masks])
        batched = estimate_batch(small_model, queries, 3000, seed=6)
        for i, constraints in enumerate(queries):
            solo = estimate(small_model, constraints, 3000, seed=7 + i)
            assert batched[i] == pytest.approx(solo, rel=0.25, abs=0.02)

    def test_mixed_wildcards_in_batch(self, small_model):
        q1 = [fixed(np.array([True, False, True, True])), None, None]
        q2 = [None, None, fixed(np.array([True, True, False, False, True]))]
        out = estimate_batch(small_model, [q1, q2], 1500, seed=8)
        assert out.shape == (2,)
        assert (out >= 0).all() and (out <= 1).all()


class TestScaledConstraints:
    def test_gain_scales_expectation(self, small_model):
        """A constant gain g must multiply the estimate by exactly g."""
        mask = np.ones(4, dtype=bool)
        gain = np.full(4, 0.25)
        base = estimate(small_model,
                        [fixed(np.array([True, True, False, False])),
                         None, None], 800, seed=9)
        est = estimate(small_model, [
            ("scaled", mask, gain),
            None,
            fixed(np.array([True, True, False, False, True])),
        ], 800, seed=9)
        # E[0.25 * 1(region)] = 0.25 * P(region)
        unscaled = estimate(small_model, [
            fixed(mask), None,
            fixed(np.array([True, True, False, False, True]))], 3000, seed=10)
        assert est == pytest.approx(0.25 * unscaled, rel=0.15)
        assert base >= 0  # smoke: plain path still works

    def test_value_dependent_gain(self, small_model):
        """E[g(X)] for g = 1/(code+1) against exact enumeration."""
        gain = 1.0 / (np.arange(4) + 1.0)
        est = estimate(small_model, [("scaled", np.ones(4, bool), gain),
                                     None, None], 4000, seed=11)
        # Exact: sum_v P(X0 = v) * g(v).
        domains = small_model.domain_sizes
        grids = np.meshgrid(*[np.arange(d) for d in domains], indexing="ij")
        tuples = np.stack([g.reshape(-1) for g in grids], axis=1)
        probs = np.exp(-nll_np(small_model, tuples))
        exact = float((probs * gain[tuples[:, 0]]).sum())
        assert est == pytest.approx(exact, rel=0.1)


class TestUniformSampler:
    def test_matches_progressive_in_expectation(self, small_model):
        masks = [np.array([True, True, True, False]),
                 np.array([True, True, False]), None]
        exact = exact_region_mass(small_model, masks)
        uniform = UniformSampler(CompiledModel(small_model), num_samples=6000,
                                 seed=12)
        est = uniform.estimate([fixed(masks[0]), fixed(masks[1]), None])
        assert est == pytest.approx(exact, rel=0.35, abs=0.05)

    def test_factorized_range_integrates_the_grid_not_its_box(self):
        """A factorized column's region is its grid of valid (hi, lo)
        cells.  Sampling the low digit from the union of the grid's rows
        integrates the bounding box instead: on this 3 x 8 grid and range
        [5, 14) that is 16 cells, not 9."""
        rng = np.random.default_rng(21)
        model = ResMADE([3, 8], hidden=16, num_blocks=1, rng=rng)
        for p in model.parameters():
            p.data += rng.standard_normal(p.data.shape).astype(np.float32) \
                * 0.3
            p.bump_version()
        grid = np.zeros(24, dtype=bool)
        grid[5:14] = True
        grid = grid.reshape(3, 8)
        exact = float(np.exp(-nll_np(model, np.argwhere(grid))).sum())
        box = grid.any(axis=1)[:, None] & grid.any(axis=0)[None, :]
        box_mass = float(np.exp(-nll_np(model, np.argwhere(box))).sum())
        assert abs(box_mass - exact) > 0.1
        uniform = UniformSampler(CompiledModel(model), num_samples=20000,
                                 seed=22)
        est = uniform.estimate([fixed(grid.any(axis=1)), ("lo", grid)])
        assert est == pytest.approx(exact, rel=0.05)

    def test_empty_region(self, small_model):
        uniform = UniformSampler(CompiledModel(small_model), num_samples=10,
                                 seed=13)
        assert uniform.estimate([fixed(np.zeros(4, bool)), None, None]) == 0.0

    def test_rejects_scaled(self, small_model):
        uniform = UniformSampler(CompiledModel(small_model), num_samples=10,
                                 seed=14)
        with pytest.raises(NotImplementedError):
            uniform.estimate([("scaled", np.ones(4, bool), np.ones(4)),
                              None, None])
