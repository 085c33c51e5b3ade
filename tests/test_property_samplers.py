"""Hypothesis property tests on the sampler invariants.

These are the deepest invariants in the system: for *any* (small) model and
*any* satisfiable constraint set, progressive sampling must agree with
exact enumeration of the model's joint, and estimates must stay in [0, 1].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import InferenceEngine
from repro.nn import ResMADE
from repro.train import FusedDPS

from reference.made import nll_np


def build_model(domains, seed):
    rng = np.random.default_rng(seed)
    model = ResMADE(list(domains), hidden=16, num_blocks=1, rng=rng)
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape).astype(np.float32) * 0.4
    return model


def enumerate_mass(model, masks):
    grids = np.meshgrid(*[np.arange(d) for d in model.domain_sizes],
                        indexing="ij")
    tuples = np.stack([g.reshape(-1) for g in grids], axis=1)
    probs = np.exp(-nll_np(model, tuples))
    keep = np.ones(len(tuples), dtype=bool)
    for col, mask in enumerate(masks):
        if mask is not None:
            keep &= mask[tuples[:, col]]
    return float(probs[keep].sum())


@settings(max_examples=12, deadline=None)
@given(
    domains=st.lists(st.integers(2, 5), min_size=2, max_size=4),
    model_seed=st.integers(0, 4),
    mask_seed=st.integers(0, 1000),
)
def test_progressive_sampling_matches_enumeration(domains, model_seed,
                                                  mask_seed):
    model = build_model(domains, model_seed)
    rng = np.random.default_rng(mask_seed)
    masks = []
    for d in domains:
        mask = rng.random(d) < 0.6
        if not mask.any():
            mask[rng.integers(0, d)] = True
        masks.append(mask)
    exact = enumerate_mass(model, masks)
    estimate = InferenceEngine(model).estimate_batch(
        [[("fixed", m) for m in masks]], 3000,
        np.random.default_rng(mask_seed))[0]
    assert 0.0 <= estimate <= 1.0
    assert estimate == pytest.approx(exact, rel=0.25, abs=0.02)


@settings(max_examples=10, deadline=None)
@given(
    domains=st.lists(st.integers(2, 5), min_size=2, max_size=4),
    seed=st.integers(0, 500),
)
def test_dps_estimates_bounded_and_finite(domains, seed):
    model = build_model(domains, seed)
    rng = np.random.default_rng(seed)
    constraints = []
    for d in domains:
        mask = rng.random(d) < 0.7
        if not mask.any():
            mask[0] = True
        constraints.append(("fixed", mask))
    est = FusedDPS(model).estimate_batch([constraints], 6, 1.0,
                                         np.random.default_rng(seed))
    assert np.isfinite(est).all()
    assert (est >= 0).all() and (est <= 1.0 + 1e-4).all()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_monotonicity_in_region_size(seed):
    """A superset region can never have smaller estimated mass (checked
    via exact per-column expectation: single queried column)."""
    model = build_model([6, 4], seed)
    small = np.zeros(6, dtype=bool)
    small[1:3] = True
    big = small.copy()
    big[4] = True
    engine, rng = InferenceEngine(model), np.random.default_rng(seed)
    est_small = engine.estimate_batch([[("fixed", small), None]], 64, rng)[0]
    est_big = engine.estimate_batch([[("fixed", big), None]], 64, rng)[0]
    assert est_big >= est_small - 1e-6
