"""Reference-vs-engine parity matrix.

``src/repro`` ships one implementation of training and of inference (the
fused kernels and the compiled engine); the loops they replaced are the
oracle under ``tests/reference/`` (``"legacy"`` below).  Pairwise checks
live in ``test_infer_engine`` (inference on fixed weights) and
``test_train_engine`` (training gradients at one point).  This matrix
closes the loop over the full product
``trained by x served by in {legacy, engine}^2``: a model *trained* by
either implementation and then *served* by either must agree with the
all-legacy reference within the documented 1e-4 contract, for both
estimates and gradients.
"""

import numpy as np
import pytest

from repro.infer import InferenceEngine
from reference.parity import collect_grads, max_grad_diff
from reference.progressive import estimate_batch_legacy
from reference.uae import UAE_CLASS

BACKENDS = ("legacy", "engine")
CONTRACT = 1e-4          # the documented parity tolerance (README/ROADMAP)
FAST = dict(hidden=16, num_blocks=1, est_samples=48, dps_samples=4,
            batch_size=128, query_batch_size=8, seed=0)


@pytest.fixture(scope="module")
def trained(tiny_table, tiny_workload):
    """One identically-seeded hybrid fit per training backend."""
    models = {}
    for tb in BACKENDS:
        uae = UAE_CLASS[tb](tiny_table, **FAST)
        uae.fit(epochs=2, workload=tiny_workload, mode="hybrid")
        models[tb] = uae
    return models


@pytest.fixture(scope="module")
def matrix_estimates(trained, tiny_table, tiny_workload):
    """Seed-pinned estimates for every (train_backend, backend) cell."""
    queries = tiny_workload.queries[:8]
    cells = {}
    for tb, uae in trained.items():
        constraints = [uae.fact.expand_masks(q.masks(tiny_table))
                       for q in queries]
        for ib in BACKENDS:
            rng = np.random.default_rng(17)
            sels = estimate_batch_legacy(uae.model, constraints, 64, rng) \
                if ib == "legacy" else InferenceEngine(
                    uae.model).estimate_batch(constraints, 64, rng)
            cells[(tb, ib)] = np.clip(sels, 0.0, 1.0) * tiny_table.num_rows
    return cells


@pytest.mark.parametrize("train_backend", BACKENDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_estimates_agree_across_matrix(matrix_estimates, train_backend,
                                       backend):
    """Every cell answers within the 1e-4 contract of the all-legacy
    reference (same sampling seed, so the only divergence sources are
    the fused kernels)."""
    reference = matrix_estimates[("legacy", "legacy")]
    got = matrix_estimates[(train_backend, backend)]
    np.testing.assert_allclose(got, reference, rtol=CONTRACT, atol=CONTRACT)


@pytest.mark.parametrize("train_backend", BACKENDS)
def test_trained_weights_agree_across_train_backends(trained, train_backend):
    """The two training backends walk the same trajectory: after the
    same seeded fit, weights match to float32 rounding (well inside the
    gradient contract)."""
    reference = trained["legacy"].model.state_dict()
    state = trained[train_backend].model.state_dict()
    for name in reference:
        np.testing.assert_allclose(state[name], reference[name],
                                   atol=CONTRACT, err_msg=name)


def hybrid_gradients(source, table, workload, **overrides) -> dict:
    """Per backend: the data-term and query-term gradients at
    ``source``'s weights, both backends consuming the same draws."""
    queries = workload.queries[:6]
    constraints = [source.fact.expand_masks(q.masks(table))
                   for q in queries]
    sels = workload.selectivities(table.num_rows)[:6]
    codes = source.model_codes[
        np.random.default_rng(7).integers(0, len(source.model_codes), 64)]

    grads = {}
    for backend in BACKENDS:
        uae = UAE_CLASS[backend](table, **FAST, **overrides)
        uae.model.load_state_dict(source.model.state_dict())
        # Pin the wildcard-dropout draws so both backends consume the
        # random stream draw for draw (the DPS Gumbel stream is already
        # aligned: both estimators are freshly built from the same seed).
        uae.rng = np.random.default_rng(99)
        uae.model.zero_grad()
        uae.data_loss(codes)
        data_grads = collect_grads(uae.model)
        uae.model.zero_grad()
        uae.query_loss(constraints, sels)
        grads[backend] = (data_grads, collect_grads(uae.model))
    return grads


@pytest.mark.parametrize("train_backend", BACKENDS)
@pytest.mark.parametrize("grad_backend", BACKENDS)
def test_gradients_agree_at_trained_weights(trained, tiny_table,
                                            tiny_workload, train_backend,
                                            grad_backend):
    """Gradient parity holds at *every* cell's operating point, not just
    at init: whichever backend trained the weights, both backends
    compute the same hybrid gradient there (< 1e-4)."""
    grads = hybrid_gradients(trained[train_backend], tiny_table,
                             tiny_workload)
    ref_data, ref_query = grads["legacy"]
    got_data, got_query = grads[grad_backend]
    assert max_grad_diff(got_data, ref_data) < CONTRACT
    assert max_grad_diff(got_query, ref_query) < CONTRACT


@pytest.mark.parametrize("discrepancy", ["mse", "msle"])
def test_discrepancy_gradients_agree_at_trained_weights(
        trained, tiny_table, tiny_workload, discrepancy):
    """The same parity under the other two query discrepancies (graph
    loss vs closed form), at the engine-trained weights."""
    grads = hybrid_gradients(trained["engine"], tiny_table, tiny_workload,
                             discrepancy=discrepancy)
    for ref, got in zip(grads["legacy"], grads["engine"]):
        assert max_grad_diff(got, ref) < CONTRACT
