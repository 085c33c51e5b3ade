"""Micro-benchmarks for the hot components (pytest-benchmark proper).

These time the individual kernels the experiments are built from —
useful for spotting regressions in the trunk kernel, the training step,
the samplers, and the join machinery.  Only what ships is timed: the
autograd graph is the tests' oracle, not a training path.
"""

import numpy as np
import pytest

from repro.core import UAE
from repro.data import make_toy
from repro.data.schema import make_imdb
from repro.infer import InferenceEngine
from repro.joins import StarJoinSampler
from repro.nn import Adam, ResMADE
from repro.nn.trunk import trunk_forward
from repro.train import FusedDataLoss, FusedDPS
from repro.workload import generate_inworkload


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    return ResMADE([100, 50, 20, 10, 5], hidden=64, num_blocks=2, rng=rng)


@pytest.fixture(scope="module")
def batch(model):
    rng = np.random.default_rng(1)
    codes = np.stack([rng.integers(0, d, 512) for d in model.domain_sizes],
                     axis=1)
    return codes


def test_forward_np(benchmark, model, batch):
    """The shipped forward: trunk kernel plus the output layer."""
    x = model.encode_tuples(batch)
    out_l = model.output_layer

    def forward():
        h, _ = trunk_forward(model, x)
        np.maximum(h, 0.0, out=h)
        return h @ out_l.fused_weight_t() + out_l.bias.data
    benchmark(forward)


def test_hybrid_uae_step(benchmark):
    """One hybrid optimizer step of Algorithm 3 (data NLL + lambda *
    DPS q-error), as ``UAE.fit`` runs it."""
    table = make_toy(rows=2000, num_cols=5, max_domain=20)
    uae = UAE(table, hidden=64, num_blocks=2, batch_size=512,
              query_batch_size=16, dps_samples=8, seed=0)
    prepared = uae._prepare_workload(
        generate_inworkload(table, 32, np.random.default_rng(4)))
    benchmark(uae._step, "hybrid", uae.model_codes, uae.config.batch_size,
              prepared)


def test_training_step(benchmark, batch):
    rng = np.random.default_rng(2)
    model = ResMADE([100, 50, 20, 10, 5], hidden=64, num_blocks=2, rng=rng)
    opt = Adam(model.parameters(), lr=1e-3)
    data_loss = FusedDataLoss(model)

    def step():
        opt.zero_grad()
        data_loss.loss(batch)
        opt.step()
    benchmark(step)


def test_progressive_sampling(benchmark, model):
    masks = [("fixed", np.arange(d) < d // 2) for d in model.domain_sizes]
    engine, rng = InferenceEngine(model), np.random.default_rng(0)
    benchmark(engine.estimate_batch, [masks], 128, rng)


def test_dps_forward_backward(benchmark, model):
    masks = [("fixed", np.arange(d) < d // 2) for d in model.domain_sizes]
    dps, rng = FusedDPS(model), np.random.default_rng(0)

    def step():
        est = dps.estimate_batch([masks], 8, 1.0, rng)
        model.zero_grad()
        dps.accumulate_grad(np.ones_like(est))   # d sum(est)
    benchmark(step)


def test_join_sampler_throughput(benchmark):
    schema = make_imdb(n_titles=1000, seed=0)
    sampler = StarJoinSampler(schema, seed=0)
    benchmark(sampler.sample, 5000)


def test_uae_estimate_latency(benchmark):
    table = make_toy(rows=2000, num_cols=5, max_domain=20)
    uae = UAE(table, hidden=32, num_blocks=1, est_samples=128, seed=0)
    uae.fit(epochs=1, mode="data")
    rng = np.random.default_rng(3)
    wl = generate_inworkload(table, 5, rng)
    benchmark(uae.estimate, wl.queries[0])
