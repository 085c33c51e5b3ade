"""Tests for database generation (paper Section 6) and model persistence."""

import os

import numpy as np
import pytest

from repro.core import UAE
from repro.data import Table, make_toy

from reference.made import nll_np

FAST = dict(hidden=32, num_blocks=1, est_samples=48, dps_samples=4,
            batch_size=256, wildcard_max_frac=0.25, seed=0)


@pytest.fixture(scope="module")
def trained():
    table = make_toy(rows=2500, seed=3, num_cols=3, max_domain=8)
    model = UAE(table, **FAST)
    model.fit(epochs=30, mode="data")
    return table, model


class TestGeneration:
    def test_sampled_codes_in_domain(self, trained):
        table, model = trained
        codes = model.sample_tuples(500)
        assert codes.shape == (500, table.num_cols)
        for j, col in enumerate(table.columns):
            assert codes[:, j].min() >= 0
            assert codes[:, j].max() < col.size

    def test_marginals_match_data(self, trained):
        """Generated tuples should reproduce the learned first-column
        marginal — the property that makes UAE usable for DBMS-testing
        database generation (paper Section 6)."""
        table, model = trained
        codes = model.sample_tuples(6000, seed=1)
        gen = np.bincount(codes[:, 0], minlength=table.domain_sizes[0])
        real = np.bincount(table.codes[:, 0], minlength=table.domain_sizes[0])
        gen = gen / gen.sum()
        real = real / real.sum()
        assert np.abs(gen - real).max() < 0.08

    def test_joint_correlation_preserved(self, trained):
        """Pairwise dependence in the generated data should resemble the
        source (within a loose band — the model is small)."""
        from repro.data.stats import _rank_grid_entropy
        table, model = trained
        codes = model.sample_tuples(5000, seed=2)
        real_dep = _rank_grid_entropy(table.codes[:, 0], table.codes[:, 1])
        gen_dep = _rank_grid_entropy(codes[:, 0], codes[:, 1])
        assert gen_dep > real_dep * 0.2

    def test_sample_table_decodes(self, trained):
        table, model = trained
        generated = model.sample_table(100, seed=3)
        assert generated.num_rows == 100
        assert generated.column_names == table.column_names

    def test_deterministic_with_seed(self, trained):
        _, model = trained
        a = model.sample_tuples(50, seed=9)
        b = model.sample_tuples(50, seed=9)
        np.testing.assert_array_equal(a, b)


class TestPersistence:
    def test_roundtrip(self, trained, tmp_path):
        table, model = trained
        path = str(tmp_path / "model.npz")
        model.save(path)
        restored = UAE.load(path, table)
        x = model.fact.encode_rows(table.codes[:100])
        np.testing.assert_allclose(nll_np(model.model, x),
                                   nll_np(restored.model, x), atol=1e-5)

    def test_estimates_survive_roundtrip(self, trained, tmp_path):
        table, model = trained
        from repro.workload import generate_inworkload
        rng = np.random.default_rng(5)
        wl = generate_inworkload(table, 10, rng)
        path = str(tmp_path / "model.npz")
        model.save(path)
        restored = UAE.load(path, table)
        a = model.estimate_many(wl.queries)
        b = restored.estimate_many(wl.queries)
        np.testing.assert_allclose(a, b, rtol=0.3, atol=20)

    def test_schema_mismatch_rejected(self, trained, tmp_path):
        table, model = trained
        path = str(tmp_path / "model.npz")
        model.save(path)
        other = make_toy(rows=500, seed=11, num_cols=4, max_domain=9)
        with pytest.raises(ValueError):
            UAE.load(path, other)

    def test_config_restored(self, trained, tmp_path):
        table, model = trained
        path = str(tmp_path / "model.npz")
        model.save(path)
        restored = UAE.load(path, table)
        assert restored.config == model.config
