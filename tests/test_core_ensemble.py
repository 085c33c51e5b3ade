"""Tests for the horizontally-partitioned UAE ensemble."""

import numpy as np
import pytest

from repro.core import PartitionedUAE, UAE
from repro.data import make_toy
from repro.workload import generate_inworkload, qerrors, summarize

FAST = dict(hidden=20, num_blocks=1, est_samples=48, dps_samples=4,
            batch_size=128, seed=0)


@pytest.fixture(scope="module")
def table():
    return make_toy(rows=2400, seed=11, num_cols=4, max_domain=16)


class TestConstruction:
    def test_partitions_cover_all_rows(self, table):
        ens = PartitionedUAE(table, "c0", num_partitions=3, **FAST)
        total = sum(m.table.num_rows for m in ens.partitions)
        assert total == table.num_rows

    def test_partition_masks_disjoint_and_exhaustive(self, table):
        ens = PartitionedUAE(table, "c0", num_partitions=3, **FAST)
        union = np.zeros(table.column("c0").size, dtype=int)
        for mask in ens.partition_masks:
            union += mask
        np.testing.assert_array_equal(union, 1)

    def test_single_partition_is_plain_uae(self, table):
        ens = PartitionedUAE(table, "c0", num_partitions=1, **FAST)
        assert len(ens.partitions) == 1
        assert ens.partitions[0].table.num_rows == table.num_rows

    def test_invalid_partition_count(self, table):
        with pytest.raises(ValueError):
            PartitionedUAE(table, "c0", num_partitions=0, **FAST)


class TestEstimation:
    @pytest.fixture(scope="class")
    def fitted(self, table):
        ens = PartitionedUAE(table, "c0", num_partitions=2, **FAST)
        ens.fit(epochs=3, mode="data")
        return ens

    def test_additivity_no_independence_error(self, fitted, table):
        """The ensemble's combination is exact: the empty query returns
        the full row count (each partition answers its own size)."""
        from repro.workload import Query
        est = fitted.estimate(Query(()))
        assert est == pytest.approx(table.num_rows, rel=0.02)

    def test_partition_pruning(self, fitted, table):
        """A query inside one partition's range must skip the others."""
        from repro.workload import Predicate, Query
        col = table.column("c0")
        boundary = fitted.boundaries[0]
        q = Query((Predicate("c0", "<=", col.values[boundary]),))
        # Count component calls by monkey-counting estimate invocations.
        calls = []
        for model in fitted.partitions:
            original = model.estimate
            def wrapped(query, _orig=original, _m=model):
                calls.append(_m)
                return _orig(query)
            model.estimate = wrapped
        fitted.estimate(q)
        assert len(calls) == 1

    def test_accuracy_comparable_to_monolithic(self, table):
        rng = np.random.default_rng(5)
        test = generate_inworkload(table, 25, rng)
        mono = UAE(table, **FAST)
        mono.fit(epochs=3, mode="data")
        ens = PartitionedUAE(table, "c0", num_partitions=2, **FAST)
        ens.fit(epochs=3, mode="data")
        mono_err = summarize(mono.estimate_many(test.queries),
                             test.cardinalities)
        ens_err = summarize(ens.estimate_many(test.queries),
                            test.cardinalities)
        assert ens_err.mean <= mono_err.mean * 2.5

    def test_hybrid_fit_with_localized_workload(self, table):
        rng = np.random.default_rng(6)
        train = generate_inworkload(table, 30, rng)
        ens = PartitionedUAE(table, "c0", num_partitions=2, **FAST)
        ens.fit(workload=train, epochs=2, mode="hybrid")
        est = ens.estimate_many(train.queries[:5])
        assert np.isfinite(est).all()

    def test_size_is_sum_of_components(self, fitted):
        assert fitted.size_bytes() == sum(m.size_bytes()
                                          for m in fitted.partitions)
