"""Shared fixtures for the test suite.

Expensive artifacts (trained models, generated tables/workloads, the
tiny star schema) are session-scoped and shared across files — tests
must treat them as immutable: ``.clone()`` a model before training on
it, and never append rows to a shared table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import UAE
from repro.data import Table, make_toy
from repro.data.schema import ForeignKey, Schema
from repro.workload import generate_inworkload, generate_random


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def toy_table() -> Table:
    return make_toy(rows=1500, seed=7, num_cols=4, max_domain=10)


@pytest.fixture(scope="session")
def toy_workloads(toy_table):
    gen = np.random.default_rng(42)
    train = generate_inworkload(toy_table, 60, gen)
    test_in = generate_inworkload(toy_table, 25, gen)
    test_rand = generate_random(toy_table, 25, gen)
    return {"train": train, "test_in": test_in, "test_rand": test_rand}


@pytest.fixture(scope="session")
def tiny_table() -> Table:
    """3 columns, tiny domains — small enough for exact enumeration."""
    gen = np.random.default_rng(3)
    n = 800
    a = gen.choice(4, p=[0.5, 0.25, 0.15, 0.1], size=n)
    b = (a + gen.choice(3, p=[0.6, 0.3, 0.1], size=n)) % 5
    c = gen.choice(3, p=[0.7, 0.2, 0.1], size=n)
    return Table.from_raw("tiny", {"a": a, "b": b, "c": c})


# ----------------------------------------------------------------------
# Shared trained models + canned workloads (promoted from per-file
# duplicates; session scope keeps tier-1 from retraining per module).
# ----------------------------------------------------------------------
TINY_UAE_KW = dict(hidden=16, num_blocks=1, est_samples=32, dps_samples=4,
                   batch_size=128, query_batch_size=8, seed=0)


@pytest.fixture(scope="session")
def tiny_uae(tiny_table) -> UAE:
    """A small data-only-trained UAE on ``tiny_table`` (clone to mutate)."""
    model = UAE(tiny_table, **TINY_UAE_KW)
    model.fit(epochs=1, mode="data")
    return model


@pytest.fixture
def tiny_front(tiny_uae):
    """Factory for the one-table in-process front: a started-on-demand
    ``RoutedEstimateService`` serving a clone of ``tiny_uae`` (or
    ``estimator``) as namespace ``"tiny"``; every front it built is
    stopped at teardown.  The per-namespace stack behind it is
    ``front.namespace("tiny").server``.  ``seed`` and ``max_batch`` go
    to the front; other keywords are ``add_table`` settings
    (``refine_epochs=``, ``modelops=``, ...).
    """
    from repro.serve import RoutedEstimateService

    built = []

    def build(estimator=None, *, seed=7, max_batch=32, **settings):
        front = RoutedEstimateService(seed=seed, max_batch=max_batch)
        front.add_table(tiny_uae.clone() if estimator is None else estimator,
                        namespace="tiny", **settings)
        built.append(front)
        return front

    yield build
    for front in built:
        front.stop()


@pytest.fixture(scope="session")
def tiny_workload(tiny_table):
    """Canned labeled workload over ``tiny_table``."""
    return generate_inworkload(tiny_table, 24, np.random.default_rng(11))


@pytest.fixture(scope="session")
def second_table() -> Table:
    """A second small table with columns disjoint from ``tiny_table``'s
    (clean column-set routing in multi-table tests)."""
    gen = np.random.default_rng(23)
    n = 700
    x = gen.choice(5, p=[0.4, 0.3, 0.15, 0.1, 0.05], size=n)
    y = (x + gen.choice(4, p=[0.5, 0.3, 0.15, 0.05], size=n)) % 6
    z = gen.choice(3, p=[0.6, 0.25, 0.15], size=n)
    return Table.from_raw("second", {"x": x, "y": y, "z": z})


@pytest.fixture(scope="session")
def second_uae(second_table) -> UAE:
    model = UAE(second_table, **TINY_UAE_KW)
    model.fit(epochs=1, mode="data")
    return model


@pytest.fixture(scope="session")
def second_workload(second_table):
    return generate_inworkload(second_table, 16, np.random.default_rng(29))


@pytest.fixture(scope="session")
def tiny_schema() -> Schema:
    """A star small enough to materialise the full outer join by hand."""
    title = Table.from_raw("title", {
        "id": np.arange(6),
        "production_year": np.array([1990, 1990, 2000, 2005, 2010, 2010]),
        "kind_id": np.array([0, 1, 0, 1, 0, 1]),
    })
    mc = Table.from_raw("movie_companies", {
        "movie_id": np.array([0, 0, 1, 3, 3, 3, 5]),
        "company_id": np.array([10, 11, 10, 12, 12, 13, 10]),
    })
    mi = Table.from_raw("movie_info", {
        "movie_id": np.array([0, 2, 2, 4, 5, 5]),
        "info_type": np.array([1, 2, 2, 1, 3, 1]),
    })
    return Schema("tiny", {"title": title, "movie_companies": mc,
                           "movie_info": mi},
                  [ForeignKey("movie_companies", "movie_id", "title", "id"),
                   ForeignKey("movie_info", "movie_id", "title", "id")])


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad
