"""Ablations for the paper's design choices (gradient estimator,
discrepancy, encoding, sampler, wildcard dropout, column order)."""

import numpy as np

from benchmarks.conftest import run_experiment
from repro.bench.experiments import (ablation_discrepancy,
                                     ablation_encoding,
                                     ablation_gradient_estimator,
                                     ablation_sampler, ablation_wildcard)


def test_ablation_gradient_estimator(benchmark, profile):
    result = run_experiment(benchmark, "ablation_gradient",
                            ablation_gradient_estimator, profile)
    kinds = {row["gradient"] for row in result["rows"]}
    assert kinds == {"gumbel", "reinforce"}


def test_ablation_discrepancy(benchmark, profile):
    result = run_experiment(benchmark, "ablation_discrepancy",
                            ablation_discrepancy, profile)
    assert len(result["rows"]) == 3


def test_ablation_encoding(benchmark, profile):
    result = run_experiment(benchmark, "ablation_encoding",
                            ablation_encoding, profile)
    by_kind = {row["encoding"]: row for row in result["rows"]}
    # Binary encoding is the space-efficient choice (paper Section 4.2).
    assert by_kind["binary"]["size_kb"] <= by_kind["onehot"]["size_kb"]


def test_ablation_sampler(benchmark, profile):
    result = run_experiment(benchmark, "ablation_sampler", ablation_sampler,
                            profile)
    kinds = {row["sampler"] for row in result["rows"]}
    assert kinds == {"progressive", "uniform"}


def test_ablation_wildcard(benchmark, profile):
    result = run_experiment(benchmark, "ablation_wildcard",
                            ablation_wildcard, profile)
    assert len(result["rows"]) == 2


def test_ablation_column_order(benchmark, profile):
    from repro.bench.experiments import ablation_column_order
    result = run_experiment(benchmark, "ablation_order",
                            ablation_column_order, profile)
    kinds = {row["order"] for row in result["rows"]}
    assert kinds == {"natural", "random"}


def test_ablation_ensemble(benchmark, profile):
    from repro.bench.experiments import ablation_ensemble
    result = run_experiment(benchmark, "ablation_ensemble",
                            ablation_ensemble, profile)
    assert len(result["rows"]) == 3
