"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures through
:mod:`repro.bench.experiments`, records the wall-clock via pytest-benchmark
(one round — these are experiments, not micro-kernels), prints the
formatted table, and persists JSON + text artifacts.

Artifacts go to ``$REPRO_RESULTS_DIR`` when it is set and to a pytest
temp directory otherwise, so a plain test run never rewrites the tracked
``results/`` files (every one carries a timestamp and wall-clock cells).
``REPRO_RESULTS_DIR=results python -m pytest benchmarks/`` or
``python -m repro.bench all`` regenerates the committed ones.

Scale comes from the ``REPRO_PROFILE`` environment variable (default:
``small`` here so a full ``pytest benchmarks/`` run finishes in minutes;
use ``REPRO_PROFILE=bench`` or ``paper`` for larger runs).
"""

from __future__ import annotations

import os

import pytest

from repro.bench import PROFILES, format_table, reporting, save_json


@pytest.fixture(scope="session")
def profile():
    name = os.environ.get("REPRO_PROFILE", "small").lower()
    return PROFILES[name]


@pytest.fixture(autouse=True)
def _artifacts_out_of_the_tree(tmp_path_factory, monkeypatch):
    if not os.environ.get("REPRO_RESULTS_DIR"):
        monkeypatch.setattr(
            reporting, "RESULTS_DIR",
            str(tmp_path_factory.getbasetemp() / "results"))


def run_experiment(benchmark, name: str, func, profile):
    """Run ``func(profile)`` once under pytest-benchmark and report it."""
    result = benchmark.pedantic(func, args=(profile,), rounds=1, iterations=1)
    text = format_table(result["rows"], result["columns"],
                        title=result["title"])
    print("\n" + text)
    save_json(name, {k: v for k, v in result.items() if k != "speedups"})
    with open(os.path.join(reporting.RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    return result
