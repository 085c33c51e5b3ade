"""Tests for profiles, reporting, and the experiment registry."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (BENCH, EXPERIMENTS, PAPER, PROFILES, SMALL,
                         current_profile, format_table, save_json)
from repro.bench.experiments import SINGLE_TABLE_COLUMNS, single_table_setup


class TestProfiles:
    def test_registry_complete(self):
        assert set(PROFILES) == {"ci", "small", "bench", "paper"}

    def test_scaling_order(self):
        from repro.bench import CI
        assert CI.train_queries < SMALL.train_queries \
            < BENCH.train_queries < PAPER.train_queries
        assert CI.dataset_rows("dmv") < SMALL.dataset_rows("dmv") \
            < PAPER.dataset_rows("dmv")
        assert CI.incremental_train < SMALL.incremental_train

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "small")
        assert current_profile() is SMALL
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(KeyError):
            current_profile()

    def test_default_rows(self):
        assert SMALL.dataset_rows("unknown") == 8000


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"model": "UAE", "mean": 1.2345678},
                {"model": "Naru", "mean": 100000.0}]
        text = format_table(rows, ["model", "mean"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "UAE" in text and "1.235" in text
        assert "1.00e+05" in text

    def test_format_handles_missing_cells(self):
        text = format_table([{"a": 1.0}], ["a", "b"])
        assert "a" in text and "b" in text

    def test_save_json_roundtrip(self, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        path = save_json("unit", {"values": np.array([1.0, 2.0]),
                                  "n": np.int64(3)})
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["experiment"] == "unit"
        assert payload["data"]["values"] == [1.0, 2.0]
        assert payload["data"]["n"] == 3

    def test_bench_artifacts_follow_a_redirected_results_dir(
            self, tmp_path, monkeypatch):
        """``BENCH_<name>.json`` is resolved beside ``RESULTS_DIR`` when it
        is written, so redirecting the results (as benchmarks/conftest.py
        does) leaves the repo's tracked artifacts byte for byte."""
        import repro.bench.reporting as reporting
        repo = Path(__file__).resolve().parents[1]
        tracked = {p: p.read_bytes() for p in repo.glob("BENCH_*.json")}
        assert len(tracked) == 4
        monkeypatch.setattr(reporting, "RESULTS_DIR",
                            str(tmp_path / "results"))
        for name in ("infer", "train", "plan", "serve"):
            path = reporting.save_bench(name, {"checks": {"ok": True}})
            assert path == str(tmp_path / f"BENCH_{name}.json")
            assert json.loads(Path(path).read_text()) == \
                {"checks": {"ok": True}}
        assert {p: p.read_bytes()
                for p in repo.glob("BENCH_*.json")} == tracked


class TestExperimentRegistry:
    def test_all_paper_artifacts_present(self):
        required = {"table2", "table3", "table4", "table5", "table6",
                    "fig3", "fig4a", "fig4b", "fig5_curve", "fig5_latency",
                    "fig6", "tau"}
        assert required <= set(EXPERIMENTS)

    def test_ablation_experiments_present(self):
        ablations = {k for k in EXPERIMENTS if k.startswith("ablation_")}
        assert len(ablations) >= 5

    def test_serving_experiment_registered(self):
        assert "serving" in EXPERIMENTS
        assert "latency" in EXPERIMENTS
        # the sub-scenarios run inside `serving` only
        assert [k for k in EXPERIMENTS if k.startswith("serving")] == \
            ["serving"]

    def test_single_table_setup_shapes(self):
        setup = single_table_setup("toy", SMALL)
        assert setup["table"].num_rows == SMALL.dataset_rows("toy")
        assert len(setup["train"]) == SMALL.train_queries
        assert len(setup["test_in"]) == SMALL.test_queries

    def test_fig5_latency_rows_keep_estimator_order(self, monkeypatch):
        """Rows follow the fixed estimator list, not the measured
        timings: runs with bit-identical models list them identically."""
        from repro.bench.experiments import estimation_latency
        from repro.estimators.base import CardinalityEstimator
        timed = []

        def fake_latency(self, queries, repeats=1):
            timed.append(self.name)
            return 1.0 / len(timed)         # each later one is faster
        monkeypatch.setattr(CardinalityEstimator, "latency_seconds",
                            fake_latency)
        rows = estimation_latency(SMALL)["rows"]
        assert [r["model"] for r in rows] == timed
        assert timed[0] == "UAE" and len(timed) == 8
        assert [r["ms_per_query"] for r in rows] == \
            [1e3 / (i + 1) for i in range(len(timed))]

    def test_columns_layout(self):
        assert SINGLE_TABLE_COLUMNS[0] == "model"
        assert "in_max" in SINGLE_TABLE_COLUMNS
        assert "rand_max" in SINGLE_TABLE_COLUMNS


class TestCLI:
    def test_list_command(self, capsys):
        from repro.bench.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig6" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.__main__ import main
        assert main(["not-an-experiment"]) == 2

    def test_run_saves_json_and_rendered_table(self, tmp_path, monkeypatch,
                                               capsys):
        """A CLI run leaves what the benchmark suite leaves: the JSON and
        its table as text, ``format_table`` of the JSON's rows."""
        import repro.bench.reporting as reporting
        from repro.bench.__main__ import main
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        assert main(["table1"]) == 0
        with open(tmp_path / "table1.json") as fh:
            data = json.load(fh)["data"]
        text = (tmp_path / "table1.txt").read_text()
        assert text == format_table(data["rows"], data["columns"],
                                    title=data["title"]) + "\n"

    def test_selectivity_distribution_runs(self, tmp_path, monkeypatch):
        """fig3 is the cheapest full experiment — run it at small scale."""
        import repro.bench.reporting as reporting
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        from repro.bench.experiments import selectivity_distribution
        result = selectivity_distribution(SMALL)
        assert len(result["rows"]) == 6  # 3 datasets x 2 workloads
        for row in result["rows"]:
            assert row["log10_min"] <= row["log10_median"] <= row["log10_max"]
        # Random workloads span at least as wide as in-workload ones (the
        # paper's Figure 3 observation) on at least one dataset.
        spans = {}
        for row in result["rows"]:
            spans[(row["dataset"], row["workload"])] = \
                row["log10_max"] - row["log10_min"]
        wider = [spans[(d, "random")] >= spans[(d, "in-workload")] * 0.5
                 for d in ("dmv", "census", "kddcup")]
        assert any(wider)
