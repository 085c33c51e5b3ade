"""Benchmark harness regenerating every table and figure of the paper."""

from .experiments import (EXPERIMENTS, run_incremental, run_joins,
                          run_serving, run_single_table,
                          run_training_bench)
from .profiles import (BENCH, CI, PAPER, PROFILES, SMALL, Profile,
                       current_profile)
from .reporting import format_table, save_json, save_result

__all__ = [
    "EXPERIMENTS", "run_single_table", "run_joins", "run_incremental",
    "run_serving", "run_training_bench",
    "Profile", "PROFILES", "CI", "SMALL", "BENCH", "PAPER",
    "current_profile", "format_table", "save_json", "save_result",
]
