"""Result formatting and persistence for the benchmark harness.

Every experiment returns plain dict/list structures; this module renders
them as the paper's tables (aligned ASCII) and saves each result under
``results/`` as ``<id>.json`` plus its rendered ``<id>.txt``, so a
reported number can be traced to a concrete run.  The perf benches also
write a ``BENCH_<name>.json`` artifact beside ``results/``.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Sequence

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "results"))


def format_table(rows: Sequence[dict], columns: Sequence[str],
                 title: str = "") -> str:
    """Aligned ASCII table; numbers rendered with 4 significant digits."""

    def render(value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1e5 or abs(value) < 1e-3:
                return f"{value:.2e}"
            return f"{value:.4g}"
        return str(value)

    grid = [[render(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(g[i]) for g in grid)) if grid else len(c)
              for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for g in grid:
        lines.append("  ".join(v.ljust(w) for v, w in zip(g, widths)))
    return "\n".join(lines)


def save_json(name: str, payload) -> str:
    """Persist an experiment result under results/<name>.json."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    record = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "experiment": name,
        "data": payload,
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=_jsonable)
    return path


def save_result(name: str, result: dict) -> str:
    """Persist an experiment result as results/<name>.json plus its
    rendered table, results/<name>.txt; returns the JSON path."""
    path = save_json(name, result)
    text = format_table(result["rows"], result["columns"],
                        title=result["title"])
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    return path


def bench_path(name: str) -> str:
    """``BENCH_<name>.json`` in the parent of the results directory (the
    repo root by default), resolved at call time so a redirected
    ``RESULTS_DIR`` moves the artifact with it."""
    return os.path.join(os.path.dirname(os.path.abspath(RESULTS_DIR)),
                        f"BENCH_{name}.json")


def save_bench(name: str, payload: dict) -> str:
    """Write the ``BENCH_<name>.json`` artifact and return its path; a
    failed write only warns, so timed results are never discarded."""
    path = bench_path(name)
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
    except OSError as exc:
        print(f"warning: could not write {path}: {exc}")
    return path


def _jsonable(value):
    import numpy as np
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON-serialisable: {type(value)}")
