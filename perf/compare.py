#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, workload by
workload.

    python3 perf/compare.py A.json B.json

``A`` is the parent (baseline), ``B`` the change; both are files written
by ``perf/run.py --runs N --out FILE``.  Every (end-to-end metric,
workload) pair gets one row: both medians and quartiles, the bound
``BENCHMARK.json`` fixes for the metric, and a verdict:

``better``      B's median beats A's by more than the distance between
                A's own quartiles
``same``        B's median is within the bound of A's
``worse``       B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the medians cannot settle it — unless every
                run of one side beats every run of the other

It refuses to compare files measured with a different ``BENCHMARK.json``
or with different request bytes.  Exit code 1 when any row is ``worse``
or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds() -> dict:
    """``{metric: (bound, better)}`` from the repo's BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: (float(m["bound"]), m["better"])
            for m in bench["end_to_end"]}


def quartiles(values) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, bound: float, better: str) -> str:
    """The row's verdict; ``a`` and ``b`` are the runs' values."""
    sign = -1.0 if better == "higher" else 1.0     # fold to lower-is-better
    a = [sign * v for v in a]
    b = [sign * v for v in b]
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    scale = abs(am) or 1.0
    spread = max((a3 - a1) / scale, (b3 - b1) / (abs(bm) or 1.0))
    if spread > bound:
        if max(b) < min(a):
            return "better"
        if min(b) > max(a):
            return "worse"
        return "unresolved"
    if (bm - am) / scale > bound:
        return "worse"
    if am - bm > a3 - a1 and bm < am:
        return "better"
    return "same"


def group(record: dict) -> tuple:
    """``{workload: {metric: [values]}}`` of a result file's untraced
    runs, plus each workload's set of (seed, digest) pairs."""
    values: dict = {}
    digests: dict = {}
    for run in record["runs"]:
        if run["trace"]:
            continue
        per = values.setdefault(run["workload"], {})
        for name, entry in run["end_to_end"].items():
            per.setdefault(name, []).append(entry["value"])
        digests.setdefault(run["workload"], set()).add(
            (run["seed"], run["digest"]))
    return values, digests


def compare(a: dict, b: dict, bounds: dict) -> list:
    """Rows ``(workload, metric, a_quartiles, b_quartiles, bound,
    verdict)``; raises ``ValueError`` when the files are not comparable."""
    if a["benchmark_sha256"] != b["benchmark_sha256"]:
        raise ValueError("the two files were measured with different "
                         "BENCHMARK.json contents")
    a_values, a_digests = group(a)
    b_values, b_digests = group(b)
    rows = []
    for workload in a_values:
        if workload not in b_values:
            continue
        if a_digests[workload] != b_digests[workload]:
            raise ValueError(
                f"workload {workload!r}: the two files sent different "
                "request bytes (seeds or generator differ)")
        for metric, (bound, better) in bounds.items():
            av = a_values[workload].get(metric)
            bv = b_values[workload].get(metric)
            if not av or not bv:
                continue
            rows.append((workload, metric, quartiles(av), quartiles(bv),
                         bound, verdict(av, bv, bound, better)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    records = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        rows = compare(records[0], records[1], load_bounds())
    except ValueError as exc:
        print(f"refusing to compare: {exc}")
        return 2
    print(f"{'workload':9s} {'metric':15s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s} {'bound':>6s}  verdict")
    for workload, metric, qa, qb, bound, result in rows:
        fa = "/".join(f"{v:.4g}" for v in qa)
        fb = "/".join(f"{v:.4g}" for v in qb)
        print(f"{workload:9s} {metric:15s} {fa:>32s} {fb:>32s} "
              f"{bound:6.2f}  {result}")
    bad = [r for r in rows if r[5] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
