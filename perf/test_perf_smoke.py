"""End-to-end smoke of the benchmark: all five workloads at about 1/50
scale, over real sockets and real worker processes.  Deselected from
tier-1 by its markers; run it with

    PYTHONPATH=src python -m pytest perf -m "net and multiproc"
"""

from __future__ import annotations

import json
import os
import socket
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402

pytestmark = [pytest.mark.net, pytest.mark.multiproc]


@pytest.fixture
def smoke_scale():
    saved = {k: (v.copy() if isinstance(v, dict) else v)
             for k, v in vars(spec).items() if k.isupper()}
    spec.shrink_for_smoke()
    yield
    for key, value in saved.items():
        if isinstance(value, dict):
            getattr(spec, key).clear()
            getattr(spec, key).update(value)
        else:
            setattr(spec, key, value)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_and_tears_down(smoke_scale, workload, trace,
                                            monkeypatch):
    spawned = []
    real = run.Server

    class Recording(real):
        def __init__(self, *args, **kwargs):
            spawned.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(run, "Server", Recording)
    shm_before = set(stats.shm_segments())
    result = run.run_one(workload, seed=7, seconds=0.6, trace=trace)

    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["guards"]["teardown_clean"]["ok"]
    assert set(result["end_to_end"]) == {n for n, _ in run.END_TO_END}
    assert all(entry["value"] > 0
               for entry in result["end_to_end"].values())
    bench = run.benchmark_json()
    assert list(result["per_layer"]) \
        == [m["name"] for m in bench["per_layer"]]
    line = json.loads(run.contract_line(result))
    assert set(line["metrics"]) == set(
        result["per_layer"] if trace else result["end_to_end"])

    # teardown: every server the run started is gone with its whole
    # process group, nothing is left in /dev/shm, and the ports were
    # ephemeral ones that are free again
    assert len(spawned) == (1 if trace else spec.ROUNDS)
    for server in spawned:
        assert server.proc.poll() is not None
        assert server.pids() == []
        assert server.port >= 1024
        with socket.socket() as sock:
            assert sock.connect_ex(("127.0.0.1", server.port)) != 0
    assert set(stats.shm_segments()) <= shm_before
    if trace:
        spans = os.path.join(run.OUT_DIR, f"trace_{workload}.jsonl")
        assert result["per_layer"]["trace.spans"]["value"] > 0
        with open(spans, "r", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert {"id", "name", "start", "end", "parent", "rid"} <= set(first)
