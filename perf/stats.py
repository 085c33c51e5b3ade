"""Small, dependency-free maths shared by the harness, the compare tool
and the tests: percentiles, q-error, Prometheus text scrapes and their
deltas, and process-tree memory and stolen CPU time from ``/proc``.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty
    sequence — the definition NumPy uses by default."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def qerror(estimate: float, truth: float) -> float:
    """``max(est/truth, truth/est)`` with both floored at one row."""
    est, tru = max(float(estimate), 1.0), max(float(truth), 1.0)
    return max(est / tru, tru / est)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> dict:
    """``{(name, ((label, value), ...)): float}`` for every sample line;
    label pairs are sorted so keys compare across scrapes."""
    out: dict = {}
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels))) if labels else ()
        out[(name, pairs)] = float(value)
    return out


class Scrape:
    """The difference of two ``/metrics`` scrapes taken around a window."""

    def __init__(self, before: dict, after: dict):
        self.delta = {key: value - before.get(key, 0.0)
                      for key, value in after.items()}

    def total(self, name: str, **where) -> float:
        """Sum of ``name``'s delta over every series matching ``where``
        (the ``worker`` label a cluster merge adds is summed over)."""
        total = 0.0
        for (sample, pairs), value in self.delta.items():
            if sample != name:
                continue
            labels = dict(pairs)
            if all(labels.get(k) == v for k, v in where.items()):
                total += value
        return total

    def mean(self, histogram: str, **where) -> float:
        """Mean observation of a histogram over the window; 0 when
        nothing was observed."""
        count = self.total(histogram + "_count", **where)
        if count <= 0:
            return 0.0
        return self.total(histogram + "_sum", **where) / count

    def mean_ms(self, histogram: str, **where) -> float:
        """The same for a histogram of seconds, in milliseconds."""
        return self.mean(histogram, **where) * 1e3


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
def process_group_pids(pgid: int) -> list:
    """Live pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may contain spaces/parens: fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> list:
    """Names under ``/dev/shm`` (the cluster's snapshot segments live
    there; a run must leave none behind)."""
    try:
        return sorted(os.listdir("/dev/shm"))
    except OSError:
        return []


class StealSampler:
    """Samples the host's stolen-CPU counter (``/proc/stat``) a few times
    a second, so a window can tell which of its slices ran while the
    hypervisor was giving this VM's cores to someone else."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples: list = []         # (perf_counter, steal, total) ticks
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def read() -> tuple:
        with open("/proc/stat", "r") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        steal = fields[7] if len(fields) > 7 else 0
        return steal, sum(fields[:8])

    def _run(self) -> None:
        while True:
            self.samples.append((time.perf_counter(), *self.read()))
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "StealSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.samples.append((time.perf_counter(), *self.read()))

    def share(self, start: float, end: float) -> float:
        """Stolen share of all CPU time between two instants (taken at
        the nearest samples at or after each)."""
        def at(t):
            for sample in self.samples:
                if sample[0] >= t:
                    return sample
            return self.samples[-1]
        (_, s0, t0), (_, s1, t1) = at(start), at(end)
        return (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
