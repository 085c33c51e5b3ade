"""Dependency-free metrics registry for the serving stack.

Three instrument kinds, all thread-safe and cheap enough for hot paths:

* :class:`Counter` — monotonic float, ``inc()`` only.
* :class:`Gauge` — settable value, or a callable sampled lazily at
  snapshot/render time (``set_function``), so exposing e.g. a queue
  depth costs nothing until someone scrapes ``/metrics``.
* :class:`Histogram` — log-bucketed latency histogram with a **fixed**
  bucket layout (:data:`DEFAULT_BUCKETS`).  Because every process uses
  the same bounds, bucket counts are mergeable across workers by plain
  element-wise addition, and p50/p95/p99 computed from the merged
  counts are exact up to one bucket's width.

Instruments are grouped into labeled *families* (one family per metric
name, one child per label-value tuple), mirroring the Prometheus data
model.  :meth:`MetricsRegistry.total` sums the series matching a label
subset; it is how every serving count is read.
:meth:`MetricsRegistry.snapshot` produces a plain-dict,
pickle/JSON-friendly dump; :meth:`MetricsRegistry.ingest` adds a
snapshot into a registry (optionally stamping extra labels such as
``worker="w0"``), which is how the cluster tier merges worker-process
metrics into one exposition; :meth:`MetricsRegistry.render` emits
Prometheus text format 0.0.4.

Only ``math``/``threading`` are imported — no third-party deps, safe to
use inside cluster worker processes.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "percentile_from_counts",
]


def log_buckets(start: float = 1e-4, stop: float = 100.0,
                per_decade: int = 8) -> tuple[float, ...]:
    """Geometric bucket upper bounds from *start* to at least *stop*.

    The default spans 100 microseconds to 100 seconds at 8 buckets per
    decade (each bound ~33% above the previous), 49 finite bounds — an
    implicit +Inf overflow bucket is always appended by Histogram.
    """
    bounds: list[float] = []
    n = 0
    while True:
        b = start * 10.0 ** (n / per_decade)
        # Round to a stable short decimal so every process, regardless of
        # platform libm, agrees bit-for-bit on the layout (mergeability).
        b = float(f"{b:.6g}")
        bounds.append(b)
        if b >= stop:
            break
        n += 1
    return tuple(bounds)


DEFAULT_BUCKETS = log_buckets()


def percentile_from_counts(bounds: Sequence[float], counts: Sequence[int],
                           q: float) -> float:
    """Estimate the *q*-quantile (0..1) from histogram bucket counts.

    *counts* has ``len(bounds) + 1`` entries (last one is the +Inf
    overflow bucket).  Linear interpolation inside the target bucket;
    the overflow bucket clamps to the last finite bound, which makes
    the estimate conservative (never exaggerates tail latency).
    """
    total = sum(counts)
    if total <= 0:
        return math.nan
    rank = q * total
    cum = 0.0
    for i, c in enumerate(counts):
        if c <= 0:
            continue
        lo = bounds[i - 1] if i > 0 else 0.0
        if i >= len(bounds):          # overflow bucket: clamp
            return float(bounds[-1])
        hi = bounds[i]
        if cum + c >= rank:
            frac = (rank - cum) / c
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        cum += c
    return float(bounds[-1])


def _fmt(v: float) -> str:
    if v != v:
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n")


class Counter:
    """Monotonic counter child (one label combination)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Settable gauge child; may be backed by a callable sampled lazily."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample *fn* at snapshot/render time instead of storing a value."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:
                return math.nan
        return self._value


class Histogram:
    """Fixed-layout log-bucketed histogram child."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        # Binary search over the fixed bounds; ~6 comparisons for the
        # default layout.  bisect on a tuple would allocate; inline it.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        value = float(value)
        idx = self._index(value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        with self._lock:
            counts = list(self.counts)
            mn, mx = self.min, self.max
        est = percentile_from_counts(self.bounds, counts, q)
        if est != est:
            return est
        # Clamp by the observed range — tightens the first/last buckets.
        if mn <= mx:
            est = min(max(est, mn), mx)
        return est

    def merge_counts(self, counts: Sequence[int], total: float, n: int,
                     mn: float = math.inf, mx: float = -math.inf) -> None:
        if len(counts) != len(self.counts):
            raise ValueError("histogram bucket layouts differ; cannot merge")
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.sum += total
            self.count += n
            if mn < self.min:
                self.min = mn
            if mx > self.max:
                self.max = mx


class _Family:
    """One metric name: a set of children keyed by label-value tuples."""

    def __init__(self, name: str, kind: str, help: str,
                 label_names: tuple[str, ...],
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def _make_child(self) -> Counter | Gauge | Histogram:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_BUCKETS)

    def labels(self, **labels: object):
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}")
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Convenience: an unlabeled family proxies straight to its sole child.
    @property
    def _default(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default.set_function(fn)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    @property
    def value(self) -> float:
        return self._default.value

    def total(self, **where: object) -> float:
        """Sum of the children (counters/gauges) whose labels match
        ``where``; no ``where`` sums them all."""
        want = {k: str(v) for k, v in where.items()}
        return sum((child.value for labels, child in self.series()
                    if all(labels.get(k) == v for k, v in want.items())),
                   0.0)

    def series(self) -> list[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        with self._lock:
            items = sorted(self._children.items())
        return [(dict(zip(self.label_names, key)), child)
                for key, child in items]


class MetricsRegistry:
    """A process-local collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same family (kind and label names
    must agree).  Everything is safe to call from any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, help: str,
             label_names: Iterable[str],
             buckets: tuple[float, ...] | None = None) -> _Family:
        label_names = tuple(label_names)
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, kind, help, label_names, buckets)
                self._families[name] = fam
            elif fam.kind != kind or fam.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} re-registered as {kind}{label_names} "
                    f"(was {fam.kind}{fam.label_names})")
            return fam

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> _Family:
        return self._get(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> _Family:
        return self._get(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _Family:
        return self._get(name, "histogram", help, labels, tuple(buckets))

    def get_family(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def total(self, name: str, **where: object) -> float:
        """Sum of ``name``'s series whose labels match ``where`` (a
        subset of the family's labels); 0.0 for a family never
        registered.  The one way to read a serving count."""
        fam = self.get_family(name)
        return 0.0 if fam is None else fam.total(**where)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict dump of every family — pickle/JSON friendly."""
        with self._lock:
            fams = list(self._families.values())
        out = []
        for fam in fams:
            series = []
            for labels, child in fam.series():
                if fam.kind == "histogram":
                    with child._lock:
                        series.append({
                            "labels": labels,
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                            "min": child.min,
                            "max": child.max,
                        })
                else:
                    series.append({"labels": labels, "value": child.value})
            entry = {"name": fam.name, "kind": fam.kind, "help": fam.help,
                     "label_names": list(fam.label_names), "series": series}
            if fam.kind == "histogram":
                entry["buckets"] = list(fam.buckets or DEFAULT_BUCKETS)
            out.append(entry)
        return {"families": out}

    def ingest(self, snapshot: Mapping,
               extra_labels: Mapping[str, str] | None = None) -> None:
        """Merge a :meth:`snapshot` dump into this registry.

        *extra_labels* (e.g. ``{"worker": "w0"}``) are appended to every
        series, which keeps per-worker series distinguishable while the
        fixed bucket layout keeps histograms mergeable.  Ingest the same
        snapshot into a **fresh** registry per merge — counters add, so
        re-ingesting into a live registry double-counts.
        """
        extra = dict(extra_labels or {})
        for fam_dump in snapshot.get("families", []):
            names = tuple(fam_dump["label_names"]) + tuple(extra)
            kind = fam_dump["kind"]
            fam = self._get(fam_dump["name"], kind, fam_dump.get("help", ""),
                            names,
                            tuple(fam_dump.get("buckets") or DEFAULT_BUCKETS)
                            if kind == "histogram" else None)
            for s in fam_dump["series"]:
                child = fam.labels(**{**s["labels"], **extra})
                if kind == "counter":
                    child.inc(s["value"])
                elif kind == "gauge":
                    child.set(s["value"])
                else:
                    child.merge_counts(s["counts"], s["sum"], s["count"],
                                       s.get("min", math.inf),
                                       s.get("max", -math.inf))

    @staticmethod
    def merged(snapshots: Iterable[tuple[Mapping, Mapping[str, str] | None]]
               ) -> "MetricsRegistry":
        """Fresh registry built from ``(snapshot, extra_labels)`` pairs.

        Extra-label *keys* are unioned across all pairs (missing values
        become ``""``) so e.g. a parent snapshot without a ``worker``
        label merges cleanly alongside worker-labeled ones.
        """
        pairs = [(snap, dict(extra or {})) for snap, extra in snapshots]
        keys = sorted({k for _, extra in pairs for k in extra})
        reg = MetricsRegistry()
        for snap, extra in pairs:
            reg.ingest(snap, {k: extra.get(k, "") for k in keys})
        return reg

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self._lock:
            fams = sorted(self._families.values(), key=lambda f: f.name)
        lines: list[str] = []
        for fam in fams:
            if fam.help:
                lines.append(f"# HELP {fam.name} {_escape(fam.help)}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for labels, child in fam.series():
                if fam.kind == "histogram":
                    with child._lock:
                        counts = list(child.counts)
                        total, n = child.sum, child.count
                    cum = 0
                    bounds = fam.buckets or DEFAULT_BUCKETS
                    for i, bound in enumerate(bounds):
                        cum += counts[i]
                        lines.append(self._line(
                            fam.name + "_bucket",
                            {**labels, "le": _fmt(bound)}, cum))
                    cum += counts[-1]
                    lines.append(self._line(fam.name + "_bucket",
                                            {**labels, "le": "+Inf"}, cum))
                    lines.append(self._line(fam.name + "_sum", labels, total))
                    lines.append(self._line(fam.name + "_count", labels, n))
                else:
                    lines.append(self._line(fam.name, labels, child.value))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _line(name: str, labels: Mapping[str, str], value: float) -> str:
        if labels:
            body = ",".join(f'{k}="{_escape(str(v))}"'
                            for k, v in labels.items())
            return f"{name}{{{body}}} {_fmt(value)}"
        return f"{name} {_fmt(value)}"
