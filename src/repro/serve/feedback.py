"""Feedback collection and drift-triggered refinement decisions.

The executor that runs queries to completion knows their true
cardinalities; feeding those observations back is the "learning from
queries" half of the paper run continuously (Section 4.5).  The collector
keeps a rolling :class:`~repro.workload.metrics.RollingQErrorMonitor` of
serving accuracy and a bounded buffer of the most recent labeled queries.
When the monitored q-error quantile degrades past a threshold — workload
drift, data drift, or both — ``should_refine`` turns true and ``drain``
hands the buffered observations to the trainer as a
:class:`~repro.workload.predicate.LabeledWorkload`.
"""

from __future__ import annotations

import math
import threading
from collections import deque

import numpy as np

from ..workload.metrics import RollingQErrorMonitor
from ..workload.predicate import LabeledWorkload, Query


def checked_cardinality(value, field: str) -> float:
    """``value`` as a float cardinality: finite and ``>= 0``, else
    ``ValueError``.

    Feedback is outside input — an executor's report over the wire or
    through the sync API — and a single NaN, infinite or negative label
    would become a training label of the next refinement, turn the drift
    quantile into NaN (``nan > threshold`` is False, so the trigger goes
    silent) and read as a 1e18 q-error to the swap tripwire.  There is
    no upper bound: a truth counted over staged rows the model has not
    ingested yet legitimately exceeds its table size.
    """
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(
            f"{field} must be a finite number >= 0, got {value!r}")
    return number


class FeedbackCollector:
    """Rolling labeled-workload buffer + q-error drift monitor.

    ``quantile``/``threshold`` define the degradation trigger: refinement
    is suggested once the rolling ``quantile`` q-error exceeds
    ``threshold`` and at least ``min_observations`` have arrived since the
    last drain (so one outlier straggler cannot thrash the trainer).
    """

    def __init__(self, window: int = 256, capacity: int = 512,
                 min_observations: int = 64, quantile: float = 0.9,
                 threshold: float = 4.0):
        self.monitor = RollingQErrorMonitor(window=window)
        self.quantile = float(quantile)
        self.threshold = float(threshold)
        self.min_observations = int(min_observations)
        self._lock = threading.Lock()
        self._buffer: deque[tuple[Query, float]] = deque(maxlen=int(capacity))
        self._since_drain = 0
        self.total_observed = 0

    # ------------------------------------------------------------------
    def record(self, query: Query, estimate: float,
               true_cardinality: float) -> float:
        """Observe one executed query; returns its serving q-error.

        Raises ``ValueError`` for a non-finite or negative ``estimate`` /
        ``true_cardinality`` (see :func:`checked_cardinality`).
        """
        estimate = checked_cardinality(estimate, "estimate")
        true_cardinality = checked_cardinality(true_cardinality,
                                               "true_cardinality")
        with self._lock:
            err = self.monitor.add(estimate, true_cardinality)
            self._buffer.append((query, true_cardinality))
            self._since_drain += 1
            self.total_observed += 1
            return err

    def drift(self) -> float:
        """Current rolling q-error at the configured quantile."""
        with self._lock:
            return self.monitor.quantile(self.quantile)

    def should_refine(self) -> bool:
        with self._lock:
            if self._since_drain < self.min_observations:
                return False
            if len(self.monitor) < self.min_observations:
                return False
            return self.monitor.quantile(self.quantile) > self.threshold

    def clear_buffer(self) -> None:
        """Drop buffered labels without touching the drift monitor."""
        with self._lock:
            self._buffer.clear()

    def reset_window(self) -> None:
        """Atomically drop buffered labels *and* the drift window.

        Called when inserts arrive: cardinalities observed against the
        pre-insert table no longer label the current data distribution,
        and drift should be measured fresh against the new regime.  One
        lock acquisition — concurrent ``should_refine``/``stats`` never
        see the monitor mutate mid-read.
        """
        with self._lock:
            self._buffer.clear()
            self.monitor.reset()

    # ------------------------------------------------------------------
    def drain(self) -> LabeledWorkload | None:
        """Labeled workload of the buffered feedback; resets the trigger.

        The monitor window is cleared too: after the trainer ingests this
        feedback and publishes, the old model's errors no longer describe
        the active model, and a stale window would re-trigger immediately.
        """
        with self._lock:
            if not self._buffer:
                return None
            queries = [q for q, _ in self._buffer]
            cards = np.array([c for _, c in self._buffer], dtype=np.float64)
            self._buffer.clear()
            self._since_drain = 0
            self.monitor.reset()
            return LabeledWorkload(queries, cards)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def stats(self) -> dict:
        with self._lock:
            summary = self.monitor.summary()
            return {"buffered": len(self._buffer),
                    "observed": self.total_observed,
                    "since_drain": self._since_drain,
                    "rolling_qerror": None if summary is None
                    else summary.row(),
                    "drift_quantile": self.quantile,
                    "drift_threshold": self.threshold,
                    "drift": self.monitor.quantile(self.quantile)
                    if len(self.monitor) else None}
