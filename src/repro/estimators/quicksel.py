"""QuickSel (Park et al. 2020) — query-driven uniform mixture model.

The paper's related work (Table 1, "Mixture models") covers QuickSel as the
modern query-driven alternative to histograms: the data distribution is
modelled as a mixture of uniform distributions over subpopulations induced
by the training queries, and the mixture weights are fit by least squares
against the observed selectivities — no multi-dimensional histogram
maintenance.

This implementation keeps QuickSel's core: one uniform kernel per training
query region (plus one over the full space), weights solved by non-negative
least squares with a sum-to-one penalty.  Box overlap uses each predicate's
bounding code interval.
"""

from __future__ import annotations

import numpy as np

from ..data.table import Table
from ..workload.predicate import LabeledWorkload, Query
from .base import TrainableEstimator


def query_box(table: Table, query: Query) -> np.ndarray:
    """Per-column inclusive code interval ``[lo, hi]`` (bounding the mask).

    Shape ``[num_cols, 2]``; unconstrained columns span the full domain.
    """
    box = np.zeros((table.num_cols, 2), dtype=np.float64)
    for j, col in enumerate(table.columns):
        box[j] = (0, col.size - 1)
    for idx, mask in query.masks(table).items():
        nz = np.flatnonzero(mask)
        if nz.size == 0:
            box[idx] = (1, 0)  # empty interval
        else:
            box[idx] = (nz[0], nz[-1])
    return box


def overlap_fraction(box: np.ndarray, other: np.ndarray) -> float:
    """|box ∩ other| / |box| under per-column interval volumes."""
    frac = 1.0
    for (lo, hi), (olo, ohi) in zip(box, other):
        width = hi - lo + 1.0
        if width <= 0:
            return 0.0
        inter = min(hi, ohi) - max(lo, olo) + 1.0
        if inter <= 0:
            return 0.0
        frac *= inter / width
    return frac


class QuickSelEstimator(TrainableEstimator):
    name = "QuickSel"

    def __init__(self, table: Table, max_kernels: int = 256,
                 sum_to_one_weight: float = 10.0):
        super().__init__(table)
        self.max_kernels = max_kernels
        self.sum_to_one_weight = sum_to_one_weight
        self.boxes: np.ndarray | None = None   # [k, cols, 2]
        self.weights: np.ndarray | None = None

    def fit(self, workload: LabeledWorkload | None = None
            ) -> "QuickSelEstimator":
        if workload is None or len(workload) == 0:
            raise ValueError("QuickSel needs a labeled workload")
        n = min(len(workload), self.max_kernels)
        kernel_queries = workload.queries[:n]
        boxes = [self._full_box()]
        boxes += [query_box(self.table, q) for q in kernel_queries]
        self.boxes = np.stack(boxes)

        # Least squares: for every training query i,
        #   sum_j w_j * |q_i ∩ box_j| / |box_j| = sel_i.
        sels = workload.selectivities(self.table.num_rows)
        rows = []
        for query in workload.queries:
            qbox = query_box(self.table, query)
            rows.append([overlap_fraction(b, qbox) for b in self.boxes])
        a = np.asarray(rows)
        b = np.asarray(sels)
        # Soft constraint sum(w) = 1.
        a = np.vstack([a, np.full((1, len(self.boxes)),
                                  self.sum_to_one_weight)])
        b = np.append(b, self.sum_to_one_weight)
        from scipy.optimize import nnls
        self.weights, _ = nnls(a, b)
        return self

    def _full_box(self) -> np.ndarray:
        return np.array([(0, col.size - 1) for col in self.table.columns],
                        dtype=np.float64)

    def estimate(self, query: Query) -> float:
        if self.weights is None:
            raise RuntimeError("call fit() first")
        qbox = query_box(self.table, query)
        sel = sum(w * overlap_fraction(b, qbox)
                  for w, b in zip(self.weights, self.boxes))
        return self._clamp_card(sel)

    def size_bytes(self) -> int:
        if self.boxes is None:
            return 0
        return int(self.boxes.size * 8 + self.weights.size * 8)
