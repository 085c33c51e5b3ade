"""MSCN (Kipf et al. 2019) — multi-set convolutional network baselines.

* :class:`MSCNBase` — the paper's single-table adaptation: the join module
  is dropped; each predicate is featurised as (column one-hot, operator
  one-hot, normalised literal), passed through a shared per-predicate MLP,
  average-pooled over the predicate set and fed to an output MLP that
  predicts normalised log-cardinality.
* :class:`MSCNSampling` — "MSCN+sampling" (baseline 8): the estimator
  additionally materialises a uniform row sample and feeds the query's
  sample *bitmap* through its own branch — the hybrid-by-features approach
  the paper contrasts with UAE's unified training.

The set-MLP runs in numpy with a hand-written backward of its MSE loss
(no autograd graph); ``tests/test_estimators_mscn.py`` holds it to the
graph oracle in ``tests/reference/mscn.py``.
"""

from __future__ import annotations

import numpy as np

from ..data.table import Table
from ..nn import Adam, Linear, Module
from ..workload.predicate import SUPPORTED_OPS, LabeledWorkload, Query
from .base import TrainableEstimator

_OP_INDEX = {op: i for i, op in enumerate(SUPPORTED_OPS)}


def _affine(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.weight.data.T + layer.bias.data


def _relu(z: np.ndarray) -> np.ndarray:
    return z * (z > 0)


def _affine_grads(layer: Linear, x: np.ndarray, g: np.ndarray) -> None:
    """Accumulate the weight and bias gradients of ``_affine(layer, x)``
    for the upstream gradient ``g``.  ``(x^T g)^T`` rather than ``g^T x``:
    the graph oracle's product order, so trained weights match it to the
    bit."""
    layer.weight._accumulate((x.T @ g).T)
    layer.bias._accumulate(g.sum(axis=0))


class _SetMLP(Module):
    """Shared predicate MLP -> masked mean pool -> output MLP -> sigmoid."""

    def __init__(self, pred_dim: int, hidden: int, extra_dim: int,
                 rng: np.random.Generator):
        self.pred_fc1 = Linear(pred_dim, hidden, rng)
        self.pred_fc2 = Linear(hidden, hidden, rng)
        self.extra_fc = Linear(extra_dim, hidden, rng) if extra_dim else None
        merged = hidden + (hidden if extra_dim else 0)
        self.out_fc1 = Linear(merged, hidden, rng)
        self.out_fc2 = Linear(hidden, 1, rng)

    def forward(self, feats: np.ndarray, mask: np.ndarray,
                extra: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        """Predictions ``[b]`` in (0, 1) and the activations
        :meth:`accumulate_grad` reads."""
        b, p, d = feats.shape
        x = feats.reshape(b * p, d)
        a1 = _relu(_affine(self.pred_fc1, x))
        a2 = _relu(_affine(self.pred_fc2, a1))
        keep = mask.reshape(b * p, 1).astype(np.float32)
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        inv = (1.0 / counts).astype(np.float32)
        merged = (a2 * keep).reshape(b, p, -1).sum(axis=1) * inv
        side = None
        if self.extra_fc is not None:
            side = _relu(_affine(self.extra_fc, extra))
            merged = np.concatenate([merged, side], axis=-1)
        o1 = _relu(_affine(self.out_fc1, merged))
        pred = 1.0 / (1.0 + np.exp(-_affine(self.out_fc2, o1).reshape(b)))
        return pred, (x, a1, a2, keep, inv, extra, side, merged, o1, pred)

    def accumulate_grad(self, acts: tuple, grad: np.ndarray) -> None:
        """Accumulate every parameter gradient for ``dL/dpred = grad``."""
        x, a1, a2, keep, inv, extra, side, merged, o1, pred = acts
        g = (grad * pred * (1.0 - pred)).reshape(-1, 1)
        _affine_grads(self.out_fc2, o1, g)
        g = (g @ self.out_fc2.weight.data) * (o1 > 0)
        _affine_grads(self.out_fc1, merged, g)
        g = g @ self.out_fc1.weight.data
        if side is not None:
            hidden = self.pred_fc2.out_features
            _affine_grads(self.extra_fc, extra, g[:, hidden:] * (side > 0))
            g = g[:, :hidden]
        # Mean pool: every predicate slot of query i gets row i / count,
        # padding slots nothing.
        g = np.repeat(g * inv, len(x) // len(g), axis=0) * keep * (a2 > 0)
        _affine_grads(self.pred_fc2, a1, g)
        g = (g @ self.pred_fc2.weight.data) * (a1 > 0)
        _affine_grads(self.pred_fc1, x, g)

    def mse_loss(self, feats: np.ndarray, mask: np.ndarray,
                 extra: np.ndarray | None, target: np.ndarray) -> float:
        """Mean squared error of the predictions against ``target``:
        accumulates its gradient and returns its value."""
        pred, acts = self.forward(feats, mask, extra)
        diff = pred - target
        scale = np.float32(1.0 / len(diff))
        grad = diff * scale
        grad += grad                       # d(diff^2)/d(diff) = 2 diff
        self.accumulate_grad(acts, grad)
        return float((diff * diff).sum() * scale)


class MSCNBase(TrainableEstimator):
    name = "MSCN-base"

    def __init__(self, table: Table, hidden: int = 64, lr: float = 1e-3,
                 epochs: int = 60, batch_size: int = 64, seed: int = 0):
        super().__init__(table)
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.pred_dim = table.num_cols + len(SUPPORTED_OPS) + 1
        self.net = _SetMLP(self.pred_dim, hidden, self._extra_dim(), self.rng)
        # Predictions are log-cardinalities over ``_log_norm``, clipped
        # to ``[0, _max_card]`` (the join baseline resets both).
        self._log_norm = np.log(table.num_rows + 1.0)
        self._max_card = table.num_rows

    def _extra_dim(self) -> int:
        return 0

    def _extra_features(self, queries: list[Query]) -> np.ndarray | None:
        return None

    # ------------------------------------------------------------------
    # Featurisation
    # ------------------------------------------------------------------
    def _featurize(self, queries: list[Query]) -> tuple[np.ndarray, np.ndarray]:
        max_preds = max((len(q) for q in queries), default=1) or 1
        feats = np.zeros((len(queries), max_preds, self.pred_dim),
                         dtype=np.float32)
        mask = np.zeros((len(queries), max_preds), dtype=np.float32)
        for qi, query in enumerate(queries):
            for pi, pred in enumerate(query.predicates):
                col_idx = self.table.column_index(pred.column)
                col = self.table.columns[col_idx]
                feats[qi, pi, col_idx] = 1.0
                feats[qi, pi, self.table.num_cols + _OP_INDEX[pred.op]] = 1.0
                value = pred.value[0] if pred.op == "IN" else pred.value
                lo, hi = col.code_range("=", value)
                code = lo if lo < hi else min(lo, col.size - 1)
                feats[qi, pi, -1] = code / max(col.size - 1, 1)
                mask[qi, pi] = 1.0
        return feats, mask

    # ------------------------------------------------------------------
    def fit(self, workload: LabeledWorkload | None = None) -> "MSCNBase":
        if workload is None or len(workload) == 0:
            raise ValueError("MSCN needs a labeled workload")
        feats, mask = self._featurize(workload.queries)
        extra = self._extra_features(workload.queries)
        target = np.log(workload.cardinalities + 1.0) / self._log_norm
        target = target.astype(np.float32)
        optimizer = Adam(self.net.parameters(), lr=self.lr)
        n = len(feats)
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                optimizer.zero_grad()
                self.net.mse_loss(feats[idx], mask[idx],
                                  None if extra is None else extra[idx],
                                  target[idx])
                optimizer.step()
        return self

    def estimate(self, query: Query) -> float:
        return float(self.estimate_many([query])[0])

    def estimate_many(self, queries: list[Query]) -> np.ndarray:
        feats, mask = self._featurize(queries)
        pred, _ = self.net.forward(feats, mask, self._extra_features(queries))
        cards = np.exp(pred.astype(np.float64) * self._log_norm) - 1.0
        return np.clip(cards, 0.0, self._max_card)

    def size_bytes(self) -> int:
        return self.net.size_bytes()


class MSCNSampling(MSCNBase):
    name = "MSCN+sampling"

    def __init__(self, table: Table, hidden: int = 64, lr: float = 1e-3,
                 epochs: int = 60, batch_size: int = 64, seed: int = 0,
                 bitmap_size: int = 64, sample_budget_bytes: int | None = None):
        self.bitmap_size = bitmap_size
        super().__init__(table, hidden=hidden, lr=lr, epochs=epochs,
                         batch_size=batch_size, seed=seed)
        rng = np.random.default_rng(seed + 1)
        if sample_budget_bytes is not None:
            rows = max(bitmap_size,
                       sample_budget_bytes // (4 * table.num_cols))
        else:
            rows = 1024
        rows = min(rows, table.num_rows)
        idx = rng.choice(table.num_rows, size=rows, replace=False)
        self.sample = table.codes[idx]

    def _extra_dim(self) -> int:
        return self.bitmap_size + 2

    def _extra_features(self, queries: list[Query]) -> np.ndarray:
        """Bitmap over the first ``bitmap_size`` sample rows + the sample
        selectivity estimate (raw and log)."""
        out = np.zeros((len(queries), self.bitmap_size + 2), dtype=np.float32)
        for qi, query in enumerate(queries):
            keep = np.ones(len(self.sample), dtype=bool)
            for idx, mask in query.masks(self.table).items():
                keep &= mask[self.sample[:, idx]]
            frac = keep.mean()
            out[qi, :self.bitmap_size] = keep[:self.bitmap_size]
            out[qi, -2] = frac
            out[qi, -1] = np.log(frac + 1e-6)
        return out

    def size_bytes(self) -> int:
        return self.net.size_bytes() + int(self.sample.size * 4)
