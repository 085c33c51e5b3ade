"""Fused training kernels: hand-written forward/backward for the data loss.

The reference training path (the tests' oracle,
``tests/reference/uae.py``) builds a dynamic autograd graph per step — one
Python closure per primitive op, a ``log_softmax`` composition and an
``np.add.at`` scatter per column for the cross-entropy — which dominates
the step time on CPU.  Here the forward is the shared ResMADE trunk
kernel (:func:`repro.nn.trunk.trunk_forward`, with stored activations)
plus one output GEMM and a one-pass softmax cross-entropy over every
column (:meth:`FusedDataLoss.cross_entropy`: each elementwise step runs
once on the whole logit matrix; only the normaliser and the column
totals are summed per column, so it is bit-identical to the per-column
loop in ``tests/reference/fused.py``), and one hand-derived backward
writes gradients straight into parameter ``.grad`` buffers.  That
forward is also the one NLL evaluation in ``src/``:
``UAE.loglikelihood`` runs :meth:`FusedDataLoss.forward` with nothing
wildcarded, in ``batch_size`` chunks.

:meth:`FusedDataLoss.loss` runs forward and backward in one call: it
adds ``scale * dL/dtheta`` into the parameters' ``.grad`` and returns
the loss value; no graph node outlives it.  Its backward from
``dL/dlogits`` (:func:`network_backward`) also serves REINFORCE.

Gradient contract: identical math to ``ReferenceUAE.data_loss`` under
``tests/reference/`` (per-column softmax cross-entropy over the same
encoded inputs; an embedding table gets the gradient of the rows its
non-wildcarded entries looked up, on both paths), so gradients agree to
float32 rounding —
``tests/test_train_engine.py`` and ``tests/test_backend_matrix.py``
assert max abs diff < 1e-4.

Activation storage is pooled: buffers persist across steps keyed by role,
so steady-state training steps allocate almost nothing.
"""

from __future__ import annotations

import numpy as np

from ..nn.buffers import BufferPool
from ..nn.encoders import EmbeddingEncoder
from ..nn.made import ResMADE
from ..nn.trunk import TrunkGrads, trunk_backward, trunk_forward


class FusedDataLoss:
    """Fused forward/backward for ``sum_col CE(logits_col, codes_col)``."""

    def __init__(self, model: ResMADE):
        self.model = model
        self.pool = BufferPool()
        self._starts = np.array([sl.start for sl in model.logit_slices])

    def forward(self, batch_codes: np.ndarray,
                wildcard: np.ndarray | None = None) -> tuple[float, tuple]:
        """Mean per-row data NLL, plus the state :meth:`loss`'s backward
        needs: encode (:meth:`ResMADE.encode_tuples`), trunk, output
        GEMM, then :meth:`cross_entropy`, after which the pooled logits
        hold ``dL/dlogits``."""
        model = self.model
        codes = np.asarray(batch_codes)
        n = len(codes)
        pool = self.pool
        x = model.encode_tuples(codes, wildcard=wildcard)
        h, acts = trunk_forward(model, x, pool=pool, tag="d")
        out_l = model.output_layer
        hidden = out_l.in_features
        fr = pool.get("d.fr", n, hidden)
        np.maximum(h, 0.0, out=fr)
        logits = pool.get("d.logits", n, out_l.out_features)
        np.matmul(fr, out_l.fused_weight_t(), out=logits)
        logits += out_l.bias.data

        total = self.cross_entropy(logits, codes)
        return total, (codes, wildcard, x, acts, fr, logits)

    def cross_entropy(self, logits: np.ndarray, codes: np.ndarray) -> float:
        """Mean per-row ``sum_col -log softmax(logits_col)[code_col]``;
        turns ``logits`` into dL/dlogits in place ((softmax - onehot) / n
        per column).

        One pass over all columns: the per-column max (one
        ``maximum.reduceat``), subtract, target gather, ``exp``, divide
        and ``-1`` scatter each run once on the whole ``[n, logits]``
        matrix.  Only the normaliser ``z`` and the float64 column totals
        stay per column, summed and added in column order, because a
        segmented sum rounds differently; so the result is bit-identical
        to a per-column :func:`repro.nn.functional.softmax_nll` loop
        (``tests/reference/fused.py``)."""
        model = self.model
        n = len(codes)
        widths = model.domain_sizes
        logits -= np.repeat(np.maximum.reduceat(logits, self._starts, axis=1),
                            widths, axis=1)
        # Targets laid out [num_cols, n], so each column's are contiguous.
        rows = np.arange(n)
        target = (codes + self._starts).T
        shift = logits[rows, target].astype(np.float64)
        np.exp(logits, out=logits)
        z = np.empty((model.num_cols, n), dtype=np.float32)
        for c, sl in enumerate(model.logit_slices):
            np.sum(logits[:, sl], axis=1, out=z[c])
        logits /= np.repeat(z.T, widths, axis=1)
        total = 0.0
        for col_total in (np.log(z) - shift).sum(axis=1):
            total += col_total / n
        logits[rows, target] -= 1.0
        logits *= np.float32(1.0 / n)
        return total

    def loss(self, batch_codes: np.ndarray,
             wildcard: np.ndarray | None = None,
             scale: float = 1.0) -> float:
        """Add ``scale`` times the data-NLL gradient into ``.grad``;
        return the loss value (at float32, as it is reported)."""
        total, (codes, wildcard, x, acts, fr, grad_logits) = \
            self.forward(batch_codes, wildcard)
        if scale != 1.0:
            grad_logits *= np.float32(scale)
        model = self.model
        gh0 = network_backward(model, self.pool, "d", x, acts, fr,
                               grad_logits)
        # An embedding column's value slots are the table rows its
        # non-wildcarded entries looked up (zeros under a wildcard), so
        # those rows receive dL/dx on the slots.
        in_l = model.input_layer
        for c, enc in enumerate(model.encoders):
            if not isinstance(enc, EmbeddingEncoder):
                continue
            rows = slice(None) if wildcard is None else ~wildcard[:, c]
            sl = model.input_slices[c]
            g_vals = gh0[rows] @ in_l.fused_weight()[:, sl.start:sl.stop - 1]
            g_table = np.zeros_like(enc.table.weight.data)
            np.add.at(g_table, codes[rows, c], g_vals)
            enc.table.weight._accumulate(g_table)
        return float(np.float32(total))


def network_backward(model: ResMADE, pool: BufferPool, tag: str,
                     x: np.ndarray, acts: list[tuple], fr: np.ndarray,
                     grad_logits: np.ndarray) -> np.ndarray:
    """Accumulate the output-head, trunk and input-layer gradients of a
    full-width forward (input ``x``, trunk ``acts``, ReLU'd hidden
    ``fr``) from ``dL/dlogits``; returns ``dL/d`` input pre-activation."""
    n = len(x)
    out_l = model.output_layer
    in_l = model.input_layer
    hidden = out_l.in_features

    gw_out = pool.get(f"{tag}.gw_out", out_l.out_features, hidden)
    np.matmul(grad_logits.T, fr, out=gw_out)
    gw_out *= out_l.mask
    out_l.weight._accumulate(gw_out)
    out_l.bias._accumulate(grad_logits.sum(axis=0))

    gh = pool.get(f"{tag}.gh", n, hidden)
    np.matmul(grad_logits, out_l.fused_weight(), out=gh)
    gh *= fr > 0
    grads = TrunkGrads(model, pool, f"{tag}.tg")
    gh0 = trunk_backward(model, gh, acts, grads, pool, f"{tag}.tb")
    grads.flush()

    gw_in = pool.get(f"{tag}.gw_in", in_l.out_features, in_l.in_features)
    np.matmul(gh0.T, x, out=gw_in)
    gw_in *= in_l.mask
    in_l.weight._accumulate(gw_in)
    in_l.bias._accumulate(gh0.sum(axis=0))
    return gh0
