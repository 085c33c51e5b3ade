"""Fused training kernels: hand-written forward/backward for the data loss.

The reference training path (the tests' oracle,
``tests/reference/uae.py``) builds a dynamic autograd graph per step — one
Python closure per primitive op, a ``log_softmax`` composition and an
``np.add.at`` scatter per column for the cross-entropy — which dominates
the step time on CPU.  This module mirrors the PR 1 inference engine's
approach for *training*: the whole per-step computation is written as a
handful of numpy GEMMs over the masked layers' cached fused weights
(``MaskedLinear.fused_weight_t()``, the same version-invalidated arrays
:class:`repro.infer.CompiledModel` snapshots), with one hand-derived
backward pass that writes gradients straight into parameter ``.grad``
buffers.

The public entry point, :meth:`FusedDataLoss.loss`, still returns a
:class:`~repro.nn.tensor.Tensor`, so callers compose it with graph-built
losses (``loss = data + lam * query``) and call ``backward()`` exactly as
on a graph-built loss — the node's ``_backward`` closure runs the fused pass
when the graph reaches it.

Gradient contract: identical math to ``ReferenceUAE.data_loss`` under
``tests/reference/`` (per-column softmax cross-entropy over the same
encoded inputs; encoders are constants under wildcard dropout on both
paths), so gradients agree to float32 rounding —
``tests/test_train_engine.py`` and ``tests/test_backend_matrix.py``
assert max abs diff < 1e-4.

Activation storage is pooled: buffers persist across steps keyed by role,
so steady-state training steps allocate almost nothing.  Consequence: at
most one fused loss may be in flight (forward done, backward pending) per
``FusedDataLoss`` instance — exactly how ``UAE.fit`` uses it.
"""

from __future__ import annotations

import numpy as np

from ..nn.buffers import BufferPool
from ..nn.made import ResMADE
from ..nn.tensor import Tensor


def trunk_forward(model: ResMADE, x: np.ndarray, pool: BufferPool,
                  tag: str, width: int | None = None
                  ) -> tuple[np.ndarray, list[tuple]]:
    """ResMADE trunk on encoded input ``x`` with stored activations.

    Matches ``ResMADE.hidden_tensor`` numerically (same fused weights,
    same op order).  Returns the pre-ReLU final hidden state plus the
    per-block ``(h_in, a1, z1, a2)`` activations :func:`trunk_backward`
    needs; all arrays live in ``pool`` under ``tag``-prefixed keys.

    ``width`` restricts the computation to the first ``width`` hidden
    units.  With sorted hidden degrees (see
    :func:`repro.nn.made.hidden_degrees`) every unit a given sampling
    position can read lives in such a prefix, and the masks guarantee
    prefix units take no input from beyond the prefix — the restricted
    GEMMs produce bit-identical values for those units.
    """
    n = len(x)
    in_l = model.input_layer
    k = in_l.out_features if width is None else int(width)
    h = pool.get(f"{tag}.h0", n, k)
    np.matmul(x, in_l.fused_weight_t()[:, :k], out=h)
    h += in_l.bias.data[:k]
    acts: list[tuple] = []
    for bi, block in enumerate(model.blocks):
        a1 = pool.get(f"{tag}.a1.{bi}", n, k)
        np.maximum(h, 0.0, out=a1)
        z1 = pool.get(f"{tag}.z1.{bi}", n, k)
        np.matmul(a1, block.fc1.fused_weight_t()[:k, :k], out=z1)
        z1 += block.fc1.bias.data[:k]
        a2 = pool.get(f"{tag}.a2.{bi}", n, k)
        np.maximum(z1, 0.0, out=a2)
        hn = pool.get(f"{tag}.h.{bi + 1}", n, k)
        np.matmul(a2, block.fc2.fused_weight_t()[:k, :k], out=hn)
        hn += block.fc2.bias.data[:k]
        hn += h
        acts.append((h, a1, z1, a2))
        h = hn
    return h, acts


class TrunkGrads:
    """Accumulators for the trunk's block weight/bias gradients.

    One instance accumulates across any number of
    :func:`trunk_backward` passes (the fused DPS backward runs one per
    sampled column); :meth:`flush` applies the MADE masks once and pushes
    the sums into parameter ``.grad`` buffers.  The input layer is *not*
    handled here — callers own it because their input strategies differ
    (the DPS kernel folds all steps into a single GEMM against the final
    input buffer; see :mod:`repro.train.dps_fused`).
    """

    def __init__(self, model: ResMADE, pool: BufferPool, tag: str):
        self.model = model
        self.pool = pool
        self.tag = tag
        hidden = model.input_layer.out_features
        self.gw1 = [pool.zeros(f"{tag}.gw1.{bi}", hidden, hidden)
                    for bi in range(len(model.blocks))]
        self.gw2 = [pool.zeros(f"{tag}.gw2.{bi}", hidden, hidden)
                    for bi in range(len(model.blocks))]
        self.gb1 = [np.zeros(hidden, dtype=np.float32)
                    for _ in model.blocks]
        self.gb2 = [np.zeros(hidden, dtype=np.float32)
                    for _ in model.blocks]

    def flush(self) -> None:
        for bi, block in enumerate(self.model.blocks):
            gw1, gw2 = self.gw1[bi], self.gw2[bi]
            gw1 *= block.fc1.mask
            gw2 *= block.fc2.mask
            block.fc1.weight._accumulate(gw1)
            block.fc2.weight._accumulate(gw2)
            block.fc1.bias._accumulate(self.gb1[bi])
            block.fc2.bias._accumulate(self.gb2[bi])


def trunk_backward(model: ResMADE, gh: np.ndarray, acts: list[tuple],
                   grads: TrunkGrads, pool: BufferPool, tag: str,
                   width: int | None = None) -> np.ndarray:
    """Backward through the residual blocks.

    ``gh`` is the gradient w.r.t. the trunk output (pre-ReLU final
    hidden); it is consumed in place and returned as the gradient w.r.t.
    the input layer's pre-activation ``h0``.  Block weight/bias gradient
    contributions accumulate into ``grads``.  ``width`` mirrors
    :func:`trunk_forward`: gradients confined to a hidden-unit prefix
    stay in that prefix, so all GEMMs shrink accordingly.
    """
    n = len(gh)
    k = model.input_layer.out_features if width is None else int(width)
    ga = pool.get(f"{tag}.ga", n, k)
    gt = pool.get(f"{tag}.gt", n, k)
    scratch = pool.get(f"{grads.tag}.hh", k, k)
    for bi in range(len(model.blocks) - 1, -1, -1):
        block = model.blocks[bi]
        h_in, a1, z1, a2 = acts[bi]
        # hn = h_in + (relu(z1) @ W2 + b2), z1 = relu(h_in) @ W1 + b1.
        np.matmul(gh.T, a2, out=scratch)
        grads.gw2[bi][:k, :k] += scratch
        grads.gb2[bi][:k] += gh.sum(axis=0)
        np.matmul(gh, block.fc2.fused_weight()[:k, :k], out=ga)
        ga *= z1 > 0
        np.matmul(ga.T, a1, out=scratch)
        grads.gw1[bi][:k, :k] += scratch
        grads.gb1[bi][:k] += ga.sum(axis=0)
        np.matmul(ga, block.fc1.fused_weight()[:k, :k], out=gt)
        gt *= h_in > 0
        gh += gt
    return gh


class FusedDataLoss:
    """Fused forward/backward for ``sum_col CE(logits_col, codes_col)``."""

    def __init__(self, model: ResMADE):
        self.model = model
        self.pool = BufferPool()

    def loss(self, batch_codes: np.ndarray,
             wildcard: np.ndarray | None = None) -> Tensor:
        """Scalar data-NLL tensor whose backward runs the fused pass."""
        model = self.model
        codes = np.asarray(batch_codes)
        n = len(codes)
        pool = self.pool
        x = model.encode_tuples(codes, wildcard=wildcard)
        h, acts = trunk_forward(model, x, pool, "d")
        out_l = model.output_layer
        hidden = out_l.in_features
        fr = pool.get("d.fr", n, hidden)
        np.maximum(h, 0.0, out=fr)
        logits = pool.get("d.logits", n, out_l.out_features)
        np.matmul(fr, out_l.fused_weight_t(), out=logits)
        logits += out_l.bias.data

        # Per-column stable softmax cross-entropy; ``logits`` is turned
        # into dL/dlogits in place ((softmax - onehot) / n per column).
        ridx = np.arange(n)
        total = 0.0
        for c in range(model.num_cols):
            lg = logits[:, model.logit_slices[c]]
            lg -= lg.max(axis=1, keepdims=True)
            target_shift = lg[ridx, codes[:, c]].astype(np.float64)
            np.exp(lg, out=lg)
            z = lg.sum(axis=1)
            total += (np.log(z) - target_shift).sum() / n
            lg /= z[:, None]
            lg[ridx, codes[:, c]] -= 1.0
        logits *= np.float32(1.0 / n)

        state = (x, acts, h, fr, logits, n)
        out = Tensor(np.asarray(total, dtype=np.float32),
                     requires_grad=True)
        out._backward = lambda: self._backward(state, float(out.grad))
        return out

    def _backward(self, state: tuple, scale: float) -> None:
        x, acts, h, fr, grad_logits, n = state
        model = self.model
        pool = self.pool
        out_l = model.output_layer
        in_l = model.input_layer
        hidden = out_l.in_features
        if scale != 1.0:
            grad_logits *= np.float32(scale)

        gw_out = pool.get("d.gw_out", out_l.out_features, hidden)
        np.matmul(grad_logits.T, fr, out=gw_out)
        gw_out *= out_l.mask
        out_l.weight._accumulate(gw_out)
        out_l.bias._accumulate(grad_logits.sum(axis=0))

        gh = pool.get("d.gh", n, hidden)
        np.matmul(grad_logits, out_l.fused_weight(), out=gh)
        gh *= fr > 0
        grads = TrunkGrads(model, pool, "d.tg")
        gh0 = trunk_backward(model, gh, acts, grads, pool, "d.tb")
        grads.flush()

        gw_in = pool.get("d.gw_in", in_l.out_features, in_l.in_features)
        np.matmul(gh0.T, x, out=gw_in)
        gw_in *= in_l.mask
        in_l.weight._accumulate(gw_in)
        in_l.bias._accumulate(gh0.sum(axis=0))
