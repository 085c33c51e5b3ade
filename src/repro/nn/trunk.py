"""The ResMADE trunk kernel: the one forward (and backward) of the network.

Every shipped path that runs a :class:`~repro.nn.made.ResMADE` calls
:func:`trunk_forward` — the inference engine's per-position logits
(:meth:`repro.infer.CompiledModel.position_logits`), the fused data loss
and the fused DPS kernel (:mod:`repro.train`), ``UAE.loglikelihood``
and the uniform sampler.  The graph forward and the numpy forward it
replaced are the tests' oracle (``tests/reference/made.py``).

The kernel is a handful of numpy GEMMs over the masked layers' cached
fused weights (``MaskedLinear.fused_weight_t()``), with two properties
the callers rely on:

* **Hidden-unit prefixes.**  Hidden degrees are sorted (see
  :func:`repro.nn.made.hidden_degrees`), so every unit the logits of
  sampling position ``p`` can read lives in the prefix
  ``[0, hidden_prefix[p])``, and prefix units take no input from beyond
  the prefix.  ``width`` restricts every GEMM to such a prefix.
* **Stored or scratch activations.**  With a
  :class:`~repro.nn.buffers.BufferPool`, every activation
  :func:`trunk_backward` needs lives in the pool under ``tag``-prefixed
  keys.  Without one, each call allocates its own scratch and keeps
  nothing, so callers that share one model (the engine and
  ``UAE.sample_tuples`` share one ``CompiledModel``) never share
  buffers.  Both modes run the same op sequence and agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .buffers import BufferPool
from .made import ResMADE


def trunk_forward(model: ResMADE, x: np.ndarray | None = None,
                  pre: np.ndarray | None = None, width: int | None = None,
                  pool: BufferPool | None = None, tag: str = "t"
                  ) -> tuple[np.ndarray, list[tuple] | None]:
    """Input layer and residual blocks on the first ``width`` hidden units.

    Starts from the encoded input ``x`` (``[n, input_width]``) or from
    input-layer pre-activations ``pre`` (``[n, >= width]``, not
    modified).  Returns the pre-ReLU final hidden state ``[n, width]``
    and, with a ``pool``, the per-block ``(relu(h_in), relu(z1))``
    activations :func:`trunk_backward` needs (``None`` without one).
    """
    in_l = model.input_layer
    k = in_l.out_features if width is None else int(width)
    n = len(x if pre is None else pre)
    if pool is None:
        h = np.empty((n, k), dtype=np.float32)
        # relu(h_in) and the fc2 output take turns in one array.
        s1, s2 = np.empty_like(h), np.empty_like(h)
    else:
        h = pool.get(f"{tag}.h", n, k)
        t = pool.get(f"{tag}.t", n, k)          # shared by the blocks
    if pre is None:
        np.matmul(x, in_l.fused_weight_t()[:, :k], out=h)
        h += in_l.bias.data[:k]
    else:
        np.copyto(h, pre[:, :k])
    acts: list[tuple] = []
    for bi, block in enumerate(model.blocks):
        if pool is None:
            a1, a2, t = s1, s2, s1
        else:
            a1 = pool.get(f"{tag}.a1.{bi}", n, k)
            a2 = pool.get(f"{tag}.a2.{bi}", n, k)
        # h += fc2(relu(fc1(relu(h)))), on the prefix.
        np.maximum(h, 0.0, out=a1)
        np.matmul(a1, block.fc1.fused_weight_t()[:k, :k], out=a2)
        a2 += block.fc1.bias.data[:k]
        np.maximum(a2, 0.0, out=a2)
        np.matmul(a2, block.fc2.fused_weight_t()[:k, :k], out=t)
        t += block.fc2.bias.data[:k]
        h += t
        acts.append((a1, a2))
    return h, (acts if pool is not None else None)


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
        a1, a2 = acts[bi]
        # hn = h_in + (a2 @ W2 + b2), a2 = relu(a1 @ W1 + b1),
        # a1 = relu(h_in); ``a > 0`` is the ReLU's derivative.
        np.matmul(gh.T, a2, out=scratch)
        grads.gw2[bi][:k, :k] += scratch
        grads.gb2[bi][:k] += gh.sum(axis=0)
        np.matmul(gh, block.fc2.fused_weight()[:k, :k], out=ga)
        ga *= a2 > 0
        np.matmul(ga.T, a1, out=scratch)
        grads.gw1[bi][:k, :k] += scratch
        grads.gb1[bi][:k] += ga.sum(axis=0)
        np.matmul(ga, block.fc1.fused_weight()[:k, :k], out=gt)
        gt *= a1 > 0
        gh += gt
    return gh
