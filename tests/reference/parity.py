"""Gradient-parity checks: fused kernels vs. the reference autograd path.

The training engine's contract is *numerical equivalence*: on the same
weights, the same batch, and the same random draws, the fused data-loss
backward and the fused DPS backward must reproduce the reference graph's
parameter gradients to float32 rounding.  These helpers drive that
comparison for ``tests/test_train_engine.py`` and
``tests/test_backend_matrix.py``.  Moved here unchanged from
``repro.train.parity``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def collect_grads(module) -> dict[str, np.ndarray]:
    """Copy every parameter gradient (gradient buffers are pooled, so a
    later backward would overwrite live references)."""
    out: dict[str, np.ndarray] = {}
    for name, param in module._iter_named_params(""):
        out[name] = (np.zeros_like(param.data) if param.grad is None
                     else param.grad.copy())
    return out


def max_grad_diff(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> float:
    """Largest absolute elementwise gradient difference across parameters."""
    worst = 0.0
    for name in a:
        worst = max(worst, float(np.abs(a[name] - b[name]).max()))
    return worst


def gradient_parity(make_uae: Callable[[str], "object"],
                    batch_codes: np.ndarray,
                    constraints: list[list],
                    true_sels: np.ndarray,
                    tolerance: float = 1e-4) -> dict:
    """Compare data-loss and query-loss gradients across backends.

    ``make_uae(backend)`` must build identically-seeded estimators whose
    only difference is the class — :class:`reference.uae.ReferenceUAE`
    for ``"legacy"``, ``UAE`` for ``"engine"`` — both then consume their RNG
    streams (wildcard dropout, Gumbel noise) draw for draw.  Returns the
    max abs gradient diffs, the loss-value diffs, and a ``passed`` flag
    against ``tolerance``.
    """
    grads: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    losses: dict[tuple[str, str], float] = {}
    for backend in ("legacy", "engine"):
        uae = make_uae(backend)
        loss = uae.data_loss(np.asarray(batch_codes))
        uae.model.zero_grad()
        loss.backward()
        grads[("data", backend)] = collect_grads(uae.model)
        losses[("data", backend)] = loss.item()

        qloss = uae.query_loss(constraints, np.asarray(true_sels))
        uae.model.zero_grad()
        qloss.backward()
        grads[("query", backend)] = collect_grads(uae.model)
        losses[("query", backend)] = qloss.item()

    data_diff = max_grad_diff(grads[("data", "legacy")],
                              grads[("data", "engine")])
    query_diff = max_grad_diff(grads[("query", "legacy")],
                               grads[("query", "engine")])
    return {
        "tolerance": tolerance,
        "data_max_abs_grad_diff": data_diff,
        "query_max_abs_grad_diff": query_diff,
        "data_loss_abs_diff": abs(losses[("data", "legacy")]
                                  - losses[("data", "engine")]),
        "query_loss_abs_diff": abs(losses[("query", "legacy")]
                                   - losses[("query", "engine")]),
        "passed": bool(data_diff < tolerance and query_diff < tolerance),
    }
