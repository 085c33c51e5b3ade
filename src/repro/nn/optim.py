"""The Adam optimiser over :class:`~repro.nn.modules.Parameter` arrays.

Adam updates parameters **in place** through preallocated per-parameter
scratch buffers — a training step allocates no fresh arrays — and
exposes ``state_dict``/``load_state_dict`` so callers (e.g. ``UAE.fit``
early stopping) can snapshot and restore moments alongside model
weights.

Gradient clipping (Adam's ``grad_clip``) scales by the **global** L2 norm
across every parameter, the standard ``clip_grad_norm_`` semantics: all
gradients shrink by one common factor, preserving the relative step sizes
between layers.  (An earlier revision clipped each parameter's gradient
by its own norm, which silently rebalanced effective learning rates
between layers whenever any single tensor exceeded the threshold.)
"""

from __future__ import annotations

import numpy as np

from .modules import Parameter


class Optimizer:
    """Base optimizer: holds parameters and clears gradients."""

    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> dict:  # pragma: no cover - overridden
        return {}

    def load_state_dict(self, state: dict) -> None:  # pragma: no cover
        pass

    def _global_grad_norm(self) -> float:
        """L2 norm of the concatenation of every parameter gradient."""
        total = 0.0
        for p in self.params:
            g = p.grad
            if g is not None:
                flat = g.ravel()
                total += float(np.dot(flat, flat))
        return float(np.sqrt(total))

    def _clip_gradients(self, max_norm: float) -> None:
        """Scale all gradients in place so their global norm <= max_norm."""
        norm = self._global_grad_norm()
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 grad_clip: float | None = None):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        if self.grad_clip is not None:
            self._clip_gradients(self.grad_clip)
        b1, b2 = self.beta1, self.beta2
        # Fold the bias corrections into scalars: the update
        # ``lr * (m / bias1) / (sqrt(v / bias2) + eps)`` equals
        # ``(lr / bias1) * m / (sqrt(v) / sqrt(bias2) + eps)``.
        step_scale = self.lr / (1.0 - b1 ** self._t)
        denom_scale = 1.0 / np.sqrt(1.0 - b2 ** self._t)
        for p, m, v, s in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                # Fold decay into the gradient buffer itself (it is
                # cleared on the next ``zero_grad`` anyway) so one scratch
                # array suffices for the whole update.
                np.multiply(p.data, self.weight_decay, out=s)
                grad += s
            np.multiply(grad, 1.0 - b1, out=s)
            m *= b1
            m += s
            np.multiply(grad, grad, out=s)
            s *= 1.0 - b2
            v *= b2
            v += s
            np.sqrt(v, out=s)
            s *= denom_scale
            s += self.eps
            np.divide(m, s, out=s)
            s *= step_scale
            p.data -= s
            p.bump_version()

    def state_dict(self) -> dict:
        """Snapshot of moments + step counter (copies, detached)."""
        return {"t": self._t,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` in place."""
        self._t = int(state["t"])
        for m, src in zip(self._m, state["m"]):
            np.copyto(m, src)
        for v, src in zip(self._v, state["v"]):
            np.copyto(v, src)
