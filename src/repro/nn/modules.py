"""Neural-network module system: parameters and layers.

A tiny analogue of ``torch.nn`` holding what ResMADE and MSCN ship.
A :class:`Parameter` is a float32 array with a gradient buffer and a
version counter; ``Module.parameters()`` walks the tree so optimisers
can update everything.  Layers own parameters but no forward: every
shipped forward and backward is written by hand over the arrays
(:mod:`repro.nn.trunk`, :mod:`repro.train`, the MSCN estimators).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import init


class Parameter:
    """A trainable float32 array, its gradient and a version counter."""

    __slots__ = ("data", "grad", "version", "_grad_buf")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        # Monotonic counter bumped whenever ``data`` is mutated in place
        # (optimizer steps, checkpoint loads).  Caches derived from the
        # parameter value — fused masked weights, compiled inference
        # models — compare versions instead of array contents.  Code that
        # mutates ``data`` directly must call :meth:`bump_version`.
        self.version = 0
        # Pooled gradient storage: ``zero_grad`` drops ``grad`` but keeps
        # this buffer, so a parameter reuses one array across training
        # steps instead of allocating a fresh gradient every step.
        # Consequence: a reference to ``p.grad`` taken before
        # ``zero_grad`` is overwritten by the next step — copy it if it
        # must outlive the step.
        self._grad_buf: np.ndarray | None = None

    def bump_version(self) -> None:
        """Mark ``data`` as mutated so value-derived caches invalidate."""
        self.version += 1

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one gradient contribution (the first lands in the pool)."""
        if self.grad is None:
            buf = self._grad_buf
            if buf is None or buf.shape != self.data.shape \
                    or buf.dtype != self.data.dtype:
                buf = self._grad_buf = np.empty_like(self.data)
            np.copyto(buf, grad)
            self.grad = buf
        else:
            self.grad += grad


class Module:
    """Base class; subclasses register parameters/submodules as attributes."""

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self._iter_named_params(""):
            yield param

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def size_bytes(self) -> int:
        """Model footprint: 4 bytes per float32 parameter."""
        return 4 * self.num_parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name → array mapping, for checkpoint save/restore."""
        return {key: param.data.copy()
                for key, param in self._iter_named_params("")}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        named = list(self._iter_named_params(""))
        missing = {key for key, _ in named} - set(state)
        if missing:
            raise KeyError(f"state dict missing keys: {sorted(missing)}")
        for key, param in named:
            param.data = np.array(state[key], dtype=np.float32)
            param.bump_version()

    def _iter_named_params(self, prefix: str):
        """``(dotted name, parameter)`` in attribute order, submodules
        (and lists of them) recursively."""
        for name, value in self.__dict__.items():
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value._iter_named_params(path + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._iter_named_params(f"{path}.{i}.")


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None


class MaskedLinear(Linear):
    """Linear layer whose weight is elementwise-multiplied by a fixed mask.

    The mask enforces MADE's autoregressive property: entry ``[o, i]`` is 1
    iff output unit ``o`` may depend on input unit ``i``.

    The fused product ``weight * mask`` is cached (together with its
    transpose) and invalidated through the weight parameter's version
    counter, which optimizer steps and checkpoint loads bump — so no
    forward pays the elementwise multiply on every call.  This cache is
    the single source of fused weights: the ResMADE trunk kernel
    (:mod:`repro.nn.trunk`, which inference, both fused training losses,
    the REINFORCE ablation and the NLL evaluation run) and the inference
    snapshot's heads and input deltas (:class:`repro.infer.CompiledModel`).
    A gradient reaches ``weight`` only through the mask, so the kernels
    multiply their weight gradients by it.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__(in_features, out_features, rng, bias)
        self.mask = np.ones((out_features, in_features), dtype=np.float32)
        self._fused: np.ndarray | None = None
        self._fused_t: np.ndarray | None = None
        self._fused_version = -1

    def set_mask(self, mask: np.ndarray) -> None:
        if mask.shape != (self.out_features, self.in_features):
            raise ValueError(
                f"mask shape {mask.shape} != "
                f"({self.out_features}, {self.in_features})")
        self.mask = mask.astype(np.float32)
        self._fused = None
        self._fused_version = -1

    def _refresh_fused(self) -> None:
        if self._fused is None or self._fused_version != self.weight.version:
            self._fused = np.ascontiguousarray(self.weight.data * self.mask)
            self._fused_t = np.ascontiguousarray(self._fused.T)
            self._fused_version = self.weight.version

    def fused_weight(self) -> np.ndarray:
        """``weight.data * mask`` — ``[out, in]``, contiguous, cached."""
        self._refresh_fused()
        return self._fused

    def fused_weight_t(self) -> np.ndarray:
        """Transposed fused weight — ``[in, out]``, contiguous, cached."""
        self._refresh_fused()
        return self._fused_t


class Embedding(Module):
    """Lookup table mapping integer codes to dense vectors.

    Used for columns with large numbers of distinct values (paper
    Section 4.6, "Handling Columns with Large NDVs").
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), 0.1, rng))
