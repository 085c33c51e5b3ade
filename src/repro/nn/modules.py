"""Neural-network module system: parameters, layers, containers.

A tiny analogue of ``torch.nn`` sufficient for ResMADE and MSCN.  Modules own
:class:`~repro.nn.tensor.Tensor` parameters with ``requires_grad=True``;
``Module.parameters()`` walks the tree so optimisers can update everything.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import init
from .tensor import Tensor


class Module:
    """Base class; subclasses register parameters/submodules as attributes."""

    def parameters(self) -> Iterator[Tensor]:
        seen: set[int] = set()
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Tensor) and item.requires_grad:
                        if id(item) not in seen:
                            seen.add(id(item))
                            yield item

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def size_bytes(self) -> int:
        """Model footprint: 4 bytes per float32 parameter."""
        return 4 * self.num_parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name → array mapping, for checkpoint save/restore."""
        out: dict[str, np.ndarray] = {}
        self._collect_state("", out)
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = {}
        self._collect_state("", own)
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing keys: {sorted(missing)}")
        for key, tensor_ref in self._iter_named_params(""):
            tensor_ref.data = np.array(state[key], dtype=np.float32)
            tensor_ref.bump_version()

    def _collect_state(self, prefix: str, out: dict[str, np.ndarray]) -> None:
        for key, tensor_ref in self._iter_named_params(prefix):
            out[key] = tensor_ref.data.copy()

    def _iter_named_params(self, prefix: str):
        for name, value in self.__dict__.items():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield path, value
            elif isinstance(value, Module):
                yield from value._iter_named_params(path + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._iter_named_params(f"{path}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{path}.{i}", item

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.kaiming_uniform((out_features, in_features), in_features, rng),
            requires_grad=True)
        self.bias = (Tensor(init.zeros((out_features,)), requires_grad=True)
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class MaskedLinear(Module):
    """Linear layer whose weight is elementwise-multiplied by a fixed mask.

    The mask enforces MADE's autoregressive property: entry ``[o, i]`` is 1
    iff output unit ``o`` may depend on input unit ``i``.

    The fused product ``weight * mask`` is cached (together with its
    transpose) and invalidated through the weight tensor's version counter,
    which optimizer steps and checkpoint loads bump — so no forward pays
    the elementwise multiply on every call.  This cache is the single
    source of fused weights: the ResMADE trunk kernel
    (:mod:`repro.nn.trunk`, which inference, both fused training losses
    and the NLL evaluation run), the inference snapshot's heads and
    input deltas (:class:`repro.infer.CompiledModel`), and the autograd
    forward below (the REINFORCE ablation and the tests' oracle).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.kaiming_uniform((out_features, in_features), in_features, rng),
            requires_grad=True)
        self.bias = (Tensor(init.zeros((out_features,)), requires_grad=True)
                     if bias else None)
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

    def forward(self, x: Tensor) -> Tensor:
        return self.forward_rows(x, slice(None))

    def forward_rows(self, x: Tensor, rows: slice) -> Tensor:
        """Affine map restricted to output units ``rows``.

        Forward uses the cached fused weight; backward applies the mask to
        the weight gradient directly — identical math to multiplying
        ``weight * mask`` inside the graph, without the per-call product.
        The fast closure assumes the usual ``[batch, features]`` input;
        higher-rank inputs take the explicit graph (general broadcasting
        gradients).
        """
        if x.ndim != 2:
            masked = (self.weight * Tensor(self.mask))[rows]
            out = x @ masked.T
            if self.bias is not None:
                out = out + self.bias[rows]
            return out
        fused = self.fused_weight()[rows]
        data = x.data @ fused.T
        bias = self.bias
        if bias is not None:
            data = data + bias.data[rows]
        layer, weight = self, self.weight
        parents = (x, weight) if bias is None else (x, weight, bias)

        def make(out: Tensor):
            def backward():
                if x.requires_grad:
                    x._accumulate(out.grad @ fused)
                if weight.requires_grad:
                    rows_grad = (out.grad.T @ x.data) * layer.mask[rows]
                    if rows == slice(None):
                        grad_w = rows_grad
                    else:
                        grad_w = np.zeros_like(weight.data)
                        grad_w[rows] = rows_grad
                    weight._accumulate(grad_w)
                if bias is not None and bias.requires_grad:
                    rows_grad = out.grad.sum(axis=0)
                    if rows == slice(None):
                        grad_b = rows_grad
                    else:
                        grad_b = np.zeros_like(bias.data)
                        grad_b[rows] = rows_grad
                    bias._accumulate(grad_b)
            return backward

        return Tensor._make(data, parents, make)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Embedding(Module):
    """Lookup table mapping integer codes to dense vectors.

    Used for columns with large numbers of distinct values (paper
    Section 4.6, "Handling Columns with Large NDVs").
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Tensor(init.normal((num_embeddings, dim), 0.1, rng),
                             requires_grad=True)

    def forward(self, codes: np.ndarray) -> Tensor:
        return self.weight.gather_rows(np.asarray(codes, dtype=np.int64))

    def soft_lookup(self, weights: Tensor) -> Tensor:
        """Differentiable lookup with a soft one-hot ``weights`` matrix.

        ``weights``: ``[batch, num_embeddings]`` — e.g. a Gumbel-Softmax
        sample — returns ``weights @ table``.
        """
        return weights @ self.weight


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; active only when ``training`` is True."""

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng
        self.training = True

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = (self.rng.random(x.shape) >= self.p).astype(np.float32)
        return x * Tensor(keep / (1.0 - self.p))
