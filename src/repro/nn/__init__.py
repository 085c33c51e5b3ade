"""From-scratch neural-network substrate (autodiff, layers, MADE, optim).

This package replaces PyTorch for the reproduction: reverse-mode autodiff
over numpy (:mod:`repro.nn.tensor`), a module system (:mod:`repro.nn.modules`),
masked autoregressive networks (:mod:`repro.nn.made`), per-column encoders
(:mod:`repro.nn.encoders`) and optimisers (:mod:`repro.nn.optim`).
"""

from .tensor import Tensor, add_constant, concatenate, ones, stack, tensor, where, zeros
from .functional import hard_sample_np, mse_loss, sample_gumbel
from .modules import (Dropout, Embedding, LayerNorm, Linear, MaskedLinear,
                      Module, ReLU, Sequential)
from .made import ResMADE
from .optim import SGD, Adam

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "concatenate", "stack", "where",
    "add_constant",
    "hard_sample_np", "sample_gumbel", "mse_loss",
    "Module", "Linear", "MaskedLinear", "ReLU", "Sequential", "Embedding",
    "LayerNorm", "Dropout",
    "ResMADE",
    "SGD", "Adam",
]
