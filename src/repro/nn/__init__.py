"""From-scratch neural-network substrate (parameters, layers, MADE, optim).

This package replaces PyTorch for the reproduction: array parameters and
layers (:mod:`repro.nn.modules`), masked autoregressive networks
(:mod:`repro.nn.made`) and their shared forward kernel
(:mod:`repro.nn.trunk`), per-column encoders (:mod:`repro.nn.encoders`)
and the Adam optimiser (:mod:`repro.nn.optim`).  There is no autograd
graph: every forward and backward is written by hand over numpy arrays.
The graph the hand-written gradients are checked against lives in
``tests/reference/``.
"""

from .functional import hard_sample_np, sample_gumbel
from .modules import Embedding, Linear, MaskedLinear, Module, Parameter
from .made import ResMADE
from .optim import Adam

__all__ = [
    "hard_sample_np", "sample_gumbel",
    "Parameter", "Module", "Linear", "MaskedLinear", "Embedding",
    "ResMADE",
    "Adam",
]
