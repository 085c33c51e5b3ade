"""The paper's primary contribution: UAE and its ablation samplers."""

from .progressive import UniformSampler
from .dps import ScoreFunctionSampler
from .uae import UAE, UAEConfig
from .ensemble import PartitionedUAE

__all__ = [
    "UniformSampler", "ScoreFunctionSampler",
    "UAE", "UAEConfig", "PartitionedUAE",
]
