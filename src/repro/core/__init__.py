"""The paper's primary contribution: UAE and its samplers."""

from .progressive import ProgressiveSampler, UniformSampler
from .dps import DifferentiableProgressiveSampler, ScoreFunctionSampler
from .uae import UAE, UAEConfig
from .ensemble import PartitionedUAE

__all__ = [
    "ProgressiveSampler", "UniformSampler",
    "DifferentiableProgressiveSampler", "ScoreFunctionSampler",
    "UAE", "UAEConfig", "PartitionedUAE",
]
