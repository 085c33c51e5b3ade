"""Weight initialisers for the nn substrate."""

from __future__ import annotations

import numpy as np


def kaiming_uniform(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init, the PyTorch default for Linear layers."""
    bound = np.sqrt(1.0 / max(fan_in, 1)) * np.sqrt(3.0)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple) -> np.ndarray:
    """All-zero float32 parameter array (bias init)."""
    return np.zeros(shape, dtype=np.float32)


def normal(shape: tuple, std: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian init with the given standard deviation."""
    return (rng.standard_normal(shape) * std).astype(np.float32)
