"""Per-column input encoders for autoregressive models.

The paper (Section 4.2) encodes each attribute's dictionary code into a
dense input vector.  Two strategies are implemented:

* :class:`BinaryEncoder` — the paper's default: a ``ceil(log2 |A_i|)``-bit
  binary code, far denser than one-hot.
* :class:`EmbeddingEncoder` — learnable embeddings for columns with large
  numbers of distinct values (Section 4.6).
* :class:`OneHotEncoder` — kept for the encoding ablation.

Every encoder exposes ``encode_hard(codes, wildcard)``: integer codes to
value slots, with a wildcard indicator slot appended (Naru-style wildcard
skipping).  Every encoder is linear in a soft one-hot sample ``y`` over
the domain (one-hot copies ``y``, binary is ``y @ code_matrix``,
embedding is ``y @ table``); the fused DPS kernel
(:mod:`repro.train.dps_fused`) writes those soft encodings and their
gradients by hand.
"""

from __future__ import annotations

import numpy as np

from .modules import Embedding, Module


def binary_code_matrix(domain_size: int) -> np.ndarray:
    """``[domain_size, bits]`` matrix whose row ``v`` is ``v`` in binary."""
    bits = max(1, int(np.ceil(np.log2(max(domain_size, 2)))))
    codes = np.arange(domain_size, dtype=np.int64)
    matrix = ((codes[:, None] >> np.arange(bits)[None, :]) & 1).astype(np.float32)
    return matrix


class ColumnEncoder(Module):
    """Base: encodes one column's codes into ``width`` input slots.

    The final slot is always the wildcard indicator; value slots are zeroed
    when the wildcard is active so an unqueried column carries no value
    information.
    """

    domain_size: int
    value_width: int

    @property
    def width(self) -> int:
        return self.value_width + 1  # +1 wildcard slot

    def encode_hard(self, codes: np.ndarray,
                    wildcard: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError


class BinaryEncoder(ColumnEncoder):
    def __init__(self, domain_size: int):
        self.domain_size = domain_size
        self.code_matrix = binary_code_matrix(domain_size)
        self.value_width = self.code_matrix.shape[1]

    def encode_hard(self, codes: np.ndarray,
                    wildcard: np.ndarray | None = None) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        out = np.empty((len(codes), self.width), dtype=np.float32)
        out[:, :self.value_width] = self.code_matrix[codes]
        if wildcard is None:
            out[:, -1] = 0.0
        else:
            wc = np.asarray(wildcard, dtype=bool)
            out[:, -1] = wc
            out[wc, :self.value_width] = 0.0
        return out


class OneHotEncoder(ColumnEncoder):
    def __init__(self, domain_size: int):
        self.domain_size = domain_size
        self.value_width = domain_size

    def encode_hard(self, codes: np.ndarray,
                    wildcard: np.ndarray | None = None) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        out = np.zeros((len(codes), self.width), dtype=np.float32)
        out[np.arange(len(codes)), codes] = 1.0
        if wildcard is not None:
            wc = np.asarray(wildcard, dtype=bool)
            out[wc, :self.value_width] = 0.0
            out[:, -1] = wc
        return out


class EmbeddingEncoder(ColumnEncoder):
    """Learnable embedding lookup (for large-NDV columns, Section 4.6)."""

    def __init__(self, domain_size: int, dim: int, rng: np.random.Generator):
        self.domain_size = domain_size
        self.value_width = dim
        self.table = Embedding(domain_size, dim, rng)

    def encode_hard(self, codes: np.ndarray,
                    wildcard: np.ndarray | None = None) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        values = self.table.weight.data[codes]
        out = np.empty((len(codes), self.width), dtype=np.float32)
        out[:, :self.value_width] = values
        if wildcard is None:
            out[:, -1] = 0.0
        else:
            wc = np.asarray(wildcard, dtype=bool)
            out[:, -1] = wc
            out[wc, :self.value_width] = 0.0
        return out


def make_encoder(domain_size: int, rng: np.random.Generator,
                 strategy: str = "binary", embedding_threshold: int = 8192,
                 embedding_dim: int = 32) -> ColumnEncoder:
    """Choose an encoder for a column.

    ``binary`` below ``embedding_threshold`` distinct values, learnable
    embeddings above, matching the paper's treatment of large-NDV columns.
    """
    if strategy == "onehot":
        return OneHotEncoder(domain_size)
    if strategy == "embedding" or (
            strategy == "binary" and domain_size > embedding_threshold):
        return EmbeddingEncoder(domain_size, embedding_dim, rng)
    if strategy == "binary":
        return BinaryEncoder(domain_size)
    raise ValueError(f"unknown encoding strategy: {strategy!r}")
