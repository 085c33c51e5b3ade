"""MADE and ResMADE: masked autoregressive networks over table columns.

The model factorizes ``P(a_1, ..., a_n) = prod_i P(a_i | a_<i)`` (paper
Eq. 1) with a left-to-right column order.  Masks enforce that the logits for
column ``i`` depend only on the *input slots* of columns ``< i``:

* every input slot of column ``c`` carries degree ``c``;
* hidden units carry degrees cycling over ``0 .. n-2``;
* a connection ``u -> v`` is allowed iff ``deg(v) >= deg(u)`` between
  input/hidden layers, and an output unit for column ``c`` connects to
  hidden units with degree ``< c``.

Column 0's logits therefore depend on nothing but the bias — exactly the
unconditional marginal ``P(A_1)``.

:class:`ResMADE` (Nash & Durkan 2019, the architecture the paper uses) wraps
the masked layers in residual blocks.
"""

from __future__ import annotations

import numpy as np

from .encoders import BinaryEncoder, ColumnEncoder, make_encoder
from .modules import MaskedLinear, Module


def input_degrees(widths: list[int]) -> np.ndarray:
    """Degree (owning column index) of every input slot."""
    return np.concatenate([np.full(w, c, dtype=np.int64)
                           for c, w in enumerate(widths)])


def hidden_degrees(num_units: int, num_cols: int) -> np.ndarray:
    """Hidden degrees over ``0..num_cols-2``: even coverage, **sorted**.

    The multiset of degrees is the same balanced assignment MADE uses
    (each degree appears ``num_units / (num_cols - 1)`` times, up to
    rounding), but laid out in ascending order instead of cycling.  Any
    assignment with these counts yields an equivalent architecture — the
    masks only compare degrees — and the sorted layout makes the units a
    position may depend on a contiguous *prefix*: everything relevant to
    sampling position ``p`` lives in hidden units ``[0, k)`` with
    ``k = count(degree < p)``.  The trunk kernel (:mod:`repro.nn.trunk`)
    exploits this to shrink every per-position GEMM to that prefix.
    """
    top = max(num_cols - 1, 1)
    return np.sort(np.arange(num_units, dtype=np.int64) % top)


def output_degrees(domain_sizes: list[int]) -> np.ndarray:
    """Degree of every output logit: the column it predicts."""
    return np.concatenate([np.full(k, c, dtype=np.int64)
                           for c, k in enumerate(domain_sizes)])


def mask_between(in_deg: np.ndarray, out_deg: np.ndarray,
                 is_output: bool = False) -> np.ndarray:
    """Connectivity mask ``[len(out_deg), len(in_deg)]``.

    Hidden/input rule: ``out >= in``; output rule: ``out > in`` (an output
    for column c may only see strictly earlier columns).
    """
    if is_output:
        allowed = out_deg[:, None] > in_deg[None, :]
    else:
        allowed = out_deg[:, None] >= in_deg[None, :]
    return allowed.astype(np.float32)


class ResidualBlock(Module):
    """ReLU -> MaskedLinear -> ReLU -> MaskedLinear with a skip connection
    (the trunk kernel, :mod:`repro.nn.trunk`, runs it)."""

    def __init__(self, dim: int, degrees: np.ndarray, rng: np.random.Generator):
        self.fc1 = MaskedLinear(dim, dim, rng)
        self.fc2 = MaskedLinear(dim, dim, rng)
        mask = mask_between(degrees, degrees)
        self.fc1.set_mask(mask)
        self.fc2.set_mask(mask)


class ResMADE(Module):
    """Residual MADE over a list of column domain sizes.

    Parameters
    ----------
    domain_sizes:
        Distinct-value counts per (model) column, in autoregressive order.
    hidden:
        Width of the hidden layers (paper: 128).
    num_blocks:
        Number of residual blocks (paper: 2 hidden layers ~ 1 block + io).
    encoding:
        ``binary`` (paper default), ``onehot`` or ``embedding``.
    """

    def __init__(self, domain_sizes: list[int], hidden: int = 128,
                 num_blocks: int = 2, rng: np.random.Generator | None = None,
                 encoding: str = "binary", embedding_threshold: int = 8192,
                 embedding_dim: int = 32, order: list[int] | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        if not domain_sizes:
            raise ValueError("need at least one column")
        self.domain_sizes = list(int(d) for d in domain_sizes)
        self.num_cols = len(domain_sizes)
        # Autoregressive order: ``order[p]`` is the column sampled at
        # position p.  The paper uses left-to-right (natural); Naru/MADE
        # explore alternatives, exposed here for the ordering ablation.
        if order is None:
            order = list(range(self.num_cols))
        if sorted(order) != list(range(self.num_cols)):
            raise ValueError(f"order must be a permutation of columns, "
                             f"got {order}")
        self.order = list(order)
        self.position = {col: pos for pos, col in enumerate(self.order)}
        self.encoders: list[ColumnEncoder] = [
            make_encoder(d, rng, strategy=encoding,
                         embedding_threshold=embedding_threshold,
                         embedding_dim=embedding_dim)
            for d in self.domain_sizes]
        widths = [e.width for e in self.encoders]
        self.input_width = int(sum(widths))
        self.total_logits = int(sum(self.domain_sizes))

        pos_of = [self.position[c] for c in range(self.num_cols)]
        in_deg = np.concatenate([np.full(w, pos_of[c], dtype=np.int64)
                                 for c, w in enumerate(widths)])
        hid_deg = hidden_degrees(hidden, self.num_cols)
        out_deg = np.concatenate([np.full(k, pos_of[c], dtype=np.int64)
                                  for c, k in enumerate(self.domain_sizes)])

        self.input_layer = MaskedLinear(self.input_width, hidden, rng)
        self.input_layer.set_mask(mask_between(in_deg, hid_deg))
        self.blocks = [ResidualBlock(hidden, hid_deg, rng)
                       for _ in range(num_blocks)]
        self.output_layer = MaskedLinear(hidden, self.total_logits, rng)
        self.output_layer.set_mask(mask_between(hid_deg, out_deg, is_output=True))
        # ``hidden_prefix[p]``: hidden units with degree < p — because
        # degrees are sorted, the logits of the column at position ``p``
        # depend exactly on hidden units ``[0, hidden_prefix[p])``, so
        # per-position forwards/backwards can run on that prefix alone.
        self.hidden_prefix = np.searchsorted(hid_deg, np.arange(self.num_cols),
                                             side="left").astype(np.int64)

        # Slices into the input vector / logit vector per column.
        self.input_slices: list[slice] = []
        start = 0
        for w in widths:
            self.input_slices.append(slice(start, start + w))
            start += w
        self.logit_slices: list[slice] = []
        start = 0
        for k in self.domain_sizes:
            self.logit_slices.append(slice(start, start + k))
            start += k

        # One-gather plan for :meth:`encode_tuples`: input slot ``j``
        # belongs to column ``slot_col[j]`` and, on a binary column's
        # value slot, holds bit ``slot_bit[j]`` of its code
        # (``slot_value[j]`` is 1 there and 0 on every other slot).
        self.slot_col = np.repeat(np.arange(self.num_cols), widths)
        self.slot_bit = np.zeros(self.input_width, dtype=np.int32)
        self.slot_value = np.zeros(self.input_width, dtype=np.int32)
        self.indicator_slots = np.array([sl.stop - 1
                                         for sl in self.input_slices])
        self.hard_cols = []     # one-hot / embedding: their encode_hard
        for c, enc in enumerate(self.encoders):
            sl = self.input_slices[c]
            if isinstance(enc, BinaryEncoder):
                self.slot_bit[sl.start:sl.stop - 1] = np.arange(
                    enc.value_width)
                self.slot_value[sl.start:sl.stop - 1] = 1
            else:
                self.hard_cols.append(c)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_tuples(self, codes: np.ndarray,
                      wildcard: np.ndarray | None = None) -> np.ndarray:
        """Hard-encode integer code rows ``[batch, num_cols]`` (numpy path).

        Every binary column is written by one gather over all input
        slots, ``(codes[:, slot_col] >> slot_bit) & slot_value``; a
        wildcard zeroes its column's value slots and sets its indicator
        slot.  One-hot and embedding columns then write their own
        ``encode_hard`` into their slots.  The result equals the
        concatenation of every encoder's ``encode_hard`` exactly (the
        binary slots are 0 or 1)."""
        codes = np.asarray(codes)
        bits = (codes[:, self.slot_col] >> self.slot_bit) & self.slot_value
        if wildcard is not None:
            wildcard = np.asarray(wildcard, dtype=bool)
            bits &= ~wildcard[:, self.slot_col]
            bits[:, self.indicator_slots] = wildcard
        # C order: the gather comes out column-major, and the input
        # GEMMs round differently on a column-major ``x``.
        out = bits.astype(np.float32, order="C")
        for c in self.hard_cols:
            wc = None if wildcard is None else wildcard[:, c]
            out[:, self.input_slices[c]] = self.encoders[c].encode_hard(
                codes[:, c], wc)
        return out
