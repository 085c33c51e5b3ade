"""Compiled inference view of a :class:`~repro.nn.made.ResMADE` model.

:class:`CompiledModel` holds what only inference needs, as contiguous
float32 numpy arrays:

* per-column *output heads*: the slice of the fused output projection that
  produces one column's logits, pre-transposed to ``[hidden, domain]``,
  plus the matching bias slice — the reference loop
  (``tests/reference/progressive.py``) pays a full ``weight * mask``
  product over *all* logits just to read one column;
* the input layer as *pre-activation deltas*: ``wildcard_pre`` is the
  input layer's output ``[1, hidden]`` for the fully wildcarded row, and
  ``code_delta[col][v]`` is how that output moves when column ``col``
  goes from wildcard to code ``v``.  A sampled prefix's pre-activation
  is therefore ``wildcard_pre`` plus one table row per sampled column,
  whatever the encoder (binary, one-hot or embedding), so a sampling
  step never re-multiplies the whole encoded input by ``W_in``;
* each column's logits under full wildcarding, cached per version.

:meth:`CompiledModel.position_logits` turns pre-activations into the
logits of one sampling position: the shared trunk kernel
(:func:`repro.nn.trunk.trunk_forward`, the one the training kernels
run) on the hidden-unit prefix that position can read
(``ResMADE.hidden_prefix``), then that column's head.  The trunk reads
each layer's ``MaskedLinear.fused_weight_t()`` cache directly, so
training steps and inference never duplicate the ``weight * mask``
product for one parameter version.

Invalidation contract
---------------------
Compiled artifacts derive from parameter *values*, so the cache is keyed on
the tuple of parameter version counters (see ``Parameter.version``).
Optimizer steps (:class:`~repro.nn.optim.Adam`) and
``Module.load_state_dict`` bump versions; any code mutating
``Parameter.data`` in place must call ``bump_version()``.
``ensure_current()`` recompiles lazily on the next use after a bump —
training and estimation can therefore interleave freely (Section 4.5
ingestion) without stale reads.
"""

from __future__ import annotations

import numpy as np

from ..nn.made import ResMADE
from ..nn.trunk import trunk_forward

# ----------------------------------------------------------------------
# Flat snapshot buffer layout
# ----------------------------------------------------------------------
# A weight snapshot (``Module.state_dict`` — the exact arrays the fused
# ``weight * mask`` compilation derives from) can be laid out in one flat
# byte buffer: every array at a fixed, 64-byte-aligned offset, in sorted
# key order so the layout is a pure function of the model architecture.
# The scale-out serving tier (:mod:`repro.serve.snapshot`) publishes one
# such buffer per namespace into ``multiprocessing.shared_memory``;
# worker processes map it and rebuild their :class:`CompiledModel` from
# the decoded state (``load_state_dict`` bumps every parameter version,
# so ``ensure_current`` recompiles — the same invalidation contract that
# governs in-process training).  Because the layout depends only on the
# key/dtype/shape set, one segment is sized once and republished in
# place for every subsequent version of the same model.

STATE_ALIGN = 64    # per-array alignment inside the flat buffer


def _align(offset: int) -> int:
    return -(-offset // STATE_ALIGN) * STATE_ALIGN


def state_layout(state: dict[str, np.ndarray]) -> tuple[list[dict], int]:
    """Deterministic flat layout for a state dict.

    Returns ``(entries, total_bytes)`` where each entry is
    ``{"name", "dtype", "shape", "offset", "nbytes"}`` — JSON-safe, so a
    decoder needs only the entry table and the raw bytes.
    """
    entries: list[dict] = []
    offset = 0
    for name in sorted(state):
        # Not ascontiguousarray: that would promote 0-d arrays to (1,).
        arr = np.asarray(state[name])
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        offset = _align(offset)
        entries.append({"name": name, "dtype": arr.dtype.str,
                        "shape": list(arr.shape), "offset": offset,
                        "nbytes": int(arr.nbytes)})
        offset += arr.nbytes
    return entries, _align(offset)


def pack_state(state: dict[str, np.ndarray], buf,
               entries: list[dict]) -> None:
    """Copy every array's bytes into ``buf`` at its layout offset."""
    view = np.frombuffer(buf, dtype=np.uint8)
    for entry in entries:
        arr = np.asarray(state[entry["name"]])
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.dtype.str != entry["dtype"] \
                or list(arr.shape) != list(entry["shape"]):
            raise ValueError(
                f"array {entry['name']!r} does not match the buffer "
                f"layout ({arr.dtype.str}{arr.shape} != "
                f"{entry['dtype']}{tuple(entry['shape'])})")
        lo = entry["offset"]
        view[lo:lo + entry["nbytes"]] = arr.reshape(-1).view(np.uint8)


def unpack_state(buf, entries: list[dict],
                 copy: bool = True) -> dict[str, np.ndarray]:
    """Rebuild the state dict from a flat buffer.

    ``copy=False`` returns zero-copy views into ``buf`` — valid only
    while the buffer is mapped and not being republished; consumers that
    hold the arrays past that window (``load_state_dict`` copies anyway)
    should pass ``copy=True``.
    """
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"], dtype=np.int64))
        if count == 0:
            out[entry["name"]] = np.empty(entry["shape"], dtype=dtype)
            continue
        flat = np.frombuffer(buf, dtype=dtype, count=count,
                             offset=entry["offset"])
        arr = flat.reshape(entry["shape"])
        out[entry["name"]] = arr.copy() if copy else arr
    return out


class CompiledModel:
    """Read-optimised snapshot of a ResMADE for gradient-free inference."""

    def __init__(self, model: ResMADE):
        self.model = model
        # The module tree is fixed once built (training mutates
        # ``Parameter.data`` and bumps ``version`` in place), so flatten it
        # once: walking ``Module.parameters()`` per engine call costs ~5 %
        # of single-query CPU.
        self._params = list(model.parameters())
        self._version: tuple[int, ...] | None = None
        self.ensure_current()

    # ------------------------------------------------------------------
    # Compilation / invalidation
    # ------------------------------------------------------------------
    def _current_version(self) -> tuple[int, ...]:
        return tuple([p.version for p in self._params])

    def ensure_current(self) -> bool:
        """Recompile if any parameter changed; returns True when rebuilt."""
        version = self._current_version()
        if version == self._version:
            return False
        self._compile()
        self._version = version
        return True

    def _compile(self) -> None:
        model = self.model
        fused_out = model.output_layer.fused_weight()
        out_bias = model.output_layer.bias.data
        self.heads: list[np.ndarray] = []
        self.head_bias: list[np.ndarray] = []
        for col in range(model.num_cols):
            sl = model.logit_slices[col]
            self.heads.append(np.ascontiguousarray(fused_out[sl].T,
                                                   dtype=np.float32))
            self.head_bias.append(np.ascontiguousarray(out_bias[sl],
                                                       dtype=np.float32))

        # Input layer as deltas from the all-wildcard row.  The value
        # slots of every encoder are zeroed under a wildcard, so that row
        # does not depend on embedding parameters — its pre-activation and
        # the per-code deltas do.
        w_in = model.input_layer.fused_weight_t()
        zero = np.zeros((1, model.num_cols), dtype=np.int64)
        wild = np.ones((1, model.num_cols), dtype=bool)
        wildcard_row = model.encode_tuples(zero, wildcard=wild)
        self.wildcard_pre = wildcard_row @ w_in
        self.wildcard_pre += model.input_layer.bias.data
        self.code_delta: list[np.ndarray] = []
        for col, enc in enumerate(model.encoders):
            sl = model.input_slices[col]
            codes = np.arange(model.domain_sizes[col])
            diff = enc.encode_hard(codes) - wildcard_row[:, sl]
            self.code_delta.append(np.ascontiguousarray(
                diff @ w_in[sl], dtype=np.float32))
        self._wildcard_logits: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Forward: the shared trunk kernel plus one column head
    # ------------------------------------------------------------------
    def position_logits(self, pre: np.ndarray, pos: int,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Input-layer pre-activations ``[n, hidden]`` -> logits of the
        column sampled at position ``pos``, computed on the hidden
        prefix ``[0, hidden_prefix[pos])`` only.  ``pre`` is not
        modified."""
        k = int(self.model.hidden_prefix[pos])
        col = self.model.order[pos]
        h, _ = trunk_forward(self.model, pre=pre, width=k)
        np.maximum(h, 0.0, out=h)
        logits = np.matmul(h, self.heads[col][:k], out=out)
        logits += self.head_bias[col]
        return logits

    def wildcard_logits(self, col: int) -> np.ndarray:
        """Logits ``[1, domain]`` of ``col`` for the all-wildcard input."""
        cached = self._wildcard_logits.get(col)
        if cached is None:
            cached = self.position_logits(self.wildcard_pre,
                                          self.model.position[col])
            self._wildcard_logits[col] = cached
        return cached
