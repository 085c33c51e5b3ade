"""Compiled inference view of a :class:`~repro.nn.made.ResMADE` model.

:class:`CompiledModel` materialises everything the hot sampling loop needs
as flat, pre-transposed, contiguous float32 numpy arrays:

* the fused ``weight * mask`` matrix of every masked layer, transposed to
  ``[in, out]`` so each forward matmul is a plain row-major GEMM;
* per-column *output heads*: the slice of the fused output projection that
  produces one column's logits, pre-transposed to ``[hidden, domain]``,
  plus the matching bias slice — the reference loop
  (``tests/reference/progressive.py``) pays a full ``weight * mask``
  product over *all* logits just to read one column;
* the constant fully-wildcarded input row, its hidden state, and each
  column's logits under full wildcarding.  Every progressive-sampling
  batch starts from this state, so step 0 costs one cached row instead of
  a batch-sized forward pass.

The fused/pre-transposed matrices come from each layer's
``MaskedLinear.fused_weight_t()`` cache — the same arrays the training
engine's hand-written kernels (:mod:`repro.train`) consume, so training
steps and inference snapshots never duplicate the ``weight * mask``
product for one parameter version.

Invalidation contract
---------------------
Compiled artifacts derive from parameter *values*, so the cache is keyed on
the tuple of parameter version counters (see ``Tensor.version``).  Optimizer
steps (:class:`~repro.nn.optim.SGD` / :class:`~repro.nn.optim.Adam`) and
``Module.load_state_dict`` bump versions; any code mutating ``Tensor.data``
in place must call ``bump_version()``.  ``ensure_current()`` recompiles
lazily on the next use after a bump — training and estimation can therefore
interleave freely (Section 4.5 ingestion) without stale reads.
"""

from __future__ import annotations

import numpy as np

from ..nn.made import ResMADE

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
        # ``Tensor.data`` and bumps ``version`` in place), so flatten it
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
        self.w_in = np.ascontiguousarray(
            model.input_layer.fused_weight_t(), dtype=np.float32)
        self.b_in = model.input_layer.bias.data
        self.block_weights: list[tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]] = []
        for block in model.blocks:
            self.block_weights.append((
                np.ascontiguousarray(block.fc1.fused_weight_t(),
                                     dtype=np.float32),
                block.fc1.bias.data,
                np.ascontiguousarray(block.fc2.fused_weight_t(),
                                     dtype=np.float32),
                block.fc2.bias.data))
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
        self.w_out = np.ascontiguousarray(fused_out.T, dtype=np.float32)
        self.b_out = out_bias

        # Constant all-wildcard state: the value slots of every encoder are
        # zeroed under a wildcard, so this row does not depend on embedding
        # parameters — but the hidden state and logits do.
        zero = np.zeros((1, model.num_cols), dtype=np.int64)
        wild = np.ones((1, model.num_cols), dtype=bool)
        self.wildcard_row = model.encode_tuples(zero, wildcard=wild)
        self.wildcard_hidden = self.hidden(self.wildcard_row)
        self._wildcard_logits: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Forward passes (equivalent to the model's *_np reference methods)
    # ------------------------------------------------------------------
    def hidden(self, x: np.ndarray) -> np.ndarray:
        """Trunk forward: encoded input ``[n, input_width]`` -> pre-ReLU
        final hidden state (matches ``ResMADE.hidden_np``)."""
        h = x @ self.w_in
        h += self.b_in
        for w1, b1, w2, b2 in self.block_weights:
            a = np.maximum(h, 0.0)
            a = a @ w1
            a += b1
            np.maximum(a, 0.0, out=a)
            a = a @ w2
            a += b2
            h += a
        return h

    def column_logits(self, h: np.ndarray, col: int,
                      relu_buf: np.ndarray | None = None) -> np.ndarray:
        """Hidden state -> logits of one column via its pre-sliced head."""
        if relu_buf is not None and relu_buf.shape == h.shape:
            relu = np.maximum(h, 0.0, out=relu_buf)
        else:
            relu = np.maximum(h, 0.0)
        logits = relu @ self.heads[col]
        logits += self.head_bias[col]
        return logits

    def all_logits(self, x: np.ndarray) -> np.ndarray:
        """Full forward (matches ``ResMADE.forward_np``)."""
        h = np.maximum(self.hidden(x), 0.0)
        out = h @ self.w_out
        out += self.b_out
        return out

    def wildcard_logits(self, col: int) -> np.ndarray:
        """Logits ``[1, domain]`` of ``col`` for the all-wildcard input."""
        cached = self._wildcard_logits.get(col)
        if cached is None:
            cached = self.column_logits(self.wildcard_hidden, col)
            self._wildcard_logits[col] = cached
        return cached
