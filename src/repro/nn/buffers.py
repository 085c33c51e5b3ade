"""Reusable work arrays for the hand-written numpy kernels.

Both hot loops — the inference engine (:mod:`repro.infer.engine`) and
the fused training kernels (:mod:`repro.train`) — run the same few
shapes step after step, so they draw their scratch arrays from one
:class:`BufferPool` instead of allocating per step.
"""

from __future__ import annotations

import numpy as np


class BufferPool:
    """Reusable 2-D work arrays keyed by (tag, columns, dtype).

    An array grows on demand to the largest row count requested under
    its key; :meth:`get` returns a view of its first ``rows`` rows.
    """

    def __init__(self):
        self._arrays: dict[tuple[str, int, str], np.ndarray] = {}

    def get(self, tag: str, rows: int, cols: int,
            dtype=np.float32) -> np.ndarray:
        key = (tag, int(cols), np.dtype(dtype).str)
        arr = self._arrays.get(key)
        if arr is None or arr.shape[0] < rows:
            arr = np.empty((max(int(rows), 1), int(cols)), dtype=dtype)
            self._arrays[key] = arr
        return arr[:rows]

    def zeros(self, tag: str, rows: int, cols: int,
              dtype=np.float32) -> np.ndarray:
        arr = self.get(tag, rows, cols, dtype)
        arr[...] = 0
        return arr
