"""Vectorised compilation of query constraint lists.

``ColumnFactorization.expand_masks`` describes one query as a per-model-
column list of ``None`` / ``("fixed", mask)`` / ``("scaled", mask, gain)`` /
``("lo", grid)`` entries.  The reference loop
(``tests/reference/progressive.py``) re-interprets those tuples inside a
per-query Python loop *at every autoregressive step*;
:func:`compile_constraints` lifts all of it into packed numpy structures
once per batch:

* ``base_weight`` — ``[n_queries, domain]`` float32 rows holding
  ``mask * gain`` (ones when unconstrained; the union over high digits for
  ``"lo"`` entries, matching the reference loop's fallback);
* ``base_valid`` / ``gain_base`` — the reference-dtype validity (bool) and
  gain (float64) planes, kept separate for the differentiable samplers
  which mask logits and fold gains into log-space independently;
* stacked ``"lo"`` grids plus a per-query index so the per-sample low-digit
  lookup is one fancy-indexing expression instead of a loop.

(The batch scheduler groups queries by their queried-column signature
*before* compiling, so each compiled batch is signature-homogeneous.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ColumnConstraints:
    """Packed constraints of one model column across a query batch."""

    base_weight: np.ndarray            # [n_queries, domain] float32
    base_valid: np.ndarray             # [n_queries, domain] bool
    gain_base: np.ndarray | None       # [n_queries, domain] float64
    lo_lookup: np.ndarray | None       # [n_queries] int32 index, -1 = no lo
    lo_grids: np.ndarray | None        # [n_lo, hi_size, domain] float32
    lo_grids_bool: np.ndarray | None   # [n_lo, hi_size, domain] bool


class CompiledConstraints:
    """A batch of queries compiled to flat per-column numpy structures."""

    def __init__(self, constraint_lists: list[list],
                 domain_sizes: list[int]):
        self.n_queries = len(constraint_lists)
        self.num_cols = len(domain_sizes)
        self.domain_sizes = list(domain_sizes)
        self.cols: list[ColumnConstraints | None] = []
        for col, domain in enumerate(domain_sizes):
            self.cols.append(self._compile_column(constraint_lists, col,
                                                  int(domain)))
        self.queried = np.array([entry is not None for entry in self.cols])

    def _compile_column(self, constraint_lists: list[list], col: int,
                        domain: int) -> ColumnConstraints | None:
        nq = self.n_queries
        if all(cl[col] is None for cl in constraint_lists):
            return None
        weight = np.ones((nq, domain), dtype=np.float32)
        valid = np.ones((nq, domain), dtype=bool)
        gain: np.ndarray | None = None
        lo_lookup: np.ndarray | None = None
        lo_grids: list[np.ndarray] = []
        for qi, cl in enumerate(constraint_lists):
            cons = cl[col]
            if cons is None:
                continue
            kind = cons[0]
            if kind == "fixed":
                mask = np.asarray(cons[1], dtype=bool)
                valid[qi] = mask
                weight[qi] = mask
            elif kind == "scaled":
                mask = np.asarray(cons[1], dtype=bool)
                valid[qi] = mask
                if gain is None:
                    gain = np.ones((nq, domain), dtype=np.float64)
                gain[qi] = cons[2]
                weight[qi] = mask * np.asarray(cons[2], dtype=np.float32)
            elif kind == "lo":
                grid = np.asarray(cons[1], dtype=bool)
                union = grid.any(axis=0)
                valid[qi] = union
                weight[qi] = union
                if lo_lookup is None:
                    lo_lookup = np.full(nq, -1, dtype=np.int32)
                lo_lookup[qi] = len(lo_grids)
                lo_grids.append(grid)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown constraint kind {kind!r}")
        grids_bool = np.stack(lo_grids) if lo_grids else None
        return ColumnConstraints(
            base_weight=weight, base_valid=valid, gain_base=gain,
            lo_lookup=lo_lookup, lo_grids=grids_bool.astype(np.float32)
            if grids_bool is not None else None,
            lo_grids_bool=grids_bool)

    # ------------------------------------------------------------------
    # Engine path: one weight row per *prefix state*
    # ------------------------------------------------------------------
    def weight_states(self, col: int, state_qi: np.ndarray,
                      hi_codes: np.ndarray | None,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Combined validity-times-gain rows for prefix states.

        ``state_qi`` maps each state to its query; ``hi_codes`` holds the
        state's sampled high digit for ``"lo"`` resolution (``None`` keeps
        the union-over-high-digits fallback, as the reference loop does when
        the high digit was never sampled).  Returns a fresh/writable
        ``[n_states, domain]`` float32 array.
        """
        entry = self.cols[col]
        if out is not None:
            np.take(entry.base_weight, state_qi, axis=0, out=out)
            w = out
        else:
            w = entry.base_weight.take(state_qi, axis=0)
        if entry.lo_lookup is not None and hi_codes is not None:
            li = entry.lo_lookup[state_qi]
            has_lo = li >= 0
            if has_lo.any():
                w[has_lo] = entry.lo_grids[li[has_lo], hi_codes[has_lo]]
        return w

    def valid_states(self, col: int, state_qi: np.ndarray,
                     hi_codes: np.ndarray | None) -> np.ndarray:
        """Boolean validity rows for prefix states (fallback sampling)."""
        return self.weight_states(col, state_qi, hi_codes) > 0

    # ------------------------------------------------------------------
    # Legacy-layout path: one row per (query, sample) pair
    # ------------------------------------------------------------------
    def valid_gain_rows(self, col: int, s: int,
                        sampled: dict[int, np.ndarray]
                        ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-sample validity/gain matrices in the reference row layout.

        Equivalent to the reference loop's per-query validity expansion
        (``tests/reference/progressive.py``, which the tests hold it to):
        rows are query-major blocks of ``s`` samples, validity is bool,
        gains float64 (or ``None`` when no query is fanout-scaled).
        ``sampled[col - 1]`` resolves ``"lo"`` entries per sample.
        """
        entry = self.cols[col]
        nq, domain = self.n_queries, self.domain_sizes[col]
        if entry is None:
            return np.ones((nq * s, domain), dtype=bool), None
        valid = np.repeat(entry.base_valid, s, axis=0)
        if entry.lo_lookup is not None:
            hi = sampled.get(col - 1)
            if hi is not None:
                row_lookup = np.repeat(entry.lo_lookup, s)
                has_lo = row_lookup >= 0
                valid[has_lo] = entry.lo_grids_bool[row_lookup[has_lo],
                                                    hi[has_lo]]
        gain = (np.repeat(entry.gain_base, s, axis=0)
                if entry.gain_base is not None else None)
        return valid, gain


def compile_constraints(constraint_lists: list[list],
                        domain_sizes: list[int]) -> CompiledConstraints:
    """Compile a batch of ``expand_masks`` constraint lists."""
    return CompiledConstraints(constraint_lists, domain_sizes)
