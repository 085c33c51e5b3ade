"""The progressive-sampling inference engine.

The one shipped implementation behind ``ProgressiveSampler``: the same
Monte-Carlo estimator (paper Section 4.2) and the same random-variate
consumption order as the reference numpy loop it replaced (now the
tests' oracle, ``tests/reference/progressive.py``), rebuilt around four
ideas:

1. **Compiled weights** (:class:`~repro.infer.compiled.CompiledModel`):
   fused/pre-transposed matrices and per-column output heads, invalidated
   by parameter version counters.
2. **Compiled constraints**
   (:class:`~repro.infer.constraints.CompiledConstraints`): the per-step
   per-query Python loop over constraint tuples becomes packed arrays.
3. **Prefix-state deduplication**: progressive sampling conditions only on
   the sampled prefix, so rows that share a prefix share hidden states,
   logits and truncated conditionals.  Step 0 is the extreme case — every
   row starts fully wildcarded, and its logits are cached per parameter
   version, so the first step costs O(queries) instead of
   O(queries x samples x network).  Later steps run the network on the
   set of *distinct* prefixes, which stays tiny while early (often
   large-domain, factorized) columns are being sampled.
4. **Flat inverse-CDF sampling**: per-state CDFs are laid out in one
   monotone float64 array (per-segment offsets) so a single vectorised
   ``searchsorted`` draws every row's code — no ``[batch, domain]``
   comparison matrix, no per-row normalisation passes.

Work buffers are pooled per (domain, dtype) and reused across steps and
calls; sampled values are written into the encoded-input buffer in place.
"""

from __future__ import annotations

import time

import numpy as np

from ..nn.made import ResMADE
from .compiled import CompiledModel
from .constraints import CompiledConstraints, compile_constraints


class _BufferPool:
    """Reusable 2-D work arrays keyed by (tag, columns, dtype)."""

    def __init__(self):
        self._arrays: dict[tuple[str, int, str], np.ndarray] = {}

    def get(self, tag: str, rows: int, cols: int, dtype) -> np.ndarray:
        key = (tag, cols, np.dtype(dtype).str)
        arr = self._arrays.get(key)
        if arr is None or arr.shape[0] < rows:
            arr = np.empty((rows, cols), dtype=dtype)
            self._arrays[key] = arr
        return arr[:rows]


class InferenceEngine:
    """Batched progressive-sampling estimation over compiled artifacts."""

    def __init__(self, model: ResMADE):
        self.model = model
        self.compiled = CompiledModel(model)
        self._pool = _BufferPool()
        self._metrics = None
        self._m_batches = self._m_queries = self._m_seconds = None

    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """Optional :class:`repro.obs.MetricsRegistry`; ``None`` keeps
        the batch loop entirely uninstrumented (zero overhead)."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        if registry is None:
            self._m_batches = self._m_queries = self._m_seconds = None
            return
        self._m_batches = registry.counter(
            "repro_engine_batches_total",
            "Compiled-engine batch invocations")
        self._m_queries = registry.counter(
            "repro_engine_queries_total",
            "Queries estimated by the compiled engine")
        self._m_seconds = registry.histogram(
            "repro_engine_batch_seconds",
            "Wall time per compiled-engine batch")

    def estimate_batch(self, constraint_lists: list[list], num_samples: int,
                       rng: np.random.Generator, with_error: bool = False,
                       compiled_constraints: CompiledConstraints | None = None):
        """Instrumented wrapper over :meth:`_estimate_batch`: one timing
        read and three registry updates per *batch* (not per query), and
        nothing at all when no registry is attached."""
        if self._metrics is None:
            return self._estimate_batch(constraint_lists, num_samples, rng,
                                        with_error, compiled_constraints)
        t0 = time.perf_counter()
        try:
            return self._estimate_batch(constraint_lists, num_samples, rng,
                                        with_error, compiled_constraints)
        finally:
            self._m_seconds.observe(time.perf_counter() - t0)
            self._m_batches.inc()
            self._m_queries.inc(
                compiled_constraints.n_queries
                if compiled_constraints is not None
                else len(constraint_lists))

    def _estimate_batch(self, constraint_lists: list[list], num_samples: int,
                        rng: np.random.Generator, with_error: bool = False,
                        compiled_constraints: CompiledConstraints | None = None):
        """Selectivity estimates (and optional standard errors) for a batch.

        Mirrors the reference loop's semantics exactly: iterate the union
        of queried columns in autoregressive order, truncate and sample at
        every step but the last, draw one uniform per row per sampled step.
        """
        model = self.model
        self.compiled.ensure_current()
        cc = compiled_constraints if compiled_constraints is not None \
            else compile_constraints(constraint_lists, model.domain_sizes)
        nq, s = cc.n_queries, num_samples
        if nq == 0:
            empty = np.zeros(0, dtype=np.float64)
            return (empty, empty.copy()) if with_error else empty
        batch = nq * s

        queried_pos = [pos for pos in range(model.num_cols)
                       if cc.queried[model.order[pos]]]
        density = np.ones(batch, dtype=np.float64)
        if not queried_pos:
            result = np.ones(nq, dtype=np.float64)
            if with_error:
                return result, np.zeros(nq, dtype=np.float64)
            return result
        last_pos = queried_pos[-1]

        # Prefix-state bookkeeping.  Rows never move; ``state_of_row``
        # maps each (query, sample) row to its current distinct prefix.
        state_of_row = np.repeat(np.arange(nq, dtype=np.int64), s)
        state_qi = np.arange(nq, dtype=np.int64)
        x_states: np.ndarray | None = None    # [n_states, input_width]
        hist: dict[int, np.ndarray] = {}      # col -> per-state codes
        at_wildcard = True

        for pos in queried_pos:
            col = model.order[pos]
            domain = model.domain_sizes[col]
            n_states = len(state_qi)

            # Model forward on distinct prefixes only.  The all-wildcard
            # prefix (step 0) is cached per parameter version.
            if at_wildcard:
                e = self._wildcard_exp(col)            # [1, domain]
                z = self._wildcard_z(col)              # [1]
            else:
                h = self.compiled.hidden(x_states)
                relu = np.maximum(h, 0.0, out=h)
                logits = np.matmul(relu, self.compiled.heads[col],
                                   out=self._pool.get("logits", n_states,
                                                      domain, np.float32))
                logits += self.compiled.head_bias[col]
                logits -= logits.max(axis=1, keepdims=True)
                e = np.exp(logits, out=logits)
                z = e.sum(axis=1)

            hi_codes = hist.get(col - 1)
            ew = cc.weight_states(col, state_qi, hi_codes,
                                  out=self._pool.get("weight", n_states,
                                                     domain, np.float32))
            ew *= e

            if pos == last_pos:
                in_region = ew.sum(axis=1, dtype=np.float64)
                in_region /= z
                density *= in_region[state_of_row]
                break

            cdf = np.cumsum(ew, axis=1, dtype=np.float64,
                            out=self._pool.get("cdf", n_states, domain,
                                               np.float64))
            mass = cdf[:, -1].copy()
            in_region = mass / z
            density *= in_region[state_of_row]

            # Rows with zero truncated mass sample uniformly over the
            # valid set (empty set: anywhere); their density is already 0.
            dead = mass <= 0
            if dead.any():
                fallback = cc.valid_states(col, state_qi[dead],
                                           None if hi_codes is None
                                           else hi_codes[dead])
                fallback = fallback.astype(np.float32)
                empty = fallback.sum(axis=1) == 0
                fallback[empty] = 1.0
                ew[dead] = fallback
                cdf[dead] = np.cumsum(fallback, axis=1)
                mass[dead] = cdf[dead, -1]

            # Flat monotone CDF: segment g occupies values in
            # [base[g], base[g] + mass[g]] and base[g+1] - base[g] =
            # mass[g] + 1 keeps segments strictly separated.
            base = np.empty(n_states, dtype=np.float64)
            base[0] = 0.0
            np.cumsum(mass[:-1] + 1.0, out=base[1:])
            cdf += base[:, None]
            u = rng.random((batch, 1))
            vals = u[:, 0] * mass[state_of_row] + base[state_of_row]
            flat_pos = np.searchsorted(cdf.ravel(), vals, side="left")
            key = np.minimum(flat_pos, state_of_row * domain + (domain - 1))

            # Split states on the sampled code and write the encoding of
            # each new distinct prefix into the input buffer in place.
            new_states, state_of_row = np.unique(key, return_inverse=True)
            parent = new_states // domain
            codes = new_states % domain
            state_qi = state_qi[parent]
            for prev_col in hist:
                hist[prev_col] = hist[prev_col][parent]
            hist[col] = codes
            if at_wildcard:
                x_states = np.repeat(self.compiled.wildcard_row,
                                     len(new_states), axis=0)
            else:
                x_states = x_states[parent]
            x_states[:, model.input_slices[col]] = \
                model.encoders[col].encode_hard(codes)
            at_wildcard = False

        per_sample = density.reshape(nq, s)
        result = np.clip(per_sample.mean(axis=1), 0.0, 1.0)
        if with_error:
            std_err = per_sample.std(axis=1, ddof=1) / np.sqrt(s) \
                if s > 1 else np.zeros(nq)
            return result, std_err
        return result

    # ------------------------------------------------------------------
    # Cached all-wildcard conditionals (valid per parameter version; the
    # CompiledModel drops its wildcard caches on recompile, so these are
    # keyed on the compiled logits object identity).
    # ------------------------------------------------------------------
    def _wildcard_exp(self, col: int) -> np.ndarray:
        logits = self.compiled.wildcard_logits(col)
        cache = getattr(self, "_wc_exp", None)
        if cache is None:
            cache = self._wc_exp = {}
        entry = cache.get(col)
        if entry is None or entry[0] is not logits:
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            cache[col] = (logits, e, e.sum(axis=1))
            entry = cache[col]
        return entry[1]

    def _wildcard_z(self, col: int) -> np.ndarray:
        self._wildcard_exp(col)
        return self._wc_exp[col][2]
