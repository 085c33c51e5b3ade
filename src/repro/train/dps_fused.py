"""Vectorized differentiable progressive sampling (the DPS fast path).

Same estimator as the reference loop that builds the autograd graph step
by step (the tests' oracle, ``tests/reference/dps.py``) — Algorithm 2
with Gumbel-Softmax draws — rebuilt as one hand-written forward/backward
kernel:

* **Persistent input buffer.**  The reference loop rebuilds the full encoded
  input via ``concatenate(segments)`` at every sampling position (one
  graph node + a batch-width copy per step).  Here soft encodings are
  written into one pooled ``[batch, input_width]`` buffer in place;
  unqueried columns' segments are never touched.
* **Step-0 wildcard dedup.**  Every (query, sample) row is identical at
  the first sampled column — all-wildcard input — so the first trunk
  forward (and its backward) runs on a single row, exactly the trick the
  inference engine plays with its wildcard-state cache.
* **Prefix-width trunks.**  Hidden degrees are sorted (see
  :func:`repro.nn.made.hidden_degrees`), so the logits of the column at
  position ``p`` depend only on the first ``hidden_prefix[p]`` hidden
  units; every per-step GEMM — trunk, head, and their backwards — runs
  on that prefix.  Early (large-domain, factorized) columns therefore
  touch a sliver of the network.
* **One hand-derived backward.**  Gradients for the whole sampled chain
  (softmax -> truncate -> GS-sample -> encode -> next step) are computed
  in numpy and written straight into parameter ``.grad`` buffers — no
  per-op closures.  Two MADE-mask facts make this compact: (1) the
  gradient reaching hidden units at step *t* is confined to the step's
  prefix, whose units only read input slots finalized *before* step t —
  the input-layer weight gradient of every step therefore contracts
  against the **final** input buffer in a single GEMM; (2) each column's
  segment is written at most once, so the gradient w.r.t. the input
  buffer (``gx``) routes each slice to exactly one step's soft sample.
* **Normalizer-free GS scores.**  The reference loop materialises the
  truncated ``log_softmax`` before adding Gumbel noise; a softmax is
  invariant to per-row constants, so the sample only needs the
  *unnormalised* truncated log-probabilities ``logits + log(weight)``
  (``log(0) = -inf`` clamped to the reference ``NEG_INF`` fill).  That
  removes the mask-fill/exp/normalise passes from the forward and the
  whole log-softmax term from the backward — its row-sum is identically
  zero, which is also why gradients at masked-out categories vanish
  exactly, matching the reference ``where``.

Draw-for-draw parity: the Gumbel stream is consumed with the same shapes
in the same order as the reference loop, and per-row constant shifts
cancel in every softmax, so with a shared seed the two agree to float32
rounding (gradient diff < 1e-4; asserted by
``tests/test_train_engine.py`` and ``tests/test_backend_matrix.py``).

``estimate_batch`` returns an array and keeps the chain's state;
``accumulate_grad(g_est)`` consumes it, adding ``sum(g_est * est)``'s
gradient into ``.grad``.  Buffers are pooled; at most one estimate may
be in flight per instance.
"""

from __future__ import annotations

import numpy as np

from ..infer import compile_constraints
from ..nn.buffers import BufferPool
from ..nn.encoders import EmbeddingEncoder, OneHotEncoder
from ..nn.functional import NEG_INF, sample_gumbel
from ..nn.made import ResMADE
from ..nn.trunk import TrunkGrads, trunk_backward, trunk_forward


class FusedDPS:
    """Hand-fused DPS estimates over model-column constraint lists."""

    def __init__(self, model: ResMADE):
        self.model = model
        self.pool = BufferPool()
        self._state: dict | None = None

    # ------------------------------------------------------------------
    def estimate_batch(self, constraint_lists: list[list], num_samples: int,
                       temperature: float, rng: np.random.Generator
                       ) -> np.ndarray:
        """Differentiable selectivity estimates ``[num_queries]``."""
        model = self.model
        pool = self.pool
        nq = len(constraint_lists)
        s = num_samples
        n = nq * s

        queried = [any(cl[c] is not None for cl in constraint_lists)
                   for c in range(model.num_cols)]
        last_pos = max((model.position[c] for c in range(model.num_cols)
                        if queried[c]), default=-1)
        self._state = None
        if last_pos < 0:
            return np.ones(nq, dtype=np.float32)
        positions = [p for p in range(last_pos + 1)
                     if queried[model.order[p]]]
        compiled = compile_constraints(constraint_lists, model.domain_sizes)

        wild_row = model.encode_tuples(
            np.zeros((1, model.num_cols), dtype=np.int64),
            wildcard=np.ones((1, model.num_cols), dtype=bool))
        x = pool.get("q.x", n, model.input_width)
        np.copyto(x, wild_row)

        out_l = model.output_layer
        inv_tau = np.float32(1.0 / temperature)
        density = np.ones(n, dtype=np.float32)
        hard_hi: dict[int, np.ndarray] = {}
        steps: list[dict] = []

        for pos in positions:
            col = model.order[pos]
            domain = model.domain_sizes[col]
            sl = model.logit_slices[col]
            last = pos == last_pos
            k = int(model.hidden_prefix[pos])
            valid, gain = compiled.valid_gain_rows(col, s, hard_hi)
            rows = 1 if not steps else n
            if k == 0:
                # Position 0: logits are the output bias alone.
                acts = None
                fr = None
                logits = out_l.bias.data[sl].reshape(1, -1)
            else:
                h, acts = trunk_forward(model, wild_row if rows == 1 else x,
                                        width=k, pool=pool, tag=f"q.t{pos}")
                fr = pool.get(f"q.fr{pos}", rows, k)
                np.maximum(h, 0.0, out=fr)
                logits = pool.get(f"q.lg{pos}", rows, domain)
                np.matmul(fr, out_l.fused_weight_t()[:k, sl], out=logits)
                logits += out_l.bias.data[sl]

            probs = pool.get(f"q.pb{pos}", rows, domain)
            np.subtract(logits, logits.max(axis=1, keepdims=True), out=probs)
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=1, keepdims=True)

            weight = pool.get(f"q.w{pos}", n, domain)
            if gain is None:
                np.copyto(weight, valid)
            else:
                np.multiply(valid, gain, out=weight)
            scratch = pool.get("q.nd", n, domain)
            np.multiply(probs, weight, out=scratch)
            in_region = scratch.sum(axis=1)
            d_prev = density
            density = density * in_region

            step = {"pos": pos, "col": col, "rows": rows, "last": last,
                    "k": k, "acts": acts, "fr": fr, "probs": probs,
                    "weight": weight, "in_region": in_region,
                    "d_prev": d_prev}
            steps.append(step)
            if last:
                break

            # GS-sample from the truncated conditional (Alg. 2 lines
            # 7-9): scores need only the unnormalised truncated log-probs
            # ``logits + log(weight)`` — per-row constants cancel in the
            # softmax, and ``log(0) -> NEG_INF`` reproduces the reference
            # loop's mask fill (clamped so an all-masked row degrades to
            # its noise-only sample instead of NaN).
            logw = scratch
            with np.errstate(divide="ignore"):
                np.log(weight, out=logw)
            np.maximum(logw, NEG_INF, out=logw)
            y = sample_gumbel((n, domain), rng,
                              out=pool.get(f"q.y{pos}", n, domain))
            y += logw
            y += logits                    # broadcasts the step-0 row
            y *= inv_tau
            y -= y.max(axis=1, keepdims=True)
            np.exp(y, out=y)
            y /= y.sum(axis=1, keepdims=True)
            hard_hi[col] = np.argmax(y, axis=1)

            enc = model.encoders[col]
            sl_in = model.input_slices[col]
            values = x[:, sl_in.start:sl_in.stop - 1]
            if isinstance(enc, OneHotEncoder):
                np.copyto(values, y)
            elif isinstance(enc, EmbeddingEncoder):
                np.matmul(y, enc.table.weight.data, out=values)
            else:                          # BinaryEncoder
                np.matmul(y, enc.code_matrix, out=values)
            x[:, sl_in.stop - 1] = 0.0     # column no longer wildcard
            step["y"] = y

        self._state = {"steps": steps, "x": x, "wild_row": wild_row,
                       "n": n, "s": s, "inv_tau": inv_tau}
        return density.reshape(nq, s).mean(axis=1)

    # ------------------------------------------------------------------
    def accumulate_grad(self, g_est: np.ndarray) -> None:
        """Add ``sum(g_est * est)``'s gradient for the last batch (none
        when no column was queried: the estimate is constant)."""
        state, self._state = self._state, None
        if state is None:
            return
        model = self.model
        pool = self.pool
        steps, x, n, s = state["steps"], state["x"], state["n"], state["s"]
        inv_tau = state["inv_tau"]
        out_l = model.output_layer
        in_l = model.input_layer
        hidden = out_l.in_features

        # est = mean over the s samples of each query's density chain.
        g_density = np.repeat(
            np.asarray(g_est, dtype=np.float32) * np.float32(1.0 / s), s)

        gx = pool.zeros("q.gx", n, model.input_width)
        gh0_sum = pool.zeros("q.gh0", n, hidden)
        gw_out = pool.zeros("q.gwout", out_l.out_features, hidden)
        gb_out = np.zeros(out_l.out_features, dtype=np.float32)
        gw_in_row = np.zeros((in_l.out_features, in_l.in_features),
                             dtype=np.float32)
        gb_in = np.zeros(in_l.out_features, dtype=np.float32)
        grads = TrunkGrads(model, pool, "q.tg")

        for step in reversed(steps):
            pos, col, rows, k = step["pos"], step["col"], step["rows"], \
                step["k"]
            domain = model.domain_sizes[col]
            sl = model.logit_slices[col]
            probs = step["probs"]

            # Density chain: density_t = density_{t-1} * in_region_t.
            g_r = g_density * step["d_prev"]
            g_density = g_density * step["in_region"]

            # in_region = (probs * weight).sum(1).
            gp = pool.get("q.bgp", n, domain)
            np.multiply(step["weight"], g_r[:, None], out=gp)
            scratch = pool.get("q.bsc", n, domain)
            np.multiply(gp, probs, out=scratch)
            pdot = scratch.sum(axis=1, keepdims=True)
            np.subtract(gp, pdot, out=gp)
            gp *= probs
            g_logits = gp

            if not step["last"]:
                # Soft sample feeds later steps through the input buffer;
                # its gradient is the written slice of ``gx``.
                enc = model.encoders[col]
                sl_in = model.input_slices[col]
                g_vals = gx[:, sl_in.start:sl_in.stop - 1]
                y = step["y"]
                g_y = pool.get("q.bgy", n, domain)
                if isinstance(enc, OneHotEncoder):
                    np.copyto(g_y, g_vals)
                elif isinstance(enc, EmbeddingEncoder):
                    enc.table.weight._accumulate(y.T @ g_vals)
                    np.matmul(g_vals, enc.table.weight.data.T, out=g_y)
                else:
                    np.matmul(g_vals, enc.code_matrix.T, out=g_y)
                # y = softmax((logits + log(weight) + g) / tau); masked
                # categories have y == 0 exactly, so their logits receive
                # exactly zero gradient — no explicit valid-mask needed.
                np.multiply(g_y, y, out=scratch)
                ydot = scratch.sum(axis=1, keepdims=True)
                np.subtract(g_y, ydot, out=g_y)
                g_y *= y
                g_y *= inv_tau
                g_logits += g_y

            if rows == 1:
                # Step-0 logits were one broadcast row: fold the batch.
                g_logits = g_logits.sum(axis=0, keepdims=True)

            gb_out[sl] += g_logits.sum(axis=0)
            if k == 0:
                continue                   # bias-only position
            fr = step["fr"]
            gw_head = pool.get("q.gwh", domain, k)
            np.matmul(g_logits.T, fr, out=gw_head)
            gw_head *= out_l.mask[sl, :k]
            gw_out[sl, :k] += gw_head

            gh = pool.get("q.gfr", rows, k)
            np.matmul(g_logits, out_l.fused_weight()[sl, :k], out=gh)
            gh *= fr > 0
            gh0 = trunk_backward(model, gh, step["acts"], grads, pool,
                                 "q.tb", width=k)
            if rows == 1:
                gw_in_row[:k] += gh0.T @ state["wild_row"]
                gb_in[:k] += gh0.sum(axis=0)
            else:
                gh0_sum[:, :k] += gh0
                gb_in[:k] += gh0.sum(axis=0)
                gxt = pool.get("q.gxt", n, model.input_width)
                np.matmul(gh0, in_l.fused_weight()[:k], out=gxt)
                gx += gxt

        out_l.weight._accumulate(gw_out)
        out_l.bias._accumulate(gb_out)
        grads.flush()
        # Every step's input-weight contribution contracts against the
        # final buffer (prefix-confined gradients only touch slots already
        # final at their step — see the module docstring), so one GEMM
        # covers all batched steps; the single-row step-0 pass adds its
        # own wildcard-row term.
        gw_in = pool.get("q.gwin", in_l.out_features, in_l.in_features)
        np.matmul(gh0_sum.T, x, out=gw_in)
        gw_in += gw_in_row
        gw_in *= in_l.mask
        in_l.weight._accumulate(gw_in)
        in_l.bias._accumulate(gb_in)
