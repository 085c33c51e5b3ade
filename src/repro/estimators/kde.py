"""Kernel density estimation baselines (paper baselines 5 and 9).

* :class:`KDEEstimator` — Gaussian product kernels over a uniform sample of
  rows, bandwidths from Scott's rule (Gunopulos et al. 2005; Scott 2015).
* :class:`FeedbackKDEEstimator` — Heimel et al. 2015: numerically optimises
  the per-dimension bandwidths against a query-feedback workload (squared
  selectivity error, batch variant), using the analytic gradient of the
  Gaussian-CDF range probabilities w.r.t. the bandwidths.

Range probabilities use the continuity-corrected interval
``[lo - 0.5, hi + 0.5]`` per run of valid codes, so arbitrary masks
(including ``!=`` and ``IN``) are supported.

SciPy (``ndtr``, ``minimize``) is imported inside the methods that call
it, not at module level: ``repro.estimators`` is imported by the model
and serving stack, which need only NumPy.
"""

from __future__ import annotations

import numpy as np

from ..data.table import Table
from ..workload.predicate import LabeledWorkload, Query
from .base import CardinalityEstimator, TrainableEstimator


def mask_to_intervals(mask: np.ndarray) -> list[tuple[int, int]]:
    """Runs of consecutive True codes as inclusive (lo, hi) intervals."""
    nz = np.flatnonzero(mask)
    if nz.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(nz) > 1)
    starts = np.concatenate([[nz[0]], nz[breaks + 1]])
    ends = np.concatenate([nz[breaks], [nz[-1]]])
    return list(zip(starts.tolist(), ends.tolist()))


class KDEEstimator(CardinalityEstimator):
    name = "KDE"

    def __init__(self, table: Table, sample_size: int | None = None,
                 budget_bytes: int | None = None, seed: int = 0):
        super().__init__(table)
        if sample_size is None:
            if budget_bytes is None:
                raise ValueError("give sample_size or budget_bytes")
            sample_size = max(16, budget_bytes // (8 * table.num_cols))
        sample_size = min(sample_size, table.num_rows)
        rng = np.random.default_rng(seed)
        idx = rng.choice(table.num_rows, size=sample_size, replace=False)
        self.points = table.codes[idx].astype(np.float64)
        # Scott's rule: h_j = sigma_j * m^(-1/(d+4)).
        m, d = self.points.shape
        sigma = self.points.std(axis=0)
        sigma[sigma == 0] = 0.5
        self.bandwidths = sigma * m ** (-1.0 / (d + 4))
        self.bandwidths = np.maximum(self.bandwidths, 0.25)

    # ------------------------------------------------------------------
    def _dim_prob(self, dim: int, mask: np.ndarray,
                  bandwidths: np.ndarray) -> np.ndarray:
        """Per-sample probability mass of ``mask`` along ``dim``."""
        from scipy.special import ndtr  # fast Gaussian CDF
        x = self.points[:, dim]
        h = bandwidths[dim]
        prob = np.zeros(len(x))
        for lo, hi in mask_to_intervals(mask):
            prob += ndtr((hi + 0.5 - x) / h) - ndtr((lo - 0.5 - x) / h)
        return np.clip(prob, 0.0, 1.0)

    def _selectivity(self, query: Query, bandwidths: np.ndarray) -> float:
        weight = np.ones(len(self.points))
        for idx, mask in query.masks(self.table).items():
            weight *= self._dim_prob(idx, mask, bandwidths)
        return float(np.clip(weight.mean(), 0.0, 1.0))

    def estimate(self, query: Query) -> float:
        return self._clamp_card(self._selectivity(query, self.bandwidths))

    def size_bytes(self) -> int:
        return int(self.points.size * 8 + self.bandwidths.size * 8)


class FeedbackKDEEstimator(KDEEstimator, TrainableEstimator):
    name = "Feedback-KDE"

    def __init__(self, table: Table, sample_size: int | None = None,
                 budget_bytes: int | None = None, seed: int = 0,
                 max_iters: int = 30, max_queries: int = 150):
        KDEEstimator.__init__(self, table, sample_size=sample_size,
                              budget_bytes=budget_bytes, seed=seed)
        self.max_iters = max_iters
        self.max_queries = max_queries

    def fit(self, workload: LabeledWorkload | None = None
            ) -> "FeedbackKDEEstimator":
        """Batch bandwidth optimisation on the SquaredQ objective."""
        if workload is None or len(workload) == 0:
            raise ValueError("Feedback-KDE needs a labeled workload")
        n = min(len(workload), self.max_queries)
        queries = workload.queries[:n]
        truths = workload.selectivities(self.table.num_rows)[:n]
        query_masks = [q.masks(self.table) for q in queries]

        from scipy.optimize import minimize
        result = minimize(
            lambda log_h: self.objective(log_h, query_masks, truths),
            np.log(self.bandwidths), jac=True, method="L-BFGS-B",
            options={"maxiter": self.max_iters})
        self.bandwidths = np.maximum(np.exp(result.x), 1e-3)
        return self

    def objective(self, log_h: np.ndarray, query_masks: list[dict],
                  truths: np.ndarray) -> tuple[float, np.ndarray]:
        """Relative squared selectivity error ("SquaredQ"-style) and its
        analytic log-bandwidth gradient.

        Relative (not absolute) error keeps gradients alive for the tiny
        selectivities that dominate real feedback; d/dh Phi((b - x)/h) =
        -phi((b - x)/h) * (b - x)/h^2, folded through the product over
        queried dimensions and the sample mean.
        """
        from scipy.special import ndtr
        h = np.exp(log_h)
        d = self.points.shape[1]
        loss = 0.0
        grad_h = np.zeros(d)
        rel_floor = 1.0 / max(self.table.num_rows, 1)
        for masks, truth in zip(query_masks, truths):
            dims = sorted(masks)
            if not dims:
                continue
            probs = []   # per dim: [m] masses
            dprob = []   # per dim: d mass / d h
            for dim in dims:
                x = self.points[:, dim]
                p = np.zeros(len(x))
                dp = np.zeros(len(x))
                for lo, hi in mask_to_intervals(masks[dim]):
                    zu = (hi + 0.5 - x) / h[dim]
                    zl = (lo - 0.5 - x) / h[dim]
                    p += ndtr(zu) - ndtr(zl)
                    phi_u = np.exp(-0.5 * zu * zu) / np.sqrt(2 * np.pi)
                    phi_l = np.exp(-0.5 * zl * zl) / np.sqrt(2 * np.pi)
                    dp += (-zu * phi_u + zl * phi_l) / h[dim]
                probs.append(np.clip(p, 1e-12, 1.0))
                dprob.append(dp)
            stack_p = np.vstack(probs)
            full = stack_p.prod(axis=0)
            sel = full.mean()
            denom = max(truth, rel_floor)
            err = (sel - truth) / denom
            loss += err * err
            for k, dim in enumerate(dims):
                dsel = (full / stack_p[k] * dprob[k]).mean()
                grad_h[dim] += 2.0 * err * dsel / denom
        return loss, grad_h * h  # chain rule into log space
