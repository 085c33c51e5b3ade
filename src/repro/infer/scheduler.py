"""Batched estimation scheduling.

``estimate_many`` workloads mix queries with different *queried-column
signatures*.  Running them through one engine call forces every query to
pay for the union of all queried columns: the autoregressive loop visits a
column as soon as *any* query in the batch constrains it, and samples every
row there.  The scheduler groups queries by signature first, so each group
executes exactly the steps its queries need — a query touching 3 columns
costs 3 steps even when batched next to an 11-column query — and chunks
groups so the row count (queries x samples) stays within a working-set
budget.

Grouping only pays when groups are big enough to amortise its fixed costs
(one constraint compilation and one engine dispatch per group).  Diverse
workloads — e.g. the DMV bench mix, where most signatures appear once —
used to run *slower* grouped than plainly batched.  Groups smaller than
:data:`MIN_GROUP_SIZE` are therefore coalesced, in submission order, into
mixed chunks that run through a single ``estimate_batch`` call each; large
groups keep the exact per-signature execution.  A single query is a
one-query mixed chunk: the same engine call as estimating it alone.
"""

from __future__ import annotations

import numpy as np

from .constraints import compile_constraints
from .engine import InferenceEngine

#: row budget (queries x samples) of one same-signature chunk
MAX_ROWS = 8192
#: signature groups smaller than this run in mixed chunks
MIN_GROUP_SIZE = 4
#: row budget of one mixed chunk.  Mixed chunks pay the union of their
#: queries' columns at every step, so they peak at a much smaller
#: working set than same-signature chunks (~8 queries x 128 samples
#: measured best on the DMV bench mix).
COALESCE_ROWS = 1024


class BatchScheduler:
    """Signature-grouping scheduler over an :class:`InferenceEngine`."""

    def __init__(self, engine: InferenceEngine):
        self.engine = engine

    def plan(self, constraint_lists: list[list]) -> list[list[int]]:
        """Group query indices by queried-column signature."""
        groups: dict[tuple[int, ...], list[int]] = {}
        num_cols = len(self.engine.model.domain_sizes)
        for i, cl in enumerate(constraint_lists):
            sig = tuple(c for c in range(num_cols) if cl[c] is not None)
            groups.setdefault(sig, []).append(i)
        return list(groups.values())

    def estimate_many(self, constraint_lists: list[list], num_samples: int,
                      rng: np.random.Generator, with_error: bool = False):
        """Estimates for an arbitrary query mix, grouped then chunked."""
        n = len(constraint_lists)
        out = np.empty(n, dtype=np.float64)
        errs = np.empty(n, dtype=np.float64) if with_error else None
        if n == 0:
            return (out, errs) if with_error else out
        chunk_queries = max(1, MAX_ROWS // max(num_samples, 1))

        grouped: list[list[int]] = []
        coalesced: list[int] = []
        for group in self.plan(constraint_lists):
            if len(group) >= MIN_GROUP_SIZE:
                grouped.append(group)
            else:
                coalesced.extend(group)
        coalesced.sort()

        mixed_chunk = max(1, min(chunk_queries,
                                 COALESCE_ROWS // max(num_samples, 1)))
        for start in range(0, len(coalesced), mixed_chunk):
            idx = coalesced[start:start + mixed_chunk]
            chunk = [constraint_lists[i] for i in idx]
            result = self.engine.estimate_batch(
                chunk, num_samples, rng, with_error=with_error)
            if with_error:
                out[idx], errs[idx] = result
            else:
                out[idx] = result

        for group in grouped:
            for start in range(0, len(group), chunk_queries):
                idx = group[start:start + chunk_queries]
                chunk = [constraint_lists[i] for i in idx]
                cc = compile_constraints(chunk,
                                         self.engine.model.domain_sizes)
                result = self.engine.estimate_batch(
                    chunk, num_samples, rng, with_error=with_error,
                    compiled_constraints=cc)
                if with_error:
                    out[idx], errs[idx] = result
                else:
                    out[idx] = result
        if with_error:
            return out, errs
        return out
