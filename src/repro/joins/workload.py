"""Join queries, exact join cardinalities, and the JOB-light workloads.

A :class:`JoinQuery` names the tables it touches and carries table-qualified
predicates (``movie_companies.company_id <= 40``).  Ground truth for a star
schema is computed without materialising the join: per child, count each
fact key's matching rows that pass the child's predicates; the cardinality
is ``sum_t 1(fact preds)(t) * prod_{k in S} m_k(t)``.

Workload generators mirror the paper (Section 5.1.2):

* :func:`generate_job_light_ranges_focused` — one template (title +
  movie_companies + movie_info), ``production_year`` bounded, 2-5 random
  content filters; used for training and in-workload testing.
* :func:`generate_job_light` — random table subsets and random filters, no
  bounded attribute; the out-of-workload probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.schema import Schema
from ..workload.fragments import extract_fragment
from ..workload.predicate import Predicate

_JOIN_OPS = ("=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class JoinQuery:
    """Predicates over a subset of a star schema's tables."""

    tables: tuple[str, ...]
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(sorted(self.tables)))
        object.__setattr__(self, "predicates", tuple(self.predicates))

    def predicates_for(self, table: str) -> list[Predicate]:
        """Predicates whose column belongs to ``table`` (un-qualified)."""
        prefix = table + "."
        out = []
        for pred in self.predicates:
            if pred.column.startswith(prefix):
                out.append(Predicate(pred.column[len(prefix):], pred.op,
                                     pred.value))
        return out

    def __str__(self) -> str:
        joins = " JOIN ".join(self.tables)
        preds = " AND ".join(str(p) for p in self.predicates) or "TRUE"
        return f"[{joins}] WHERE {preds}"


@dataclass
class LabeledJoinWorkload:
    queries: list[JoinQuery]
    cardinalities: np.ndarray

    def __post_init__(self):
        self.cardinalities = np.asarray(self.cardinalities, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.queries)


class FragmentCardinality:
    """The planner's cardinality contract for any ``estimate(JoinQuery)``:
    the estimate of ``query``'s fragment over ``subset``, floored at one
    row (see :func:`repro.optimizer.card_fn`)."""

    def cardinality(self, query: JoinQuery, subset: frozenset) -> float:
        return float(max(self.estimate(extract_fragment(query, subset)),
                         1.0))


def _table_row_mask(schema: Schema, name: str,
                    predicates: list[Predicate]) -> np.ndarray:
    table = schema.tables[name]
    keep = np.ones(table.num_rows, dtype=bool)
    for pred in predicates:
        idx = table.column_index(pred.column)
        mask = table.columns[idx].valid_mask(pred.op, pred.value)
        keep &= mask[table.codes[:, idx]]
    return keep


class UnjoinableFragmentError(ValueError):
    """The table subset admits no join closure in this schema."""


def _filtered_key_counts(schema: Schema, query: JoinQuery, fk,
                         minlength: int) -> np.ndarray:
    """Per-key match counts of ``fk.child``'s filtered rows."""
    child = schema.tables[fk.child]
    child_keep = _table_row_mask(schema, fk.child,
                                 query.predicates_for(fk.child))
    child_fk = child.raw_column(fk.child_col).astype(np.int64)
    return np.bincount(child_fk[child_keep], minlength=minlength)


def true_join_cardinality(schema: Schema, query: JoinQuery) -> int:
    """Exact star-join cardinality via per-key match counting.

    * center present — ``sum_t 1(fact preds)(t) * prod_{k in S} m_k(t)``
      with each edge counted against its own ``fk.parent_col`` keys;
    * center absent, one table — the filtered row count of that table
      (the fragment is a plain scan, *not* |fact ⋈ σ(child)|);
    * center absent, several tables — the children joined transitively
      on the shared center key (the equality closure the planner
      assumes); edges on different parent columns share no key, so that
      fragment is unrepresentable and raises
      :class:`UnjoinableFragmentError`.
    """
    center = schema.center
    fact = schema.tables[center]
    fks = {fk.child: fk for fk in schema.foreign_keys}
    stray = [t for t in query.tables if t != center and t not in fks]
    if stray:
        raise UnjoinableFragmentError(
            f"tables {stray} have no foreign key into {center!r}")

    if center in query.tables:
        if fact.num_rows == 0:
            return 0
        fact_mask = _table_row_mask(schema, center,
                                    query.predicates_for(center))
        product = np.ones(fact.num_rows, dtype=np.float64)
        for fk in schema.foreign_keys:
            if fk.child not in query.tables:
                continue
            fact_keys = fact.raw_column(fk.parent_col).astype(np.int64)
            counts = _filtered_key_counts(schema, query, fk,
                                          int(fact_keys.max()) + 1)
            product *= counts[fact_keys]
        return int((fact_mask * product).sum())

    if len(query.tables) == 1:
        name = query.tables[0]
        return int(_table_row_mask(schema, name,
                                   query.predicates_for(name)).sum())

    parent_cols = {fks[t].parent_col for t in query.tables}
    if len(parent_cols) != 1:
        raise UnjoinableFragmentError(
            f"center-absent fragment {sorted(query.tables)} spans parent "
            f"columns {sorted(parent_cols)}; no shared key joins them")
    key_arrays = []
    for name in query.tables:
        keep = _table_row_mask(schema, name, query.predicates_for(name))
        keys = schema.tables[name].raw_column(
            fks[name].child_col).astype(np.int64)[keep]
        if keys.size == 0:
            return 0
        key_arrays.append(keys)
    n_keys = max(int(keys.max()) for keys in key_arrays) + 1
    product = np.ones(n_keys, dtype=np.float64)
    for keys in key_arrays:
        product *= np.bincount(keys, minlength=n_keys)
    return int(product.sum())


def true_join_cardinalities(schema: Schema,
                            queries: list[JoinQuery]) -> np.ndarray:
    """Vector of exact cardinalities for a list of join queries."""
    return np.array([true_join_cardinality(schema, q) for q in queries],
                    dtype=np.float64)


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def _random_content_filters(schema: Schema, tables: list[str],
                            rng: np.random.Generator, n_filters: int,
                            exclude: set[str]) -> list[Predicate]:
    candidates = []
    for tname in tables:
        table = schema.tables[tname]
        for cname in table.column_names:
            qualified = f"{tname}.{cname}"
            if cname.startswith(("id", "movie_id")) or qualified in exclude:
                continue
            candidates.append((tname, cname))
    if not candidates:
        return []
    picks = rng.choice(len(candidates),
                       size=min(n_filters, len(candidates)), replace=False)
    preds = []
    for k in np.atleast_1d(picks):
        tname, cname = candidates[int(k)]
        table = schema.tables[tname]
        col = table.column(cname)
        # Literal from a random existing row so predicates hit real data.
        value = col.values[table.codes[rng.integers(0, table.num_rows),
                                       table.column_index(cname)]]
        # Exclude NULL sentinels from literals.
        if np.issubdtype(np.asarray(value).dtype, np.number) and value < 0:
            value = col.values[-1]
        op = str(rng.choice(_JOIN_OPS))
        if col.size <= 2:
            op = "="
        preds.append(Predicate(f"{tname}.{cname}", op, value))
    return preds


def generate_job_light_ranges_focused(schema: Schema, n: int,
                                      rng: np.random.Generator,
                                      center_range: tuple[float, float] = (0, 1),
                                      volume: float = 0.1,
                                      ) -> LabeledJoinWorkload:
    """The paper's training template: all three tables joined,
    ``title.production_year`` bounded, 2-5 random content filters."""
    tables = list(schema.tables)
    year_col = schema.tables["title"].column("production_year")
    queries: list[JoinQuery] = []
    cards: list[int] = []
    attempts = 0
    while len(queries) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise RuntimeError("could not generate non-empty join queries")
        width = max(1, int(round(volume * year_col.size)))
        lo_rel, hi_rel = center_range
        center = int(rng.integers(int(lo_rel * (year_col.size - 1)),
                                  max(int(hi_rel * (year_col.size - 1)), 1) + 1))
        lo = max(0, center - width // 2)
        hi = min(year_col.size - 1, lo + width - 1)
        preds = [Predicate("title.production_year", ">=", year_col.values[lo]),
                 Predicate("title.production_year", "<=", year_col.values[hi])]
        nf = int(rng.integers(2, 6))
        preds += _random_content_filters(
            schema, tables, rng, nf, exclude={"title.production_year"})
        query = JoinQuery(tuple(tables), tuple(preds))
        card = true_join_cardinality(schema, query)
        if card == 0:
            continue
        queries.append(query)
        cards.append(card)
    return LabeledJoinWorkload(queries, np.asarray(cards, dtype=np.float64))


def generate_job_m_focused(schema: Schema, n: int, rng: np.random.Generator,
                           min_tables: int = 2, volume: float = 0.1,
                           center_range: tuple[float, float] = (0, 1),
                           ) -> LabeledJoinWorkload:
    """Optimizer-study workload (Figure 6): multi-way joins over 2..k-table
    subsets of the star, ``production_year`` bounded, 1-4 content filters.

    Mirrors the paper's use of one JOB-M template (6 tables, multi-way
    joins) with the JOB-light-ranges-focused generation procedure.
    """
    children = schema.children
    year_col = schema.tables["title"].column("production_year")
    queries: list[JoinQuery] = []
    cards: list[int] = []
    attempts = 0
    while len(queries) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise RuntimeError("could not generate non-empty join queries")
        k = int(rng.integers(max(min_tables - 1, 1), len(children) + 1))
        subset = ["title"] + list(rng.choice(children, size=k, replace=False))
        width = max(1, int(round(volume * year_col.size)))
        lo_rel, hi_rel = center_range
        center = int(rng.integers(int(lo_rel * (year_col.size - 1)),
                                  max(int(hi_rel * (year_col.size - 1)), 1) + 1))
        lo = max(0, center - width // 2)
        hi = min(year_col.size - 1, lo + width - 1)
        preds = [Predicate("title.production_year", ">=", year_col.values[lo]),
                 Predicate("title.production_year", "<=", year_col.values[hi])]
        nf = int(rng.integers(1, 5))
        preds += _random_content_filters(
            schema, subset, rng, nf, exclude={"title.production_year"})
        query = JoinQuery(tuple(subset), tuple(preds))
        card = true_join_cardinality(schema, query)
        if card == 0:
            continue
        queries.append(query)
        cards.append(card)
    return LabeledJoinWorkload(queries, np.asarray(cards, dtype=np.float64))


def generate_job_light(schema: Schema, n: int,
                       rng: np.random.Generator) -> LabeledJoinWorkload:
    """JOB-light analogue: random table subsets, random filters, no
    bounded attribute ("contains no focused information")."""
    children = schema.children
    queries: list[JoinQuery] = []
    cards: list[int] = []
    attempts = 0
    while len(queries) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise RuntimeError("could not generate non-empty join queries")
        k = int(rng.integers(1, len(children) + 1))
        subset = ["title"] + list(rng.choice(children, size=k, replace=False))
        nf = int(rng.integers(1, 5))
        preds = _random_content_filters(schema, subset, rng, nf, exclude=set())
        query = JoinQuery(tuple(subset), tuple(preds))
        card = true_join_cardinality(schema, query)
        if card == 0:
            continue
        queries.append(query)
        cards.append(card)
    return LabeledJoinWorkload(queries, np.asarray(cards, dtype=np.float64))
