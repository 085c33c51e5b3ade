"""Multi-table schemas for the join and optimizer experiments.

The real IMDB snapshot is unavailable offline, so :func:`make_imdb` builds
a synthetic star schema with the properties the join experiments exercise:

* keyed equi-joins ``title.id = child.movie_id``;
* **skewed fan-outs** — the per-title number of matching child rows follows
  a Zipf-flavoured distribution including zero-match titles (outer-join
  indicator behaviour);
* **cross-table correlation** — children's content columns correlate with
  the owning title's ``production_year``, which is what makes independence
  assumptions fail on JOB-style workloads.

:func:`make_imdb_large` extends the star to six tables for the optimizer
study (the paper uses a JOB-M template with six tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .table import Table


@dataclass(frozen=True)
class ForeignKey:
    """``child.child_col`` references ``parent.parent_col``."""

    child: str
    child_col: str
    parent: str
    parent_col: str


@dataclass
class Schema:
    """A named set of tables plus the foreign keys linking them."""

    name: str
    tables: dict[str, Table]
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    @property
    def center(self) -> str:
        """The fact table every foreign key points at (star schemas)."""
        parents = {fk.parent for fk in self.foreign_keys}
        if len(parents) != 1:
            raise ValueError("schema is not a star")
        return next(iter(parents))

    @property
    def children(self) -> list[str]:
        return [fk.child for fk in self.foreign_keys]

    def table(self, name: str) -> Table:
        return self.tables[name]


def _fanout_counts(n: int, rng: np.random.Generator, zero_frac: float,
                   mean: float, cap: int,
                   anchor: np.ndarray | None = None,
                   anchor_strength: float = 0.0) -> np.ndarray:
    """Per-parent child counts: a zero-inflated, right-skewed distribution.

    With ``anchor`` (a per-parent signal in [0, 1], e.g. recency of the
    title) and ``anchor_strength`` > 0, expected fan-outs grow with the
    anchor — the cross-table correlation that breaks the System-R
    independence assumptions in the optimizer study.
    """
    scale = np.full(n, mean, dtype=np.float64)
    if anchor is not None and anchor_strength > 0:
        scale = mean * (1.0 - anchor_strength + 2.0 * anchor_strength * anchor)
    counts = rng.poisson(lam=rng.exponential(scale=scale))
    counts = np.minimum(counts, cap)
    zero_prob = np.full(n, zero_frac)
    if anchor is not None and anchor_strength > 0:
        zero_prob = np.clip(zero_frac * (1.0 + anchor_strength
                                         - 2.0 * anchor_strength * anchor),
                            0.0, 1.0)
    zero = rng.random(n) < zero_prob
    counts[zero] = 0
    return counts.astype(np.int64)


def _child_rows(parent_ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Repeat each parent id by its count -> the child's fk column."""
    return np.repeat(parent_ids, counts)


def _correlated_category(anchor: np.ndarray, domain: int, strength: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Category correlated with an anchor signal in [0, 1].

    With probability ``strength`` the value tracks the anchor's bucket;
    otherwise it is drawn from a skewed global distribution.
    """
    n = len(anchor)
    tracked = np.minimum((anchor * domain).astype(np.int64), domain - 1)
    w = 1.0 / np.arange(1, domain + 1, dtype=np.float64) ** 1.1
    w /= w.sum()
    random_vals = rng.choice(domain, p=w, size=n)
    use_anchor = rng.random(n) < strength
    return np.where(use_anchor, tracked, random_vals)


def make_imdb(n_titles: int = 4000, seed: int = 0) -> Schema:
    """Three-table star: title, movie_companies, movie_info."""
    rng = np.random.default_rng(seed)
    title_ids = np.arange(n_titles, dtype=np.int64)
    year = rng.choice(np.arange(1930, 2018),
                      p=_recency_weights(88), size=n_titles)
    kind = rng.choice(7, p=_zipf(7, 1.2), size=n_titles)
    title = Table.from_raw("title", {
        "id": title_ids, "production_year": year, "kind_id": kind})
    year_anchor = (year - 1930) / 88.0

    mc_counts = _fanout_counts(n_titles, rng, zero_frac=0.15, mean=2.0,
                               cap=20, anchor=year_anchor,
                               anchor_strength=0.6)
    mc_movie = _child_rows(title_ids, mc_counts)
    mc_anchor = np.repeat(year_anchor, mc_counts)
    movie_companies = Table.from_raw("movie_companies", {
        "movie_id": mc_movie,
        "company_id": _correlated_category(mc_anchor, 600, 0.5, rng),
        "company_type_id": _correlated_category(mc_anchor, 4, 0.3, rng)})

    mi_counts = _fanout_counts(n_titles, rng, zero_frac=0.10, mean=3.0,
                               cap=30, anchor=year_anchor,
                               anchor_strength=0.5)
    mi_movie = _child_rows(title_ids, mi_counts)
    mi_anchor = np.repeat(year_anchor, mi_counts)
    movie_info = Table.from_raw("movie_info", {
        "movie_id": mi_movie,
        "info_type_id": _correlated_category(mi_anchor, 40, 0.45, rng),
        "info_bucket": _correlated_category(mi_anchor, 80, 0.35, rng)})

    return Schema("imdb", {
        "title": title,
        "movie_companies": movie_companies,
        "movie_info": movie_info,
    }, [
        ForeignKey("movie_companies", "movie_id", "title", "id"),
        ForeignKey("movie_info", "movie_id", "title", "id"),
    ])


def make_imdb_large(n_titles: int = 2500, seed: int = 1) -> Schema:
    """Six-table star for the optimizer study (JOB-M stand-in)."""
    base = make_imdb(n_titles=n_titles, seed=seed)
    rng = np.random.default_rng(seed + 100)
    title = base.tables["title"]
    title_ids = title.raw_column("id")
    year_anchor = (title.raw_column("production_year") - 1930) / 88.0

    # movie_keyword runs *against* recency (archival tagging of old
    # titles): the opposite-direction correlation is what makes join
    # orders flip under misestimation in the optimizer study.
    mk_counts = _fanout_counts(n_titles, rng, zero_frac=0.2, mean=2.5,
                               cap=25, anchor=year_anchor,
                               anchor_strength=-0.7)
    mk_movie = _child_rows(title_ids, mk_counts)
    mk_anchor = np.repeat(year_anchor, mk_counts)
    movie_keyword = Table.from_raw("movie_keyword", {
        "movie_id": mk_movie,
        "keyword_id": _correlated_category(mk_anchor, 500, 0.4, rng)})

    ci_counts = _fanout_counts(n_titles, rng, zero_frac=0.05, mean=4.0,
                               cap=40, anchor=year_anchor,
                               anchor_strength=0.8)
    ci_movie = _child_rows(title_ids, ci_counts)
    ci_anchor = np.repeat(year_anchor, ci_counts)
    cast_info = Table.from_raw("cast_info", {
        "movie_id": ci_movie,
        "person_bucket": _correlated_category(ci_anchor, 300, 0.3, rng),
        "role_id": _correlated_category(ci_anchor, 11, 0.25, rng)})

    mx_counts = _fanout_counts(n_titles, rng, zero_frac=0.3, mean=1.5,
                               cap=10, anchor=year_anchor,
                               anchor_strength=-0.4)
    mx_movie = _child_rows(title_ids, mx_counts)
    mx_anchor = np.repeat(year_anchor, mx_counts)
    movie_info_idx = Table.from_raw("movie_info_idx", {
        "movie_id": mx_movie,
        "info_type_id": _correlated_category(mx_anchor, 5, 0.35, rng),
        "rating_bucket": _correlated_category(mx_anchor, 20, 0.45, rng)})

    tables = dict(base.tables)
    tables.update({"movie_keyword": movie_keyword, "cast_info": cast_info,
                   "movie_info_idx": movie_info_idx})
    fks = list(base.foreign_keys) + [
        ForeignKey("movie_keyword", "movie_id", "title", "id"),
        ForeignKey("cast_info", "movie_id", "title", "id"),
        ForeignKey("movie_info_idx", "movie_id", "title", "id"),
    ]
    return Schema("imdb_large", tables, fks)


def _zipf(k: int, a: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** a
    return w / w.sum()


def _recency_weights(k: int) -> np.ndarray:
    """Movie production years skew towards recent decades."""
    w = np.linspace(0.2, 1.0, k) ** 2
    return w / w.sum()
