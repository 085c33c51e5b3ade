"""Synthetic stand-ins for the paper's datasets.

The real DMV / Census / Kddcup98 extracts are not available in this offline
environment, so each generator reproduces the *properties the experiments
depend on*:

* **DMV** — 11 columns, domain sizes 2..~2100, strong skew (target
  Fisher–Pearson ≈ 4.9) and strong correlation (NCIE ≈ 0.23).
* **Census** — 14 mixed columns, domains 2..123, weak skew (≈ 2.1) and weak
  correlation (≈ 0.15).
* **Kddcup98** — 100 columns, domains 2..43, strong skew (≈ 4.7) organised
  in independent blocks (the paper's finding 6 hinges on many effectively
  independent attributes).

All generators use a latent-cluster (mixture) model: rows belong to Zipf-
weighted clusters; each cluster induces its own sharp per-column categorical
distribution.  Cluster sharpness controls correlation, Zipf exponents
control skew.
"""

from __future__ import annotations

import numpy as np

from .table import Table

_DMV_COLORS = np.array([
    "BK", "BL", "BR", "GL", "GY", "MR", "OR", "PK", "PR", "RD", "SL",
    "TN", "WH", "YW"])


def _zipf_weights(k: int, a: float, rng: np.random.Generator,
                  permute: bool = True) -> np.ndarray:
    """Normalized Zipf(a) weights over k items, optionally permuted."""
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** a
    w /= w.sum()
    if permute:
        w = w[rng.permutation(k)]
    return w


def _mixture_codes(rows: int, domain_sizes: list[int], n_clusters: int,
                   marginal_zipf: float, cluster_zipf: float,
                   noise: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a code matrix from the latent-cluster model.

    ``noise`` is the probability that a cell ignores its cluster and draws
    from a column-global distribution instead — higher noise means weaker
    correlation.
    """
    cluster_w = _zipf_weights(n_clusters, cluster_zipf, rng, permute=False)
    assign = rng.choice(n_clusters, p=cluster_w, size=rows)
    codes = np.empty((rows, len(domain_sizes)), dtype=np.int32)
    for j, domain in enumerate(domain_sizes):
        global_w = _zipf_weights(domain, marginal_zipf, rng)
        column = np.empty(rows, dtype=np.int32)
        for c in range(n_clusters):
            members = np.flatnonzero(assign == c)
            if len(members) == 0:
                continue
            local_w = _zipf_weights(domain, marginal_zipf + 0.5, rng)
            column[members] = rng.choice(domain, p=local_w, size=len(members))
        if noise > 0:
            flip = rng.random(rows) < noise
            column[flip] = rng.choice(domain, p=global_w, size=int(flip.sum()))
        # Guarantee every nominal domain value occurs at least once so the
        # realized domain matches the target spectrum even at small row
        # counts (rare Zipf tail values may otherwise never be drawn).
        if domain <= rows:
            missing = np.setdiff1d(np.arange(domain), np.unique(column),
                                   assume_unique=False)
            if len(missing):
                slots = rng.choice(rows, size=len(missing), replace=False)
                column[slots] = missing
        codes[:, j] = column
    return codes


def make_dmv(rows: int = 40_000, seed: int = 0,
             large_ndv: bool = False) -> Table:
    """DMV-like table: 11 columns, wide domain-size spectrum, strong skew
    and correlation.  ``large_ndv=True`` appends very-high-NDV columns
    (the paper's DMV-large variant, Section 5.1.1)."""
    rng = np.random.default_rng(seed)
    domain_sizes = [2101, 425, 120, 62, 24, 14, 10, 6, 4, 2, 2]
    codes = _mixture_codes(rows, domain_sizes, n_clusters=12,
                           marginal_zipf=1.3, cluster_zipf=1.1,
                           noise=0.18, rng=rng)
    names = ["county", "city_code", "model_year", "weight_class", "body_type",
             "color_code", "fuel_type", "reg_class", "ownership", "scofflaw",
             "suspension"]
    data = {name: codes[:, j] for j, name in enumerate(names)}
    # Make one column string-typed to exercise non-numeric domains.
    data["color_code"] = _DMV_COLORS[codes[:, 5] % len(_DMV_COLORS)]
    if large_ndv:
        # ~100%-unique VIN-like column and a ~31K-value city column.
        data["vin"] = rng.permutation(rows * 4)[:rows]
        data["city"] = rng.integers(0, min(31_000, max(rows // 2, 2)), rows)
    return Table.from_raw("dmv", data)


def make_census(rows: int = 20_000, seed: int = 1) -> Table:
    """Census-like table: 14 columns, small domains, weak skew/correlation."""
    rng = np.random.default_rng(seed)
    domain_sizes = [73, 16, 123, 15, 7, 14, 6, 5, 2, 41, 99, 52, 42, 2]
    codes = _mixture_codes(rows, domain_sizes, n_clusters=4,
                           marginal_zipf=0.6, cluster_zipf=0.4,
                           noise=0.55, rng=rng)
    names = ["age", "workclass", "fnlwgt_bucket", "education", "marital",
             "occupation", "relationship", "race", "sex", "capital_gain",
             "capital_loss", "hours_per_week", "native_country", "income"]
    return Table.from_raw(
        "census", {n: codes[:, j] for j, n in enumerate(names)})


def make_kddcup(rows: int = 20_000, seed: int = 2,
                num_cols: int = 100, block_size: int = 5) -> Table:
    """Kddcup98-like table: many small-domain columns in independent blocks.

    Columns inside a block share a latent cluster (correlated); blocks are
    mutually independent, reproducing the high-dimensional, mostly
    independent structure the paper stresses (finding 6).
    """
    rng = np.random.default_rng(seed)
    blocks = []
    remaining = num_cols
    while remaining > 0:
        width = min(block_size, remaining)
        domains = list(rng.integers(2, 44, size=width))
        blocks.append([int(d) for d in domains])
        remaining -= width
    parts = []
    for domains in blocks:
        parts.append(_mixture_codes(rows, domains, n_clusters=6,
                                    marginal_zipf=1.25, cluster_zipf=1.0,
                                    noise=0.15, rng=rng))
    codes = np.concatenate(parts, axis=1)
    data = {f"f{j:03d}": codes[:, j] for j in range(codes.shape[1])}
    return Table.from_raw("kddcup", data)


def make_toy(rows: int = 2_000, seed: int = 7, num_cols: int = 4,
             max_domain: int = 12) -> Table:
    """Small correlated table for unit tests and the quickstart example."""
    rng = np.random.default_rng(seed)
    domains = list(rng.integers(3, max_domain + 1, size=num_cols))
    codes = _mixture_codes(rows, [int(d) for d in domains], n_clusters=3,
                           marginal_zipf=1.0, cluster_zipf=0.8,
                           noise=0.25, rng=rng)
    return Table.from_raw(
        "toy", {f"c{j}": codes[:, j] for j in range(num_cols)})


DATASETS = {
    "dmv": make_dmv,
    "census": make_census,
    "kddcup": make_kddcup,
    "toy": make_toy,
}


def load(name: str, **kwargs) -> Table:
    """Build a dataset by name (``dmv``, ``census``, ``kddcup``, ``toy``)."""
    try:
        factory = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}") from None
    return factory(**kwargs)
