"""One function per paper table/figure (``python -m repro.bench list``).

Every function returns ``{"title", "columns", "rows", ...}`` ready for
:func:`repro.bench.reporting.format_table`, and is invoked both by the
pytest-benchmark suite in ``benchmarks/`` and the CLI
(``python -m repro.bench <experiment>``).
"""

from __future__ import annotations

import time

import numpy as np

from ..core import UAE
from ..data import load
from ..data.schema import make_imdb, make_imdb_large
from ..estimators import (BayesNetEstimator, FeedbackKDEEstimator,
                          KDEEstimator, LinearRegressionEstimator, MSCNBase,
                          MSCNSampling, Naru, SamplingEstimator, SPNEstimator)
from ..joins import (MSCNJoin, NeuroCard, SPNJoin, UAEJoin,
                     generate_job_light, generate_job_light_ranges_focused)
from ..joins.workload import generate_job_m_focused
from ..optimizer import (MagicConstantHeuristic, PostgresHeuristic,
                         TrueCardOracle)
from ..workload import (generate_inworkload, generate_random,
                        generate_shifted_partitions, summarize)
from .profiles import Profile, current_profile

_ERROR_COLS = ["mean", "median", "95th", "max"]


# ----------------------------------------------------------------------
# Shared setup
# ----------------------------------------------------------------------
def single_table_setup(dataset: str, profile: Profile, seed: int = 0) -> dict:
    """Table + train/test workloads for one single-table experiment."""
    table = load(dataset, rows=profile.dataset_rows(dataset),
                 seed={"dmv": 0, "census": 1, "kddcup": 2}.get(dataset, 7))
    rng = np.random.default_rng(seed + 100)
    train = generate_inworkload(table, profile.train_queries, rng)
    test_in = generate_inworkload(table, profile.test_queries, rng)
    test_rand = generate_random(table, profile.test_queries, rng)
    return {"table": table, "train": train, "test_in": test_in,
            "test_rand": test_rand, "dataset": dataset}


def _uae_kwargs(profile: Profile, **extra) -> dict:
    kwargs = dict(hidden=profile.hidden, num_blocks=profile.num_blocks,
                  est_samples=profile.est_samples,
                  dps_samples=profile.dps_samples,
                  batch_size=profile.batch_size,
                  query_batch_size=profile.query_batch_size,
                  lam=profile.lam, seed=0)
    kwargs.update(extra)
    return kwargs


def _evaluate(estimator, setup: dict, size_bytes: int | None = None) -> dict:
    est_in = estimator.estimate_many(setup["test_in"].queries)
    est_rand = estimator.estimate_many(setup["test_rand"].queries)
    sin = summarize(est_in, setup["test_in"].cardinalities)
    sra = summarize(est_rand, setup["test_rand"].cardinalities)
    row = {"model": estimator.name,
           "size_kb": (size_bytes if size_bytes is not None
                       else estimator.size_bytes()) / 1024.0}
    row.update({f"in_{k}": v for k, v in sin.row().items()})
    row.update({f"rand_{k}": v for k, v in sra.row().items()})
    return row


SINGLE_TABLE_COLUMNS = (["model", "size_kb"]
                        + [f"in_{c}" for c in _ERROR_COLS]
                        + [f"rand_{c}" for c in _ERROR_COLS])


# ----------------------------------------------------------------------
# Tables 2-4: single-table estimator comparison
# ----------------------------------------------------------------------
def run_single_table(dataset: str, profile: Profile | None = None,
                     estimators: list[str] | None = None) -> dict:
    """Tables 2-4: every estimator on one dataset, both query kinds."""
    profile = profile or current_profile()
    setup = single_table_setup(dataset, profile)
    table, train = setup["table"], setup["train"]
    rows = []
    wanted = set(estimators) if estimators else None

    def include(name: str) -> bool:
        return wanted is None or name in wanted

    uae = UAE(table, **_uae_kwargs(profile))
    uae.fit(epochs=profile.epochs, workload=train, mode="hybrid")
    # Sampling/KDE/MSCN sample sizes match the paper's budget-derived
    # ratios (Section 5.1.4) — see Profile.sampling_fraction.
    fraction = profile.sampling_fraction(dataset)
    sample_rows = max(24, int(round(fraction * table.num_rows)))

    if include("LR"):
        rows.append(_evaluate(
            LinearRegressionEstimator(table).fit(train), setup))
    if include("MSCN-base"):
        rows.append(_evaluate(
            MSCNBase(table, epochs=profile.mscn_epochs).fit(train), setup))
    if include("UAE-Q"):
        uae_q = UAE(table, **_uae_kwargs(profile))
        uae_q.fit(epochs=profile.query_epochs, workload=train, mode="query")
        rows.append(_evaluate(_named(uae_q, "UAE-Q"), setup))
    if include("Sampling"):
        rows.append(_evaluate(
            SamplingEstimator(table, fraction=fraction), setup))
    if include("BayesNet"):
        rows.append(_evaluate(BayesNetEstimator(table), setup))
    if include("KDE"):
        rows.append(_evaluate(
            KDEEstimator(table, sample_size=sample_rows), setup))
    if include("DeepDB"):
        rows.append(_evaluate(SPNEstimator(table), setup))
    if include("Naru"):
        naru = Naru(table, **_uae_kwargs(profile))
        naru.fit(epochs=profile.epochs)
        rows.append(_evaluate(naru, setup))
    if include("MSCN+sampling"):
        rows.append(_evaluate(
            MSCNSampling(table, epochs=profile.mscn_epochs,
                         sample_budget_bytes=4 * table.num_cols
                         * sample_rows).fit(train), setup))
    if include("Feedback-KDE"):
        rows.append(_evaluate(
            FeedbackKDEEstimator(table, sample_size=sample_rows).fit(train),
            setup))
    if include("UAE"):
        rows.append(_evaluate(uae, setup))

    return {"title": f"Estimation errors on {dataset} "
                     f"(profile={profile.name})",
            "columns": SINGLE_TABLE_COLUMNS, "rows": rows,
            "dataset": dataset}


def _named(estimator, name: str):
    estimator.name = name
    return estimator


# ----------------------------------------------------------------------
# Table 5: join queries on IMDB
# ----------------------------------------------------------------------
def run_joins(profile: Profile | None = None) -> dict:
    """Table 5: join estimators on the IMDB-like star schema."""
    profile = profile or current_profile()
    schema = make_imdb(n_titles=profile.join_titles, seed=0)
    rng = np.random.default_rng(77)
    train = generate_job_light_ranges_focused(
        schema, profile.join_train_queries, rng)
    test_focused = generate_job_light_ranges_focused(
        schema, profile.join_test_queries, rng)
    test_light = generate_job_light(schema, profile.join_test_queries, rng)

    common = dict(sample_size=profile.join_sample)
    # The paper sets lambda = 10 on IMDB (Section 5.1.4).
    uae_kwargs = _uae_kwargs(profile, lam=10.0)

    estimators = []
    deepdb = SPNJoin(schema, **common)
    estimators.append(deepdb)
    mscn = MSCNJoin(schema, sample_size=min(profile.join_sample, 4000),
                    epochs=profile.mscn_epochs, seed=0)
    mscn.fit(train)
    estimators.append(mscn)
    neurocard = NeuroCard(schema, **common, **uae_kwargs)
    neurocard.fit(epochs=profile.join_epochs)
    estimators.append(neurocard)
    uae = UAEJoin(schema, **common, **uae_kwargs)
    uae.fit(epochs=profile.join_epochs, workload=train, mode="hybrid")
    estimators.append(_named(uae, "UAE"))

    rows = []
    for est in estimators:
        foc = summarize(est.estimate_many(test_focused.queries),
                        test_focused.cardinalities)
        lig = summarize(est.estimate_many(test_light.queries),
                        test_light.cardinalities)
        rows.append({
            "model": est.name, "size_kb": est.size_bytes() / 1024.0,
            "focused_median": foc.median, "focused_95th": foc.p95,
            "focused_max": foc.maximum,
            "light_median": lig.median, "light_95th": lig.p95,
            "light_max": lig.maximum,
        })
    return {"title": f"Estimation errors on IMDB joins "
                     f"(profile={profile.name})",
            "columns": ["model", "size_kb", "focused_median", "focused_95th",
                        "focused_max", "light_median", "light_95th",
                        "light_max"],
            "rows": rows}


# ----------------------------------------------------------------------
# Table 6: incremental query workload
# ----------------------------------------------------------------------
def run_incremental(profile: Profile | None = None) -> dict:
    """Table 6: stale Naru vs query-refined UAE across shifted
    workload partitions (Section 5.4)."""
    profile = profile or current_profile()
    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    rng = np.random.default_rng(55)
    # Narrow windows make the partitions tail-focused — the regime where
    # the paper's Naru visibly drifts and query feedback pays off.
    partitions = generate_shifted_partitions(
        table, profile.incremental_parts, profile.incremental_train,
        profile.incremental_test, rng, bounded_volume=0.004)

    naru = Naru(table, **_uae_kwargs(profile))
    naru.fit(epochs=max(2, profile.epochs // 2))
    # Same starting knowledge; refinement uses more DPS samples and a
    # gentler learning rate (the query loss is Monte-Carlo noisy).
    uae = naru.clone(dps_samples=max(16, profile.dps_samples))
    uae.optimizer.lr = uae.config.lr * 0.5

    naru_means, uae_means = [], []
    for part_train, part_test in partitions:
        uae.ingest_queries(part_train,
                           epochs=min(profile.query_epochs, 10))
        naru_err = summarize(naru.estimate_many(part_test.queries),
                             part_test.cardinalities)
        uae_err = summarize(uae.estimate_many(part_test.queries),
                            part_test.cardinalities)
        naru_means.append(naru_err.mean)
        uae_means.append(uae_err.mean)

    rows = [
        {"model": "Naru (stale)", **{f"part{i+1}": naru_means[i]
                                     for i in range(len(naru_means))}},
        {"model": "UAE (refined)", **{f"part{i+1}": uae_means[i]
                                      for i in range(len(uae_means))}},
    ]
    columns = ["model"] + [f"part{i+1}" for i in range(len(naru_means))]
    return {"title": "Incremental query workload: stale Naru vs refined UAE "
                     f"(mean q-error, profile={profile.name})",
            "columns": columns, "rows": rows,
            "naru": naru_means, "uae": uae_means}


# ----------------------------------------------------------------------
# Figure 3: selectivity distributions
# ----------------------------------------------------------------------
def selectivity_distribution(profile: Profile | None = None) -> dict:
    """Figure 3: selectivity spectra of in-workload vs random queries."""
    profile = profile or current_profile()
    rows = []
    for dataset in ("dmv", "census", "kddcup"):
        setup = single_table_setup(dataset, profile)
        for kind in ("test_in", "test_rand"):
            sels = setup[kind].selectivities(setup["table"].num_rows)
            log_sel = np.log10(np.maximum(sels, 1e-9))
            rows.append({
                "dataset": dataset,
                "workload": "in-workload" if kind == "test_in" else "random",
                "log10_min": float(log_sel.min()),
                "log10_p25": float(np.percentile(log_sel, 25)),
                "log10_median": float(np.median(log_sel)),
                "log10_p75": float(np.percentile(log_sel, 75)),
                "log10_max": float(log_sel.max()),
            })
    return {"title": "Figure 3: query selectivity distributions "
                     f"(profile={profile.name})",
            "columns": ["dataset", "workload", "log10_min", "log10_p25",
                        "log10_median", "log10_p75", "log10_max"],
            "rows": rows}


# ----------------------------------------------------------------------
# Figure 4(a) + temperature study: UAE-Q refinement hyper-parameters
# ----------------------------------------------------------------------
def _pretrained_uae_d(profile: Profile, setup: dict) -> UAE:
    uae = UAE(setup["table"], **_uae_kwargs(profile))
    uae.fit(epochs=profile.epochs, mode="data")
    return uae


def sweep_dps_samples(profile: Profile | None = None,
                      values: tuple = (2, 4, 8, 16)) -> dict:
    """Impact of S in DPS (Figure 4(a)); paper sweeps {50,100,200,400}."""
    profile = profile or current_profile()
    setup = single_table_setup("dmv", profile)
    base = _pretrained_uae_d(profile, setup)
    rows = []
    for s in values:
        refined = base.clone(dps_samples=s)
        refined.ingest_queries(setup["train"], epochs=profile.query_epochs)
        err = summarize(refined.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"S": s, **err.row()})
    return {"title": "Figure 4(a): impact of DPS sample count S on DMV "
                     f"(profile={profile.name})",
            "columns": ["S"] + _ERROR_COLS, "rows": rows}


def sweep_temperature(profile: Profile | None = None,
                      values: tuple = (0.5, 0.75, 1.0, 1.25)) -> dict:
    """Temperature study of Section 5.3 (paper finds tau=1.0 best)."""
    profile = profile or current_profile()
    setup = single_table_setup("dmv", profile)
    base = _pretrained_uae_d(profile, setup)
    rows = []
    for tau in values:
        refined = base.clone(temperature=tau)
        refined.ingest_queries(setup["train"], epochs=profile.query_epochs)
        err = summarize(refined.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"tau": tau, **err.row()})
    return {"title": "Section 5.3: impact of Gumbel-Softmax temperature "
                     f"(profile={profile.name})",
            "columns": ["tau"] + _ERROR_COLS, "rows": rows}


# ----------------------------------------------------------------------
# Figure 4(b): trade-off parameter lambda
# ----------------------------------------------------------------------
def sweep_lambda(profile: Profile | None = None,
                 values: tuple = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)) -> dict:
    """Figure 4(b): the Eq. 11 trade-off parameter lambda."""
    profile = profile or current_profile()
    setup = single_table_setup("dmv", profile)
    rows = []
    for lam in values:
        uae = UAE(setup["table"], **_uae_kwargs(profile, lam=lam))
        uae.fit(epochs=profile.epochs, workload=setup["train"],
                mode="hybrid")
        err_in = summarize(uae.estimate_many(setup["test_in"].queries),
                           setup["test_in"].cardinalities)
        err_rand = summarize(uae.estimate_many(setup["test_rand"].queries),
                             setup["test_rand"].cardinalities)
        rows.append({"lambda": lam, "in_mean": err_in.mean,
                     "in_max": err_in.maximum, "rand_mean": err_rand.mean,
                     "rand_max": err_rand.maximum})
    return {"title": "Figure 4(b): impact of trade-off parameter lambda "
                     f"(profile={profile.name})",
            "columns": ["lambda", "in_mean", "in_max", "rand_mean",
                        "rand_max"],
            "rows": rows}


# ----------------------------------------------------------------------
# Figure 5(1): training curve; Figure 5(2): estimation latency
# ----------------------------------------------------------------------
def training_curve(profile: Profile | None = None) -> dict:
    """Figure 5(1): per-epoch q-error on Census during hybrid training."""
    profile = profile or current_profile()
    setup = single_table_setup("census", profile)
    curve = []

    def record(epoch: int, model: UAE) -> None:
        err = summarize(model.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        curve.append({"epoch": epoch + 1, "max": err.maximum,
                      "mean": err.mean})

    uae = UAE(setup["table"], **_uae_kwargs(profile))
    uae.fit(epochs=profile.epochs, workload=setup["train"], mode="hybrid",
            on_epoch_end=record)
    return {"title": "Figure 5(1): training epochs vs q-error on Census "
                     f"(profile={profile.name})",
            "columns": ["epoch", "max", "mean"], "rows": curve}


def estimation_latency(profile: Profile | None = None,
                       n_queries: int = 10) -> dict:
    """Figure 5(2): per-query wall-clock latency per estimator."""
    profile = profile or current_profile()
    setup = single_table_setup("dmv", profile)
    table, train = setup["table"], setup["train"]
    queries = setup["test_in"].queries[:n_queries]

    uae = UAE(table, **_uae_kwargs(profile))
    uae.fit(epochs=max(1, profile.epochs // 2), workload=train, mode="hybrid")
    fraction = profile.sampling_fraction("dmv")
    sample_rows = max(24, int(round(fraction * table.num_rows)))
    estimators = [
        _named(uae, "UAE"),
        SamplingEstimator(table, fraction=fraction),
        BayesNetEstimator(table),
        KDEEstimator(table, sample_size=sample_rows),
        SPNEstimator(table),
        MSCNBase(table, epochs=max(5, profile.mscn_epochs // 4)).fit(train),
        MSCNSampling(table, epochs=max(5, profile.mscn_epochs // 4),
                     sample_budget_bytes=4 * table.num_cols
                     * sample_rows).fit(train),
        LinearRegressionEstimator(table).fit(train),
    ]
    rows = []
    for est in estimators:
        latency = est.latency_seconds(queries)
        rows.append({"model": est.name, "ms_per_query": latency * 1e3})
    return {"title": "Figure 5(2): estimation latency on DMV "
                     f"(profile={profile.name})",
            "columns": ["model", "ms_per_query"], "rows": rows}


# ----------------------------------------------------------------------
# Figure 6: impact on query optimization
# ----------------------------------------------------------------------
def optimizer_impact(profile: Profile | None = None) -> dict:
    """Figure 6: plan-quality speedups from injected cardinalities."""
    profile = profile or current_profile()
    schema = make_imdb_large(n_titles=profile.join_titles // 2, seed=1)
    rng = np.random.default_rng(99)
    train = generate_job_m_focused(schema, profile.join_train_queries, rng)
    test = generate_job_m_focused(schema, profile.optimizer_queries, rng)

    # The paper sets lambda = 10 on IMDB (Section 5.1.4).
    uae_kwargs = _uae_kwargs(profile, lam=10.0)
    uae = UAEJoin(schema, sample_size=profile.join_sample, **uae_kwargs)
    uae.fit(epochs=profile.join_epochs, workload=train, mode="hybrid")
    neurocard = NeuroCard(schema, sample_size=profile.join_sample,
                          **uae_kwargs)
    neurocard.fit(epochs=profile.join_epochs)

    # The plan bench's plan-and-score loop; every row is a speedup over
    # the PostgreSQL plan, scored with true costs.
    from .plan_bench import plan_and_score, speedup_row
    oracle = TrueCardOracle(schema)
    costs, _, errors = plan_and_score(schema, test.queries, [
        oracle, PostgresHeuristic(schema), MagicConstantHeuristic(schema),
        neurocard, _named(uae, "UAE")], oracle)
    if errors:
        raise errors[0]
    baseline = costs.pop("PostgreSQL")
    return {"title": "Figure 6: query execution speedups vs PostgreSQL "
                     f"(profile={profile.name})",
            "columns": ["estimator", "median", "mean", "p10", "p90"],
            "rows": [speedup_row(name, baseline, vals)
                     for name, vals in costs.items()]}


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def ablation_gradient_estimator(profile: Profile | None = None) -> dict:
    """Gumbel-Softmax vs REINFORCE for training UAE-Q (paper Section 4.3)."""
    profile = profile or current_profile()
    setup = single_table_setup("census", profile)
    rows = []
    for estimator in ("gumbel", "reinforce"):
        start = time.perf_counter()
        uae = UAE(setup["table"],
                  **_uae_kwargs(profile, gradient_estimator=estimator))
        uae.fit(epochs=profile.query_epochs, workload=setup["train"],
                mode="query")
        err = summarize(uae.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"gradient": estimator, **err.row(),
                     "train_s": time.perf_counter() - start})
    return {"title": "Ablation: Gumbel-Softmax vs REINFORCE (UAE-Q, Census, "
                     f"profile={profile.name})",
            "columns": ["gradient"] + _ERROR_COLS + ["train_s"],
            "rows": rows}


def ablation_discrepancy(profile: Profile | None = None) -> dict:
    """Q-error vs MSE vs MSLE as Discrepancy(.) in Eq. 5 (Section 4.7)."""
    profile = profile or current_profile()
    setup = single_table_setup("census", profile)
    rows = []
    for kind in ("qerror", "mse", "msle"):
        uae = UAE(setup["table"], **_uae_kwargs(profile, discrepancy=kind))
        uae.fit(epochs=max(2, profile.epochs // 2), workload=setup["train"],
                mode="hybrid")
        err = summarize(uae.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"discrepancy": kind, **err.row()})
    return {"title": "Ablation: query-loss discrepancy function "
                     f"(profile={profile.name})",
            "columns": ["discrepancy"] + _ERROR_COLS, "rows": rows}


def ablation_encoding(profile: Profile | None = None) -> dict:
    """Binary vs one-hot input encodings (Section 4.2)."""
    profile = profile or current_profile()
    setup = single_table_setup("census", profile)
    rows = []
    for encoding in ("binary", "onehot"):
        uae = UAE(setup["table"], **_uae_kwargs(profile, encoding=encoding))
        uae.fit(epochs=max(2, profile.epochs // 2), mode="data")
        err = summarize(uae.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"encoding": encoding, "size_kb": uae.size_bytes() / 1024,
                     **err.row()})
    return {"title": f"Ablation: input encoding (profile={profile.name})",
            "columns": ["encoding", "size_kb"] + _ERROR_COLS, "rows": rows}


def ablation_sampler(profile: Profile | None = None) -> dict:
    """Progressive vs uniform sampling at inference (Section 4.2)."""
    profile = profile or current_profile()
    setup = single_table_setup("dmv", profile)
    uae = _pretrained_uae_d(profile, setup)
    progressive = uae.estimate_many(setup["test_in"].queries)
    uniform = np.array([uae.estimate_uniform(q, num_samples=profile.est_samples)
                        for q in setup["test_in"].queries])
    rows = [
        {"sampler": "progressive",
         **summarize(progressive, setup["test_in"].cardinalities).row()},
        {"sampler": "uniform",
         **summarize(uniform, setup["test_in"].cardinalities).row()},
    ]
    return {"title": "Ablation: progressive vs uniform sampling on DMV "
                     f"(profile={profile.name})",
            "columns": ["sampler"] + _ERROR_COLS, "rows": rows}


def ablation_wildcard(profile: Profile | None = None) -> dict:
    """Wildcard-skipping dropout on/off (Section 4.6)."""
    profile = profile or current_profile()
    setup = single_table_setup("census", profile)
    rows = []
    for frac in (0.0, 0.5):
        uae = UAE(setup["table"],
                  **_uae_kwargs(profile, wildcard_max_frac=frac))
        uae.fit(epochs=max(2, profile.epochs // 2), mode="data")
        err = summarize(uae.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"wildcard_max_frac": frac, **err.row()})
    return {"title": "Ablation: wildcard-skipping dropout "
                     f"(profile={profile.name})",
            "columns": ["wildcard_max_frac"] + _ERROR_COLS, "rows": rows}


def ablation_column_order(profile: Profile | None = None) -> dict:
    """Natural vs random autoregressive order (Section 4.2 references the
    ordering strategies of Naru/MADE)."""
    profile = profile or current_profile()
    setup = single_table_setup("census", profile)
    rows = []
    for order in ("natural", "random"):
        uae = UAE(setup["table"], **_uae_kwargs(profile, column_order=order))
        uae.fit(epochs=max(2, profile.epochs // 2), mode="data")
        err = summarize(uae.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"order": order, **err.row()})
    return {"title": "Ablation: autoregressive column order "
                     f"(profile={profile.name})",
            "columns": ["order"] + _ERROR_COLS, "rows": rows}


def run_dmv_large(profile: Profile | None = None) -> dict:
    """DMV-large (Section 5.1.1): columns with very large NDVs.

    Compares the paper's two large-NDV treatments — learnable embeddings
    vs column factorization (Section 4.6) — on a table with a ~100%-unique
    VIN column, against DeepDB whose leaf histograms the paper expects to
    struggle at high NDV.
    """
    profile = profile or current_profile()
    from ..data import make_dmv
    table = make_dmv(rows=profile.dataset_rows("dmv"), seed=0,
                     large_ndv=True)
    rng = np.random.default_rng(123)
    from ..workload import WorkloadConfig
    cfg = WorkloadConfig()
    train = generate_inworkload(table, profile.train_queries, rng,
                                bounded_column="county", cfg=cfg)
    test = generate_inworkload(table, profile.test_queries, rng,
                               bounded_column="county", cfg=cfg)
    setup = {"table": table, "test_in": test, "test_rand": test}

    rows = []
    epochs = max(2, profile.epochs // 2)
    factored = UAE(table, **_uae_kwargs(profile, factor_threshold=2048))
    factored.fit(epochs=epochs, mode="data")
    err = summarize(factored.estimate_many(test.queries), test.cardinalities)
    rows.append({"model": "UAE (factorized)",
                 "size_kb": factored.size_bytes() / 1024, **err.row()})

    embedded = UAE(table, **_uae_kwargs(
        profile, factor_threshold=10 ** 9, embedding_threshold=1024,
        embedding_dim=16))
    embedded.fit(epochs=epochs, mode="data")
    err = summarize(embedded.estimate_many(test.queries), test.cardinalities)
    rows.append({"model": "UAE (embeddings)",
                 "size_kb": embedded.size_bytes() / 1024, **err.row()})

    spn = SPNEstimator(table)
    err = summarize(spn.estimate_many(test.queries), test.cardinalities)
    rows.append({"model": "DeepDB", "size_kb": spn.size_bytes() / 1024,
                 **err.row()})

    sampling = SamplingEstimator(table, budget_bytes=factored.size_bytes())
    err = summarize(sampling.estimate_many(test.queries), test.cardinalities)
    rows.append({"model": "Sampling", "size_kb": sampling.size_bytes() / 1024,
                 **err.row()})

    return {"title": "DMV-large: very large NDVs (embeddings vs "
                     f"factorization, profile={profile.name})",
            "columns": ["model", "size_kb"] + _ERROR_COLS, "rows": rows}


def run_incremental_data(profile: Profile | None = None) -> dict:
    """Incremental data ingestion (goal G3; Section 5.4 defers to prior
    work for this half, reproduced here for completeness).

    The table grows by 40% with rows skewed to a new data region; the
    stale model keeps its old weights and row count, the refreshed model
    ingests the new tuples with a few data-loss epochs.
    """
    profile = profile or current_profile()
    from ..data import Table, load
    full = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    order = np.argsort(full.codes[:, 0], kind="stable")
    split = int(0.6 * full.num_rows)
    base = Table(full.name, full.columns, full.codes[order[:split]])
    new_rows = full.codes[order[split:]]

    rng = np.random.default_rng(321)
    test = generate_inworkload(full, profile.test_queries, rng)

    stale = UAE(base, **_uae_kwargs(profile))
    stale.fit(epochs=profile.epochs, mode="data")
    refreshed = stale.clone()
    refreshed.ingest_data(new_rows, epochs=max(2, profile.epochs // 2))

    rows = []
    for name, model in (("stale (pre-insert)", stale),
                        ("refreshed (ingested)", refreshed)):
        err = summarize(model.estimate_many(test.queries),
                        test.cardinalities)
        rows.append({"model": name, **err.row()})
    return {"title": "Incremental data: stale vs refreshed UAE on the "
                     f"grown table (profile={profile.name})",
            "columns": ["model"] + _ERROR_COLS, "rows": rows}


def capability_matrix(profile: Profile | None = None) -> dict:
    """Paper Table 1: which estimator families support what."""
    from ..estimators import capability_rows
    rows = capability_rows()
    return {"title": "Table 1: capability matrix of estimator families",
            "columns": list(rows[0]), "rows": rows}


def run_sub_baselines(profile: Profile | None = None) -> dict:
    """The paper's footnote comparison: STHoles, MHIST, QuickSel and
    Postgres-style histograms performed worse than the nine reported
    baselines.  This experiment verifies that shape against UAE."""
    profile = profile or current_profile()
    from ..estimators import (IndependenceHistogramEstimator, MHISTEstimator,
                              QuickSelEstimator, STHolesEstimator)
    setup = single_table_setup("dmv", profile)
    table, train = setup["table"], setup["train"]
    rows = []
    uae = UAE(table, **_uae_kwargs(profile))
    uae.fit(epochs=profile.epochs, workload=train, mode="hybrid")
    rows.append(_evaluate(uae, setup))
    rows.append(_evaluate(IndependenceHistogramEstimator(table), setup))
    rows.append(_evaluate(MHISTEstimator(table), setup))
    rows.append(_evaluate(STHolesEstimator(table).fit(train), setup))
    rows.append(_evaluate(QuickSelEstimator(table).fit(train), setup))
    return {"title": "Sub-baselines the paper omits (STHoles / MHIST / "
                     f"QuickSel / Postgres1D) vs UAE (profile={profile.name})",
            "columns": SINGLE_TABLE_COLUMNS, "rows": rows}


def ablation_ensemble(profile: Profile | None = None) -> dict:
    """Horizontal-partition ensemble vs monolithic UAE (the paper's
    Section 4.1 discussion of ensembles, realised without independence
    assumptions through additive row partitions)."""
    profile = profile or current_profile()
    from ..core import PartitionedUAE
    setup = single_table_setup("dmv", profile)
    table = setup["table"]
    epochs = max(2, profile.epochs // 2)
    rows = []
    mono = UAE(table, **_uae_kwargs(profile))
    mono.fit(epochs=epochs, mode="data")
    err = summarize(mono.estimate_many(setup["test_in"].queries),
                    setup["test_in"].cardinalities)
    rows.append({"model": "UAE (monolithic)",
                 "size_kb": mono.size_bytes() / 1024, **err.row()})
    for parts in (2, 4):
        ens = PartitionedUAE(table, "county", num_partitions=parts,
                             **_uae_kwargs(profile))
        ens.fit(epochs=epochs, mode="data")
        err = summarize(ens.estimate_many(setup["test_in"].queries),
                        setup["test_in"].cardinalities)
        rows.append({"model": f"UAE-ensemble x{parts}",
                     "size_kb": ens.size_bytes() / 1024, **err.row()})
    return {"title": "Ablation: horizontal-partition ensemble "
                     f"(profile={profile.name})",
            "columns": ["model", "size_kb"] + _ERROR_COLS, "rows": rows}


def run_infer_latency(profile: Profile | None = None) -> dict:
    """Inference-engine microbenchmark (writes BENCH_infer.json)."""
    from .infer_bench import run_infer_latency as _run
    return _run(profile)


def run_serving(profile: Profile | None = None) -> dict:
    """Online serving scenario and its four sub-scenarios (writes
    BENCH_serve.json)."""
    from .serve_bench import run_serving as _run
    return _run(profile)


def run_plan_quality(profile: Profile | None = None) -> dict:
    """Optimizer-in-the-loop plan-quality scenario (writes
    BENCH_plan.json): the DP planner's card function answered by the
    live serving tier, scored against oracle/heuristic baselines."""
    from .plan_bench import run_plan_quality as _run
    return _run(profile)


def run_training_bench(profile: Profile | None = None) -> dict:
    """Training-engine microbenchmark (writes BENCH_train.json)."""
    from .train_bench import run_training as _run
    return _run(profile)


EXPERIMENTS = {
    "latency": run_infer_latency,
    "serving": run_serving,
    "plans": run_plan_quality,
    "training": run_training_bench,
    "table1": capability_matrix,
    "sub_baselines": run_sub_baselines,
    "ablation_ensemble": ablation_ensemble,
    "table2": lambda p=None: run_single_table("dmv", p),
    "table3": lambda p=None: run_single_table("census", p),
    "table4": lambda p=None: run_single_table("kddcup", p),
    "table5": run_joins,
    "table6": run_incremental,
    "fig3": selectivity_distribution,
    "fig4a": sweep_dps_samples,
    "fig4b": sweep_lambda,
    "fig5_curve": training_curve,
    "fig5_latency": estimation_latency,
    "fig6": optimizer_impact,
    "tau": sweep_temperature,
    "ablation_gradient": ablation_gradient_estimator,
    "ablation_discrepancy": ablation_discrepancy,
    "ablation_encoding": ablation_encoding,
    "ablation_sampler": ablation_sampler,
    "ablation_wildcard": ablation_wildcard,
    "ablation_order": ablation_column_order,
    "dmv_large": run_dmv_large,
    "incremental_data": run_incremental_data,
}
