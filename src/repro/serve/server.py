"""The continuously-learning serving loop.

``UAEServer`` owns one *trainer* UAE (the live weights that keep
learning) and serves estimates exclusively from immutable registry
snapshots of it.  The loop:

1. ``estimate``/``submit``/``estimate_batch`` answer traffic from the
   active snapshot (micro-batched, cached);
2. ``observe`` feeds executed queries' true cardinalities into the
   :class:`~repro.serve.feedback.FeedbackCollector`;
3. when the rolling q-error drifts past the collector's threshold,
   ``maintain`` (or ``refine``) drains the feedback into
   ``UAE.ingest_queries`` on the trainer — Section 4.5's query-driven
   refinement — and publishes a new snapshot;
4. ``ingest_data`` does the data half: new tuples refine the trainer via
   the data loss, then publish.

Refinement can run inline (deterministic, used by tests) or in a
background thread (``refine(background=True)``): serving continues on the
old snapshot until the publish atomically swaps the new one in.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..chaos import ChaosPlan, corrupt_truth, poison_state
from ..core.uae import UAE
from ..obs import EVENTS, MetricsRegistry
from ..workload.predicate import LabeledWorkload, Query
from .cache import ResultCache
from .feedback import FeedbackCollector, checked_cardinality
from .registry import ModelRegistry
from .service import EstimateRequest, EstimateService


class RoutingError(KeyError):
    """Base class for front-door routing failures."""

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


class UnknownNamespaceError(RoutingError):
    """No registered namespace covers the query's target tables/columns."""


class AmbiguousNamespaceError(RoutingError):
    """More than one namespace covers the target; pass ``namespace=``."""


@dataclass
class Namespace:
    """One serving namespace: a per-table (or per-join-schema) stack —
    what every front's ``resolve`` returns."""

    name: str
    server: "UAEServer | None"              # None: hosted by a cluster worker
    kind: str                               # "table" | "join"
    tables: frozenset = field(default_factory=frozenset)
    columns: frozenset = field(default_factory=frozenset)
    #: published version of a worker-hosted namespace (``server is None``)
    worker_version: int = 0

    @property
    def registry(self) -> ModelRegistry:
        return self.server.registry

    @property
    def service(self):
        return self.server.service

    @property
    def version(self) -> int:
        if self.server is None:
            return self.worker_version
        return self.server.registry.version


class UAEServer:
    """Registry + service + cache + feedback, wired into one loop."""

    def __init__(self, estimator: UAE, *, feedback: FeedbackCollector | None = None,
                 cache_capacity: int = 8192, keep_versions: int = 3,
                 max_batch: int = 32, max_wait_ms: float = 2.0,
                 refine_epochs: int = 8, data_epochs: int = 3,
                 auto_refine: bool = False, seed: int = 0,
                 namespace: str = "default", pool=None,
                 expander=None, scale: float | None = None,
                 metrics: MetricsRegistry | None = None, events=None,
                 chaos: ChaosPlan | None = None, modelops=None):
        self.trainer = estimator
        # Multi-table wiring (see repro.serve.router): the namespace this
        # server answers for, an optional shared RefinementPool that
        # bounds trainer concurrency across namespaces, and the join
        # translation hooks (constraint expander + cardinality scale)
        # forwarded to the EstimateService and used again when feedback
        # is ingested.
        self.namespace = str(namespace)
        self._space = Namespace(
            self.namespace, self, "table" if expander is None else "join",
            tables=frozenset({estimator.table.name}),
            columns=frozenset(estimator.table.column_names))
        self.pool = pool
        self.expander = expander
        self.scale = None if scale is None else float(scale)
        if expander is not None and self.scale is None:
            raise ValueError("an expander needs an explicit cardinality "
                             "scale (feedback selectivities depend on it)")
        self.registry = ModelRegistry(estimator, keep_versions=keep_versions,
                                      name=namespace)
        self.cache = ResultCache(capacity=cache_capacity)
        # One metrics registry + event log threaded through the whole
        # stack (service, trainer, engine); routed deployments pass a
        # shared registry so every namespace lands in one /metrics.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EVENTS
        estimator.metrics = self.metrics
        self.service = EstimateService(self.registry, self.cache,
                                       max_batch=max_batch,
                                       max_wait_ms=max_wait_ms, seed=seed,
                                       expander=expander, scale=scale,
                                       metrics=self.metrics,
                                       events=self.events)
        # Not `feedback or ...`: an empty collector is falsy (__len__).
        self.feedback = feedback if feedback is not None \
            else FeedbackCollector()
        self.refine_epochs = int(refine_epochs)
        self.data_epochs = int(data_epochs)
        self.auto_refine = bool(auto_refine)
        # Reentrant: refine() drains, spawns/calls _refine_now, and
        # checks liveness as one atomic step, and _refine_now re-acquires
        # on the inline path.
        self._refine_lock = threading.RLock()
        self._refine_thread: threading.Thread | None = None
        self._staged_data: list[np.ndarray] = []
        self.refinements: list[dict] = []
        ns = self.namespace
        m = self.metrics
        self._c_swaps = m.counter(
            "repro_swaps_total", "Model versions hot-swapped live",
            ("namespace", "source"))
        self._c_rollbacks = m.counter(
            "repro_rollbacks_total", "Registry rollbacks to a prior version",
            ("namespace",)).labels(namespace=ns)
        self._c_refine = m.counter(
            "repro_refinements_total", "Refinement runs completed",
            ("namespace",)).labels(namespace=ns)
        self._h_refine = m.histogram(
            "repro_refinement_seconds", "Wall time per refinement run",
            ("namespace",)).labels(namespace=ns)
        self._c_drift = m.counter(
            "repro_drift_triggers_total",
            "Times the rolling q-error crossed the refinement threshold",
            ("namespace",)).labels(namespace=ns)
        # Rolling serving-accuracy gauges (satellite of the continuous-
        # learning loop): sampled lazily at scrape time, so an idle
        # collector costs nothing.
        fb = self.feedback
        m.gauge("repro_qerror", "Rolling serving q-error quantile",
                ("namespace", "quantile")) \
            .labels(namespace=ns, quantile="p50") \
            .set_function(lambda: fb.monitor.quantile(0.5))
        m.gauge("repro_qerror", "Rolling serving q-error quantile",
                ("namespace", "quantile")) \
            .labels(namespace=ns, quantile="p95") \
            .set_function(lambda: fb.monitor.quantile(0.95))
        m.gauge("repro_feedback_observations",
                "Labeled feedback samples in the rolling window",
                ("namespace",)) \
            .labels(namespace=ns).set_function(lambda: float(len(fb.monitor)))
        # Self-healing model-ops (repro.serve.modelops): shadow-validated
        # publishes + tripwire auto-rollback + post-swap cache warming.
        # Pass a ModelOpsConfig (or True for defaults); the controller
        # attaches itself as ``self.modelops``.  ``chaos`` is the seeded
        # fault-injection plan the healing paths are tested against.
        self.chaos = chaos
        self.modelops = None
        if modelops is not None and modelops is not False:
            from .modelops import ModelOps, ModelOpsConfig
            if isinstance(modelops, ModelOps):
                modelops.server = self
                self.modelops = modelops
            else:
                config = modelops if isinstance(modelops, ModelOpsConfig) \
                    else None
                ModelOps(self, config)      # attaches as self.modelops

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def start(self) -> "UAEServer":
        self.service.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Wait (bounded) for an in-flight refinement, then stop serving.

        A standalone server owns its refinement thread, so it joins it
        here; pool-backed servers leave drain/cancel to the shared
        pool's :meth:`~repro.serve.router.RefinementPool.close` — the
        pool outlives any single namespace.
        """
        self.join_refinement(timeout=timeout)
        self.service.stop()

    @property
    def running(self) -> bool:
        return self.service.running

    def __enter__(self) -> "UAEServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def resolve(self, query, namespace: str | None = None) -> Namespace:
        """The front contract's routing step for a single-namespace
        front: every query is this server's, and only its own name (or
        ``None``) names it."""
        if namespace is not None and namespace != self.namespace:
            raise UnknownNamespaceError(
                f"unknown namespace {namespace!r} "
                f"(have {[self.namespace]})")
        return self._space

    def estimate(self, query: Query, *, namespace: str | None = None,
                 deadline_ms: float | None = None) -> float:
        self.resolve(query, namespace)
        return self.service.estimate(query, deadline_ms=deadline_ms)

    def submit(self, query: Query, *, namespace: str | None = None,
               deadline_ms: float | None = None,
               trace=None) -> EstimateRequest:
        self.resolve(query, namespace)
        return self.service.submit(query, deadline_ms=deadline_ms,
                                   trace=trace)

    def estimate_batch(self, queries: list[Query], *,
                       namespace: str | None = None, seed: int | None = None,
                       use_cache: bool = True) -> np.ndarray:
        self.resolve(None, namespace)
        return self.service.estimate_batch(queries, seed=seed,
                                           use_cache=use_cache)

    # ------------------------------------------------------------------
    # Feedback + continuous learning
    # ------------------------------------------------------------------
    def observe(self, query: Query, true_cardinality: float,
                estimate: float | None = None, *,
                namespace: str | None = None) -> float:
        """Record an executed query's truth; returns its serving q-error.

        With ``auto_refine`` set, a drift past the feedback threshold
        kicks off background refinement (at most one at a time).
        A non-finite or negative ``true_cardinality`` / ``estimate`` is
        a ``ValueError`` before anything — feedback buffer, shadow probe
        set, tripwire window — sees it.
        """
        true_cardinality = checked_cardinality(true_cardinality,
                                               "true_cardinality")
        if estimate is not None:
            estimate = checked_cardinality(estimate, "estimate")
        self.resolve(query, namespace)
        if estimate is None:
            estimate = self.estimate(query)
        if self.chaos is not None:
            fault = self.chaos.fires("feedback.record",
                                     namespace=self.namespace)
            if fault is not None and fault.action == "corrupt":
                true_cardinality = corrupt_truth(true_cardinality, fault)
                self.events.emit("chaos_fault", hook="feedback.record",
                                 namespace=self.namespace,
                                 action=fault.action)
        err = self.feedback.record(query, estimate, true_cardinality)
        if self.modelops is not None:
            self.modelops.on_observation(query, estimate,
                                         true_cardinality, err)
        if self.auto_refine and self.feedback.should_refine() \
                and not self.refining:
            self._drift_triggered()
            self.refine(background=True)
        return err

    @property
    def refining(self) -> bool:
        thread = self._refine_thread
        return thread is not None and thread.is_alive()

    def _drift_triggered(self) -> None:
        self._c_drift.inc()
        self.events.emit("drift_trigger", namespace=self.namespace,
                         drift=self.feedback.drift(),
                         threshold=self.feedback.threshold)

    def maintain(self) -> dict | None:
        """One inline maintenance step: refine iff drift says so."""
        if not self.feedback.should_refine():
            return None
        self._drift_triggered()
        return self.refine()

    def stage_data(self, new_codes: np.ndarray) -> None:
        """Buffer inserted tuples for the next refinement.

        Cheaper than an immediate ``ingest_data`` publish when inserts
        trickle in: the next (drift-triggered or explicit) refinement
        catches the model up on data and queries in one hot-swap.
        Buffered feedback labels are dropped — cardinalities observed
        against the pre-insert table no longer describe the data — and
        the drift window restarts, so degradation is measured purely on
        post-insert traffic.
        """
        with self._refine_lock:
            self._staged_data.append(np.asarray(new_codes))
        self.feedback.reset_window()

    def refine(self, epochs: int | None = None,
               background: bool = False) -> dict | threading.Thread | None:
        """Drain feedback (and staged inserts) into Section 4.5 ingestion
        and hot-swap.

        Returns the refinement record (inline) or the running thread /
        pool job (background); ``None`` when a refinement is already in
        flight or there is nothing to learn from.  The liveness check,
        drain, and thread hand-off happen atomically under the refine
        lock, so concurrent callers cannot double-spend the same
        feedback, spawn duplicate refinements, or publish an empty
        version.

        With a shared :class:`~repro.serve.router.RefinementPool`
        attached, background refinement queues on the pool instead of
        spawning a thread per server — the pool's bounded workers are
        the cross-namespace trainer-capacity cap.
        """
        with self._refine_lock:
            if self.refining:
                return None
            workload = self.feedback.drain()
            staged, self._staged_data = self._staged_data, []
            if (workload is None or len(workload) == 0) and not staged:
                return None
            if background:
                if self.pool is not None:
                    try:
                        job = self.pool.submit(self.namespace,
                                               self._refine_now,
                                               workload, staged, epochs)
                    except RuntimeError:
                        # Pool stopped between the caller's check and the
                        # submit.  The feedback is already drained, so
                        # dropping it here would lose those observations
                        # for good (and crash auto_refine observers) —
                        # refine inline instead.
                        return self._refine_now(workload, staged, epochs)
                    self._refine_thread = job
                    return job
                thread = threading.Thread(
                    target=self._refine_now,
                    args=(workload, staged, epochs),
                    name="uae-refine", daemon=True)
                self._refine_thread = thread
                thread.start()
                return thread
            return self._refine_now(workload, staged, epochs)

    def _refine_now(self, workload: LabeledWorkload | None,
                    staged: list[np.ndarray],
                    epochs: int | None) -> dict:
        with self._refine_lock:
            start = time.perf_counter()
            self.events.emit("refinement_start", namespace=self.namespace,
                             queries=0 if workload is None else len(workload),
                             rows=int(sum(len(c) for c in staged)))
            rows = 0
            for codes in staged:
                self.trainer.ingest_data(codes, epochs=self.data_epochs)
                rows += len(codes)
            sources = ["data"] if staged else []
            if workload is not None and len(workload) > 0:
                if self.expander is None:
                    self.trainer.ingest_queries(
                        workload, epochs=epochs or self.refine_epochs)
                else:
                    # Join namespaces: feedback queries are JoinQuery-shaped,
                    # so expand them with the namespace's translator and
                    # normalize truths by the join size, not the sample
                    # table's row count.
                    constraints = [self.expander(self.trainer, q)
                                   for q in workload.queries]
                    sels = workload.cardinalities / self.scale
                    self.trainer.ingest_constraints(
                        constraints, sels, epochs=epochs or self.refine_epochs)
                sources.append("query")
            if self.chaos is not None:
                fault = self.chaos.fires("refine.weights",
                                         namespace=self.namespace)
                if fault is not None and fault.action == "poison":
                    # A corrupted refinement candidate: large seeded
                    # noise on the trainer's weights.  swap_weights bumps
                    # parameter versions, so the poisoned candidate is
                    # exactly what shadow validation scores.
                    self.trainer.swap_weights(poison_state(
                        self.trainer.model.state_dict(),
                        self.chaos.rng("refine.weights"),
                        magnitude=float(fault.params.get("magnitude",
                                                         25.0))))
                    self.events.emit("chaos_fault", hook="refine.weights",
                                     namespace=self.namespace,
                                     action=fault.action)
            verdict = None
            if self.modelops is not None:
                verdict = self.modelops.gate()
                if not verdict["accepted"]:
                    # Rejected candidate: the gate already rewound the
                    # trainer to the live snapshot's weights; nothing is
                    # published and serving never sees the bad version.
                    record = {"version": self.registry.version,
                              "source": "shadow-reject",
                              "queries": 0 if workload is None
                              else len(workload),
                              "rows": rows, "rejected": True,
                              "seconds": time.perf_counter() - start}
                    self.refinements.append(record)
                    self._c_refine.inc()
                    self._h_refine.observe(record["seconds"])
                    self.events.emit("refinement_finish",
                                     namespace=self.namespace, **record)
                    return record
            prev_version = self.registry.version
            mv = self._publish_with_retry("+".join(sources) + "-refine")
            record = {"version": mv.version, "source": mv.source,
                      "queries": 0 if workload is None else len(workload),
                      "rows": rows,
                      "seconds": time.perf_counter() - start}
            self.refinements.append(record)
            self._c_refine.inc()
            self._h_refine.observe(record["seconds"])
            self._c_swaps.labels(namespace=self.namespace,
                                 source=mv.source).inc()
            self.events.emit("refinement_finish", namespace=self.namespace,
                             **record)
            self.events.emit("swap_publish", namespace=self.namespace,
                             version=mv.version, source=mv.source)
            if self.modelops is not None:
                self.modelops.on_publish(prev_version, mv, verdict)
            return record

    def _publish_with_retry(self, source: str):
        """Publish the trainer, healing a chaos-dropped attempt: a
        ``publish.snapshot`` ``drop`` fault makes one attempt vanish
        (recorded as ``publish_drop``); the retry lands the swap."""
        for _attempt in range(3):
            if self.chaos is not None:
                fault = self.chaos.fires("publish.snapshot",
                                         namespace=self.namespace)
                if fault is not None and fault.action == "drop":
                    self.events.emit("publish_drop",
                                     namespace=self.namespace,
                                     source=source)
                    continue
            return self.registry.publish(self.trainer, source=source)
        return self.registry.publish(self.trainer, source=source)

    def join_refinement(self, timeout: float | None = None) -> None:
        thread = self._refine_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)

    def rollback(self, version: int) -> dict:
        """Revert a bad refinement: re-activate a retained snapshot *and*
        rewind the trainer's weights to it (``UAE.swap_weights`` bumps
        parameter versions, so the trainer's own engine recompiles), so
        the next refinement learns from the restored state rather than
        the rejected one.
        """
        with self._refine_lock:
            mv = self.registry.rollback(version)
            self.trainer.swap_weights(mv.model.model.state_dict())
            record = {"version": mv.version, "source": mv.source,
                      "queries": 0, "rows": 0, "seconds": 0.0}
            self.refinements.append(record)
            self._c_rollbacks.inc()
            self.events.emit("rollback", namespace=self.namespace,
                             version=mv.version, source=mv.source)
            return record

    def ingest_data(self, new_codes: np.ndarray,
                    epochs: int | None = None) -> dict:
        """Data half of Section 4.5: refine on inserted tuples, publish."""
        with self._refine_lock:
            start = time.perf_counter()
            self.trainer.ingest_data(new_codes,
                                     epochs=epochs or self.data_epochs)
            mv = self.registry.publish(self.trainer, source="data-refine")
            record = {"version": mv.version, "source": mv.source,
                      "rows": int(len(new_codes)),
                      "seconds": time.perf_counter() - start}
            self.refinements.append(record)
            self._c_refine.inc()
            self._h_refine.observe(record["seconds"])
            self._c_swaps.labels(namespace=self.namespace,
                                 source=mv.source).inc()
            self.events.emit("swap_publish", namespace=self.namespace,
                             version=mv.version, source=mv.source)
            return record

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {"namespace": self.namespace,
                "service": self.service.stats(),
                "feedback": self.feedback.stats(),
                "registry": self.registry.history(),
                "refinements": list(self.refinements),
                "modelops": None if self.modelops is None
                else self.modelops.stats()}
