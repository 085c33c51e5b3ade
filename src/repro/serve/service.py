"""Micro-batching estimate front-end.

Requests arrive one at a time (``submit`` / ``estimate``) or in bulk
(``estimate_batch``).  Single requests are queued and flushed by a
background worker in micro-batches through the inference engine's
signature-grouping :class:`~repro.infer.BatchScheduler`, so a stream of
independent queries gets the same amortised matmuls as an offline batch.
The batcher is work-conserving: the moment the worker is free it
flushes whatever is queued (up to ``max_batch`` queries), so batches
form from engine busy time — requests that arrive while one flush
computes make up the next — and a lone request never waits on a timer.
Each flush captures one :class:`~repro.serve.registry.ModelVersion`
from the registry and uses it end to end: a hot-swap between flushes
changes which snapshot the *next* flush sees, never the one in
progress.

Deadlines are per-request serving budgets: a request whose budget lapses
before compute completes fails with ``TimeoutError`` instead of silently
returning late.  The flush also projects the batch's compute cost from
an EWMA of observed per-query latency and sheds, up front, any request
whose *remaining* budget (deadline minus the queue wait already spent)
cannot cover it — near-deadline queries fail fast instead of wasting
engine time on answers that would arrive late
(``repro_serve_budget_sheds_total``).

Cancellation is abandonment: :meth:`EstimateRequest.cancel` (driven by
the asyncio front door in :mod:`repro.serve.net` when a network caller
disconnects or times out) settles the request immediately with
:class:`RequestCancelledError`, and the worker drops cancelled requests
at flush time — a dead client never occupies a batch slot or engine
time (``repro_serve_cancellations_total``).

Every service has a :class:`~repro.serve.cache.ResultCache`; an
estimate is answered from it when the active model version has an entry
for the query's constraint signature.  A queued request is looked up
again at flush time, so a repeat submitted while its twin computed is
answered from the cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque

import numpy as np

from ..obs import EVENTS, MetricsRegistry, log_buckets
from ..workload.predicate import Query
from .cache import ResultCache
from .registry import ModelRegistry, ModelVersion

#: Bucket layout for micro-batch sizes (1 .. max_batch, geometric).
BATCH_SIZE_BUCKETS = log_buckets(1.0, 512.0, per_decade=4)

#: Seconds a caller waits past a request's deadline before giving up on
#: it locally.  The front normally sheds typed first; the grace only
#: guards against a wedged worker.  Read by every front's sync
#: ``estimate`` and by the awaitable ``AsyncEstimateService``.
DEADLINE_GRACE_S = 5.0


class RequestCancelledError(RuntimeError):
    """The caller abandoned the request before it completed."""


def _log_callback_error(request, exc: BaseException) -> None:
    """Default sink for a raising done-callback (a handle no front owns)."""
    EVENTS.emit("callback_error", error=type(exc).__name__, detail=str(exc))


class EstimateRequest:
    """A single in-flight estimate; a minimal future — the one
    settlement implementation every front's handle is built on.

    Settlement is first-wins: exactly one of ``_complete`` / ``_fail`` /
    ``cancel`` takes effect, so a caller cancelling concurrently with
    the worker completing never observes a half-settled request.  Done
    callbacks (the asyncio front door's bridge back to its event loop)
    fire once, from whichever thread settles the request; one that
    raises is reported to ``on_callback_error(request, exc)`` (the
    owning front counts it), never propagated — the settling thread is
    a micro-batcher or collector with batch-mates still to settle.  The
    value is a float for single submits and an array for a cluster batch
    dispatch; ``single`` unwraps a one-query array back to a float.
    ``deferred`` marks a handle whose front could not place it without
    blocking and left the placement to one of its own threads (a
    saturated cluster worker window).
    """

    __slots__ = ("query", "constraints", "key", "deadline", "trace",
                 "single", "submitted_at", "completed_at", "version",
                 "from_cache", "cancelled", "deferred",
                 "on_callback_error", "_lock", "_callbacks", "_event",
                 "_value", "_error")

    def __init__(self, query, constraints, key: bytes | None,
                 deadline: float | None, trace=None, single: bool = False):
        self.query = query
        self.constraints = constraints
        self.key = key
        self.deadline = deadline          # absolute perf_counter time
        self.trace = trace                # optional obs.Trace
        self.single = single
        self.submitted_at = time.perf_counter()
        self.completed_at: float | None = None
        self.version: int | None = None
        self.from_cache = False
        self.cancelled = False
        self.deferred = False
        self.on_callback_error = _log_callback_error
        self._lock = threading.Lock()
        self._callbacks: list = []
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------
    def _settle(self, value, error, **outcome) -> bool:
        """First-wins settlement; ``outcome`` attributes (``version``,
        ``from_cache``, a cluster handle's ``worker`` / ``shed``) are
        written under the same lock, so a loser never leaves a trace."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            for name, attr in outcome.items():
                setattr(self, name, attr)
            self.completed_at = time.perf_counter()
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._run_callback(callback)
        return True

    def _run_callback(self, callback) -> None:
        try:
            callback(self)
        except Exception as exc:  # noqa: BLE001 - must not kill the settler
            self.on_callback_error(self, exc)

    def _complete(self, value, version: int | None,
                  from_cache: bool = False, **outcome) -> bool:
        """Settle with a value; False when the request was already
        settled (e.g. cancelled while the engine computed it)."""
        return self._settle(value, None, version=version,
                            from_cache=from_cache, **outcome)

    def _fail(self, error: BaseException, **outcome) -> bool:
        return self._settle(None, error, **outcome)

    def cancel(self) -> bool:
        """Abandon the request: the micro-batcher drops cancelled
        requests before compute, so a cancelled request never occupies a
        batch slot in a later flush.  (A cluster batch may already sit
        in its worker's inbox — cancellation cannot cross the process
        boundary, but the parent drops the answer.)  Returns True when
        the cancellation won (the request had not already settled)."""
        self.cancelled = True       # worker reads this before computing
        return self._fail(RequestCancelledError("request cancelled"))

    def add_done_callback(self, callback) -> None:
        """Call ``callback(request)`` once settled (immediately if the
        request is already done), from the settling thread."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        self._run_callback(callback)

    def done(self) -> bool:
        return self._event.is_set()

    def exception(self) -> BaseException | None:
        """The request's error, or None (valid once ``done()``)."""
        return self._error

    def result(self, timeout: float | None = None):
        """Block until the estimate is ready; raises the request's typed
        error (``TimeoutError`` on a missed deadline,
        ``RequestCancelledError`` after a cancellation, ``LoadShedError``
        / ``WorkerUnavailableError`` from a cluster)."""
        if not self._event.wait(timeout):
            raise TimeoutError("estimate not ready")
        if self._error is not None:
            raise self._error
        if self.single:
            return float(np.asarray(self._value).reshape(-1)[0])
        return self._value

    def latency(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class EstimateService:
    """Sync + deadline-aware micro-batching API over a model registry;
    work-conserving, with no batching window (see the module docstring)."""

    def __init__(self, registry: ModelRegistry, cache: ResultCache, *,
                 max_batch: int, seed: int, expander=None,
                 scale: float | None = None,
                 metrics: MetricsRegistry | None = None, events=None):
        self.registry = registry
        self.cache = cache
        # Query translation hooks for non-table namespaces (joins): an
        # ``expander(model, query) -> constraints`` replaces the default
        # mask expansion, and ``scale`` replaces ``table.num_rows`` as
        # the selectivity -> cardinality multiplier (e.g. |J| for a join
        # sample, where the snapshot's table is the sample, not the
        # estimand).
        self.expander = expander
        self.scale = None if scale is None else float(scale)
        self.max_batch = int(max_batch)
        self._rng = np.random.default_rng(seed)
        # Hot-signature tracker feeding post-swap cache warming
        # (repro.serve.modelops): cache key -> [hit count, query].
        self._hot: "OrderedDict[bytes, list]" = OrderedDict()
        self._hot_capacity = 4096
        self._hot_lock = threading.Lock()
        # Engine buffer pools are per-snapshot but not thread-safe; sync
        # callers and the worker serialise actual compute through this.
        self._engine_lock = threading.Lock()
        self._cond = threading.Condition()
        self._pending: deque[EstimateRequest] = deque()
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        # EWMA of per-query compute seconds; None until the first flush
        # is measured (no shedding before there is an observation).
        self._cost_per_query: float | None = None
        # Every count lives only in the metrics registry (one shared
        # registry across namespaces when routed), namespace-labeled;
        # read one with ``metrics.total(name, namespace=...)``.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EVENTS
        ns = self.namespace = registry.name
        m = self.metrics
        lab = ("namespace",)
        self._c_served = m.counter(
            "repro_serve_served_total",
            "Requests answered with an estimate", lab).labels(namespace=ns)
        self._c_cache = m.counter(
            "repro_serve_cache_hits_total",
            "Requests answered from the result cache", lab).labels(namespace=ns)
        self._c_deadline = m.counter(
            "repro_serve_deadline_misses_total",
            "Requests failed because their deadline lapsed", lab).labels(namespace=ns)
        self._c_sheds = m.counter(
            "repro_serve_budget_sheds_total",
            "Requests shed pre-compute by the deadline budget projection",
            lab).labels(namespace=ns)
        self._c_cancel = m.counter(
            "repro_serve_cancellations_total",
            "Requests abandoned by their caller", lab).labels(namespace=ns)
        self._c_flushes = m.counter(
            "repro_serve_flushes_total",
            "Micro-batch flushes through the engine", lab).labels(namespace=ns)
        self._c_callback_errors = m.counter(
            "repro_serve_callback_errors_total",
            "Done-callbacks that raised in the settling thread",
            lab).labels(namespace=ns)
        self._f_failures = m.counter(
            "repro_serve_failures_total",
            "Requests failed by an engine/compute error",
            ("namespace", "error"))
        self._h_latency = m.histogram(
            "repro_serve_latency_seconds",
            "Submit-to-settle latency of served requests", lab).labels(namespace=ns)
        self._h_stage = m.histogram(
            "repro_serve_stage_seconds",
            "Per-request time in each serving stage",
            ("namespace", "stage"))
        self._h_batch = m.histogram(
            "repro_serve_batch_size",
            "Live requests per micro-batch flush", lab,
            buckets=BATCH_SIZE_BUCKETS).labels(namespace=ns)
        m.gauge("repro_serve_queue_depth",
                "Requests waiting for the next micro-batch", lab) \
            .labels(namespace=ns).set_function(lambda: len(self._pending))
        m.gauge("repro_serve_model_version",
                "Active model version in the registry", lab) \
            .labels(namespace=ns).set_function(lambda: self.registry.version)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimateService":
        """Start the micro-batching worker (idempotent)."""
        if self._worker is None or not self._worker.is_alive():
            self._stop.clear()
            self._spawn_worker()
        return self

    def _spawn_worker(self) -> None:
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="estimate-service",
                                        daemon=True)
        self._worker.start()

    def stop(self) -> None:
        """Drain-free shutdown: pending requests fail with RuntimeError."""
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=5.0)
            self._worker = None
        with self._cond:
            while self._pending:
                self._pending.popleft()._fail(
                    RuntimeError("service stopped"))

    @property
    def running(self) -> bool:
        """Started and not stopped.  A worker thread that died in
        between is respawned by the next ``submit``."""
        return self._worker is not None and not self._stop.is_set()

    def __enter__(self) -> "EstimateService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, query: Query, deadline_ms: float | None = None,
               trace=None) -> EstimateRequest:
        """Enqueue one query; returns a future-like request handle.

        Never blocks on a running service: a cache hit comes back
        already settled, a miss is queued for the worker (a worker that
        died is respawned first — the engine never runs on the caller,
        which may be an event loop).  Only a service that was never
        started, or was stopped, serves the request inline (still via
        the scheduler, still cached) so the sync API never needs a
        thread.  ``trace`` (an :class:`repro.obs.Trace`) rides on the
        request and collects queue-wait/compute/settle spans.
        """
        snap = self.registry.active()
        constraints = self._expand(snap, query)
        key = ResultCache.signature(constraints)
        self._record_hot(key, query)
        deadline = None if deadline_ms is None \
            else time.perf_counter() + deadline_ms / 1e3
        request = EstimateRequest(query, constraints, key, deadline,
                                  trace=trace)
        request.on_callback_error = self._callback_failed
        hit = self.cache.get(key, snap.version)
        if hit is not None:
            request._complete(hit, snap.version, from_cache=True)
            self._c_cache.inc()
            self._c_served.inc()
            self._h_latency.observe(request.latency())
            if trace is not None:
                trace.add_span("cache_hit", request.submitted_at,
                               request.completed_at, version=snap.version)
            return request
        enqueued = False
        with self._cond:
            # Liveness re-checked under the lock: stop() sets _stop and
            # drains _pending while holding it, so a request can never
            # slip in after the drain and hang its caller.
            worker = self._worker
            if worker is not None and not self._stop.is_set():
                if not worker.is_alive():
                    self.events.emit("batcher_restart",
                                     namespace=self.namespace)
                    self._spawn_worker()
                self._pending.append(request)
                self._cond.notify()
                enqueued = True
        if not enqueued:
            self._flush([request])
        return request

    def estimate(self, query: Query,
                 deadline_ms: float | None = None) -> float:
        """Synchronous single-query cardinality estimate."""
        request = self.submit(query, deadline_ms=deadline_ms)
        budget = None if deadline_ms is None \
            else deadline_ms / 1e3 + DEADLINE_GRACE_S
        return request.result(timeout=budget)

    def estimate_batch(self, queries: list[Query], seed: int | None = None,
                       use_cache: bool = True) -> np.ndarray:
        """Synchronous bulk path (bench drivers, backfills).

        ``seed`` pins the sampling stream: two calls with the same seed,
        queries, and model version return bit-identical estimates — the
        reproducibility contract the hot-swap benchmark checks.  Seeded
        calls bypass the cache (a cached value from unseeded traffic
        would both short-circuit a query and shift which part of the
        seeded stream the remaining queries consume).
        """
        if not queries:
            return np.zeros(0, dtype=np.float64)
        use_cache = use_cache and seed is None
        snap = self.registry.active()
        constraints = [self._expand(snap, q) for q in queries]
        out = np.empty(len(queries), dtype=np.float64)
        todo: list[int] = []
        keys: list[bytes | None] = [None] * len(queries)
        for i, cl in enumerate(constraints):
            if use_cache:
                keys[i] = ResultCache.signature(cl)
                self._record_hot(keys[i], queries[i])
                hit = self.cache.get(keys[i], snap.version)
                if hit is not None:
                    out[i] = hit
                    self._c_cache.inc()
                    continue
            todo.append(i)
        if todo:
            cards = self._compute(snap, [constraints[i] for i in todo], seed)
            for j, i in enumerate(todo):
                out[i] = cards[j]
                if keys[i] is not None:
                    self.cache.put(keys[i], snap.version, float(cards[j]))
        self._c_served.inc(len(queries))
        return out

    def estimate_on(self, snap: ModelVersion, queries: list[Query],
                    seed: int | None = None) -> np.ndarray:
        """Direct compute on a *specific* snapshot — no cache, no queue.

        The reference the hot-swap consistency checks compare against:
        a service answer for version ``v`` must be bit-identical to
        ``estimate_on(registry.get(v), ...)`` with the same seed.
        """
        constraints = [self._expand(snap, q) for q in queries]
        return self._compute(snap, constraints, seed)

    # ------------------------------------------------------------------
    # Hot-signature tracking + post-swap cache warming
    # ------------------------------------------------------------------
    def _record_hot(self, key: bytes, query: Query) -> None:
        with self._hot_lock:
            entry = self._hot.get(key)
            if entry is not None:
                entry[0] += 1
                return
            self._hot[key] = [1, query]
            if len(self._hot) > self._hot_capacity:
                # Keep the hottest half; one O(n log n) pass amortised
                # over capacity/2 inserts.
                keep = sorted(self._hot.items(), key=lambda kv: kv[1][0],
                              reverse=True)[:self._hot_capacity // 2]
                self._hot = OrderedDict(keep)

    def hot_queries(self, n: int) -> list[Query]:
        """The ``n`` most-requested distinct queries (by cache-key hit
        count) — the replay set for post-swap cache warming."""
        with self._hot_lock:
            ranked = sorted(self._hot.values(), key=lambda e: e[0],
                            reverse=True)
        return [query for _count, query in ranked[:max(0, int(n))]]

    def warm_cache(self, queries: list[Query], *, version: int | None = None,
                   seed=0) -> int:
        """Replay ``queries`` through the active snapshot and prime the
        result cache with the answers; returns entries written.

        Uses its own seeded stream (never the service's live ``_rng``),
        so background warming cannot perturb foreground sampling.  With
        ``version`` given, a swap that lands before the replay starts
        makes this a no-op instead of warming a superseded snapshot.
        """
        if not queries:
            return 0
        snap = self.registry.active()
        if version is not None and snap.version != version:
            return 0
        constraints = [self._expand(snap, q) for q in queries]
        keys = [ResultCache.signature(cl) for cl in constraints]
        todo = [i for i, key in enumerate(keys)
                if self.cache.get(key, snap.version) is None]
        if not todo:
            return 0
        cards = self._compute(snap, [constraints[i] for i in todo], seed)
        for j, i in enumerate(todo):
            self.cache.put(keys[i], snap.version, float(cards[j]))
        return len(todo)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _callback_failed(self, request, exc: BaseException) -> None:
        self._c_callback_errors.inc()
        self.events.emit("callback_error", namespace=self.namespace,
                         error=type(exc).__name__, detail=str(exc))

    def _expand(self, snap: ModelVersion, query: Query) -> list:
        if self.expander is not None:
            return self.expander(snap.model, query)
        return snap.model.constraints(query)

    def _compute(self, snap: ModelVersion, constraint_lists: list[list],
                 seed: int | None = None) -> np.ndarray:
        rng = self._rng if seed is None else np.random.default_rng(seed)
        with self._engine_lock:
            engine = snap.model.engine
            if engine.metrics is not self.metrics:
                # Each snapshot owns its engine; point it at the
                # service registry so batch-loop metrics aggregate here.
                engine.metrics = self.metrics
            return snap.model.cardinalities(constraint_lists, rng,
                                            self.scale)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            batch = self._gather()
            if batch:
                self._flush(batch)

    def _gather(self) -> list[EstimateRequest]:
        """Work-conserving: wait for a request (``stop()`` notifies), then
        take everything already queued, up to ``max_batch``, at once."""
        with self._cond:
            while not self._pending and not self._stop.is_set():
                self._cond.wait()
            if self._stop.is_set():
                return []
            return [self._pending.popleft()
                    for _ in range(min(len(self._pending), self.max_batch))]

    def _flush(self, batch: list[EstimateRequest]) -> None:
        snap = self.registry.active()
        now = time.perf_counter()
        live: list[EstimateRequest] = []
        for req in batch:
            if req.cancelled:
                # Abandoned by the caller (e.g. an asyncio client went
                # away): never give it a batch slot or engine time.
                self._c_cancel.inc()
                self.events.emit("cancel", namespace=self.namespace,
                                 stage="pre_compute")
                continue
            if req.deadline is not None and now > req.deadline:
                if req._fail(TimeoutError("deadline expired before "
                                          "compute")):
                    self._c_deadline.inc()
                continue
            hit = self.cache.get(req.key, snap.version)
            if hit is not None:
                if req._complete(hit, snap.version, from_cache=True):
                    self._c_cache.inc()
                    self._c_served.inc()
                    self._h_latency.observe(req.latency())
                continue
            live.append(req)
        if not live:
            return
        if self._cost_per_query is not None:
            # Deadline-first budget shedding: project this batch's
            # compute from the observed per-query cost and fail, before
            # any engine time is spent, every request whose remaining
            # budget (deadline minus the queue wait already paid) cannot
            # cover it.  Dropping them also shrinks the batch, which can
            # bring the projection under the survivors' deadlines.
            kept: list[EstimateRequest] = []
            for req in sorted(live, key=lambda r: (r.deadline is None,
                                                   r.deadline)):
                eta = now + self._cost_per_query * (len(kept) + 1)
                if req.deadline is not None and eta > req.deadline:
                    if req._fail(TimeoutError(
                            "remaining deadline budget below projected "
                            "compute cost; shed before compute")):
                        self._c_sheds.inc()
                        self._c_deadline.inc()
                        self.events.emit("shed", namespace=self.namespace,
                                         reason="budget",
                                         projected_eta_s=eta - now)
                    continue
                kept.append(req)
            if not kept:
                return
            if len(kept) != len(live):      # keep submission order
                kept_ids = {id(req) for req in kept}
                live = [req for req in live if id(req) in kept_ids]
        self._c_flushes.inc()
        self._h_batch.observe(len(live))
        stage_queue = self._h_stage.labels(namespace=self.namespace,
                                           stage="queue_wait")
        for req in live:
            stage_queue.observe(now - req.submitted_at)
            if req.trace is not None:
                req.trace.add_span("queue_wait", req.submitted_at, now)
        try:
            cards = self._compute(snap, [r.constraints for r in live])
        except BaseException as exc:  # noqa: BLE001 - fail the batch, keep serving
            fail = self._f_failures.labels(namespace=self.namespace,
                                           error=type(exc).__name__)
            for req in live:
                if req._fail(exc):
                    fail.inc()
            return
        done_at = time.perf_counter()
        per_query = (done_at - now) / len(live)
        self._cost_per_query = per_query if self._cost_per_query is None \
            else 0.75 * self._cost_per_query + 0.25 * per_query
        stage_compute = self._h_stage.labels(namespace=self.namespace,
                                             stage="compute")
        stage_settle = self._h_stage.labels(namespace=self.namespace,
                                            stage="settle")
        for req, card in zip(live, cards):
            stage_compute.observe(done_at - now)
            if req.trace is not None:
                req.trace.add_span("compute", now, done_at,
                                   batch=len(live), version=snap.version)
            # Cache regardless of the requester's deadline — the
            # estimate is valid for this version either way.
            self.cache.put(req.key, snap.version, float(card))
            if req.deadline is not None and done_at > req.deadline:
                if req._fail(TimeoutError("deadline expired during "
                                          "compute")):
                    self._c_deadline.inc()
                continue
            if req._complete(float(card), snap.version):
                self._c_served.inc()
                self._h_latency.observe(req.latency())
                stage_settle.observe(req.completed_at - done_at)
                if req.trace is not None:
                    req.trace.add_span("settle", done_at, req.completed_at)
            else:
                # Cancelled while the engine ran: the answer is valid
                # (and cached above) but nobody is waiting for it.
                self._c_cancel.inc()
                self.events.emit("cancel", namespace=self.namespace,
                                 stage="post_compute")

    def stats(self) -> dict:
        # State, not counts: those (and the latency histogram) are
        # series in ``self.metrics``.  Time keys carry unit suffixes.
        return {"model_version": self.registry.version,
                "cost_ewma_seconds": self._cost_per_query,
                "cache": self.cache.stats()}
