"""Multi-table serving front door: namespaces, routing, shared capacity.

PR 3's loop served exactly one table.  Production traffic names many
targets — several base tables and join schemas — so this module puts one
front door in front of many per-namespace serving stacks:

* :class:`MultiTableRegistry` keys the per-namespace
  :class:`~repro.serve.registry.ModelRegistry` instances (each owned by a
  :class:`~repro.serve.server.UAEServer`) by *namespace* — one per table
  or join schema — and resolves each query to its namespace from the
  query's :func:`~repro.workload.predicate.routing_signature`: join
  queries route by the tables they touch (smallest covering join schema
  wins), single-table queries by the columns their predicates constrain.
  Misses raise a typed :class:`UnknownNamespaceError`; genuinely
  ambiguous targets raise :class:`AmbiguousNamespaceError` instead of
  guessing (pass ``namespace=`` to disambiguate).
* :class:`RoutedEstimateService` is the front door: ``submit`` /
  ``estimate`` / ``estimate_batch`` dispatch each query to the right
  namespace's micro-batcher.  Namespaces are fully isolated — their own
  registry, result cache, feedback monitor, and sampling streams — so a
  hot-swap in one namespace can never change another namespace's
  per-version seeded answers (the isolation invariant
  ``python -m repro.bench serving`` checks bit-exactly).
* :class:`RefinementPool` is the shared capacity manager: one bounded
  worker pool runs *all* namespaces' background refinements, draining
  per-namespace job queues round-robin so a chatty namespace cannot
  starve the others' drift-triggered refinements.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque

import numpy as np

from ..workload.predicate import routing_signature
from .registry import ModelRegistry
from .server import (AmbiguousNamespaceError, Namespace,  # noqa: F401
                     RoutingError, UAEServer, UnknownNamespaceError)
from .service import EstimateRequest


# ----------------------------------------------------------------------
# Shared refinement capacity
# ----------------------------------------------------------------------
class RefinementJob:
    """A queued background refinement; future-like, and thread-shaped
    (``is_alive``/``join``) so :class:`UAEServer` treats pool jobs and
    its private threads uniformly."""

    __slots__ = ("namespace", "fn", "args", "submitted_at", "started_at",
                 "finished_at", "_event", "_result", "_error")

    def __init__(self, namespace: str, fn, args: tuple):
        self.namespace = namespace
        self.fn = fn
        self.args = args
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    def _run(self) -> None:
        self.started_at = time.perf_counter()
        try:
            self._result = self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 - surfaced via result()
            self._error = exc
        finally:
            self.finished_at = time.perf_counter()
            self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.finished_at = time.perf_counter()
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def is_alive(self) -> bool:
        """Pending or running (thread-compatible liveness)."""
        return not self._event.is_set()

    def join(self, timeout: float | None = None) -> None:
        self._event.wait(timeout)

    def result(self, timeout: float | None = None):
        if not self._event.wait(timeout):
            raise TimeoutError("refinement not finished")
        if self._error is not None:
            raise self._error
        return self._result


class RefinementPool:
    """Bounded trainer pool shared across namespaces, drained fairly.

    Each namespace gets its own FIFO queue; workers pop queues
    round-robin, so with ``max_workers=1`` a namespace that submits ten
    refinements still yields to every other namespace between its own
    jobs — no namespace starves behind a hot one.  Workers start lazily
    on the first ``submit``.
    """

    def __init__(self, max_workers: int = 1, name: str = "refinement-pool",
                 metrics=None):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self.name = name
        self._cond = threading.Condition()
        self._queues: "OrderedDict[str, deque[RefinementJob]]" = OrderedDict()
        self._rotation: deque[str] = deque()   # namespaces with pending jobs
        self._workers: list[threading.Thread] = []
        self._stop = False
        self._closing = False
        self._active = 0
        self.completed = 0
        self.failed = 0
        self.per_namespace: dict[str, int] = {}
        self.metrics = metrics
        self._c_jobs = self._h_job = self._h_queue_wait = None
        if metrics is not None:
            self._c_jobs = metrics.counter(
                "repro_pool_jobs_total", "Refinement-pool jobs finished",
                ("namespace", "outcome"))
            self._h_job = metrics.histogram(
                "repro_pool_job_seconds", "Refinement job run time",
                ("namespace",))
            self._h_queue_wait = metrics.histogram(
                "repro_pool_queue_wait_seconds",
                "Time a refinement job waited for a pool worker",
                ("namespace",))
            metrics.gauge("repro_pool_active",
                          "Refinement jobs currently running") \
                .set_function(lambda: float(self._active))
            metrics.gauge("repro_pool_pending",
                          "Refinement jobs queued behind the workers") \
                .set_function(lambda: float(self.pending()))

    # ------------------------------------------------------------------
    def _spawn_workers_locked(self) -> None:
        self._workers = [t for t in self._workers if t.is_alive()]
        while len(self._workers) < self.max_workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-{len(self._workers)}", daemon=True)
            self._workers.append(thread)
            thread.start()

    def start(self) -> "RefinementPool":
        with self._cond:
            self._stop = False
            self._closing = False
            self._spawn_workers_locked()
        return self

    def submit(self, namespace: str, fn, *args) -> RefinementJob:
        """Queue ``fn(*args)`` on ``namespace``'s lane; returns the job.

        Workers spawn lazily under the same lock as the enqueue: a
        ``stop()`` racing this call either sees the job (and fails it)
        or beats the stop-check (and ``submit`` raises) — it can never
        be silently resurrected afterwards.
        """
        job = RefinementJob(str(namespace), fn, args)
        with self._cond:
            if self._stop or self._closing:
                raise RuntimeError("refinement pool is stopped")
            queue = self._queues.setdefault(job.namespace, deque())
            queue.append(job)
            if job.namespace not in self._rotation:
                self._rotation.append(job.namespace)
            self._spawn_workers_locked()
            self._cond.notify()
        return job

    def _next_locked(self) -> RefinementJob | None:
        """Round-robin pop: take the head namespace's oldest job, then
        move that namespace to the rotation's tail (if it still has
        work) so every namespace advances once per cycle."""
        while self._rotation:
            namespace = self._rotation.popleft()
            queue = self._queues.get(namespace)
            if not queue:
                continue
            job = queue.popleft()
            if queue:
                self._rotation.append(namespace)
            return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = None
                while not self._stop:
                    job = self._next_locked()
                    if job is not None:
                        break
                    self._cond.wait(timeout=0.1)
                if job is None:
                    return
                self._active += 1
            try:
                job._run()
            finally:
                with self._cond:
                    self._active -= 1
                    self.completed += 1
                    if job._error is not None:
                        self.failed += 1
                    self.per_namespace[job.namespace] = \
                        self.per_namespace.get(job.namespace, 0) + 1
                    self._cond.notify_all()
                if self._c_jobs is not None:
                    outcome = "error" if job._error is not None else "ok"
                    self._c_jobs.labels(namespace=job.namespace,
                                        outcome=outcome).inc()
                    self._h_job.labels(namespace=job.namespace).observe(
                        job.finished_at - job.started_at)
                    self._h_queue_wait.labels(namespace=job.namespace) \
                        .observe(job.started_at - job.submitted_at)

    def stop(self) -> None:
        """Stop workers; queued-but-unstarted jobs fail with RuntimeError."""
        with self._cond:
            self._stop = True
            pending = [job for queue in self._queues.values()
                       for job in queue]
            self._queues.clear()
            self._rotation.clear()
            self._cond.notify_all()
        for job in pending:
            job._fail(RuntimeError("refinement pool stopped"))
        for thread in self._workers:
            thread.join(timeout=5.0)
        self._workers = []

    def close(self, timeout: float | None = 5.0) -> bool:
        """Graceful shutdown: stop accepting work, drain what's queued,
        then stop the workers.

        New ``submit`` calls fail immediately; already-queued and
        running refinements get up to ``timeout`` seconds to finish
        (``None`` waits indefinitely).  Whatever is still pending when
        the budget lapses is cancelled with the usual typed
        RuntimeError, exactly as :meth:`stop` would.  Returns True when
        the pool drained fully, False when the timeout cut it short —
        callers that must not lose refinements can check and retry.
        """
        with self._cond:
            self._closing = True
        drained = self.join(timeout=timeout)
        self.stop()
        return drained

    def join(self, timeout: float | None = None) -> bool:
        """Block until the pool is idle; returns False on timeout."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            while self._rotation or self._active:
                remaining = None if deadline is None \
                    else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=0.05 if remaining is None
                                else min(0.05, remaining))
        return True

    def pending(self) -> int:
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def stats(self) -> dict:
        with self._cond:
            return {"workers": self.max_workers,
                    "active": self._active,
                    "pending": sum(len(q) for q in self._queues.values()),
                    "completed": self.completed,
                    "failed": self.failed,
                    "per_namespace": dict(self.per_namespace)}


# ----------------------------------------------------------------------
# Namespaces + routing
# ----------------------------------------------------------------------
class MultiTableRegistry:
    """Keys per-namespace model registries; resolves queries to them.

    Routing rules (see :func:`~repro.workload.routing_signature`):

    * a join query (has ``tables``) routes to the join namespace whose
      schema covers all its tables; when several cover it, the smallest
      schema wins (exact match beats superset), and a tie raises
      :class:`AmbiguousNamespaceError`;
    * a single-table query routes to the unique table namespace whose
      column set covers every predicated column; zero matches raise
      :class:`UnknownNamespaceError`, several raise
      :class:`AmbiguousNamespaceError`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._spaces: "OrderedDict[str, Namespace]" = OrderedDict()

    # ------------------------------------------------------------------
    def register(self, space: Namespace) -> Namespace:
        with self._lock:
            if space.name in self._spaces:
                raise ValueError(f"namespace {space.name!r} already "
                                 "registered")
            self._spaces[space.name] = space
        return space

    def get(self, name: str) -> Namespace:
        with self._lock:
            space = self._spaces.get(name)
        if space is None:
            raise UnknownNamespaceError(
                f"unknown namespace {name!r} (have {self.names()})")
        return space

    def registry(self, name: str) -> ModelRegistry:
        """The namespace's versioned model registry."""
        return self.get(name).registry

    def names(self) -> list[str]:
        with self._lock:
            return list(self._spaces)

    def spaces(self) -> list[Namespace]:
        with self._lock:
            return list(self._spaces.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._spaces

    def __len__(self) -> int:
        with self._lock:
            return len(self._spaces)

    def __iter__(self):
        return iter(self.spaces())

    # ------------------------------------------------------------------
    def resolve(self, query, namespace: str | None = None) -> Namespace:
        """The namespace serving ``query`` (explicit ``namespace`` wins)."""
        if namespace is not None:
            return self.get(namespace)
        kind, targets = routing_signature(query)
        if kind == "join":
            spaces = [s for s in self.spaces()
                      if s.kind == "join" and s.tables >= targets]
            if not spaces:
                raise UnknownNamespaceError(
                    f"no join namespace covers tables {sorted(targets)} "
                    f"(have {self.names()})")
            smallest = min(len(s.tables) for s in spaces)
            spaces = [s for s in spaces if len(s.tables) == smallest]
        else:
            spaces = [s for s in self.spaces()
                      if s.kind == "table" and s.columns >= targets]
            if not spaces:
                raise UnknownNamespaceError(
                    f"no table namespace covers columns {sorted(targets)} "
                    f"(have {self.names()})")
        if len(spaces) > 1:
            raise AmbiguousNamespaceError(
                f"{kind} targets {sorted(targets)} match namespaces "
                f"{[s.name for s in spaces]}; pass namespace= to pick one")
        return spaces[0]


def group_by_namespace(resolve, queries: list,
                       namespace: str | None = None) -> list:
    """``[(namespace, query indices)]`` in first-seen order, each group
    in stream order — the grouping every front's ``estimate_batch`` runs,
    so a seeded call is bit-reproducible *per namespace* whichever front
    (and whichever other namespaces in the batch) it went through."""
    groups: dict[str, tuple[Namespace, list[int]]] = {}
    for i, query in enumerate(queries):
        space = resolve(query, namespace=namespace)
        groups.setdefault(space.name, (space, []))[1].append(i)
    return list(groups.values())


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
class RoutedEstimateService:
    """One estimate API over many per-namespace serving stacks.

    Each ``add_table``/``add_join`` builds a full
    :class:`~repro.serve.server.UAEServer` (registry + micro-batching
    service + result cache + feedback monitor) for that namespace, wired
    to the shared :class:`RefinementPool`.  The front door then routes
    every query to its namespace's micro-batcher; nothing is shared
    between namespaces except the bounded trainer pool, which is exactly
    what makes the isolation invariant (a hot-swap in namespace A never
    perturbs namespace B's per-version seeded answers) hold by
    construction.
    """

    def __init__(self, *, pool_workers: int = 1, cache_capacity: int = 8192,
                 keep_versions: int = 3, max_batch: int = 32,
                 max_wait_ms: float = 2.0, seed: int = 0,
                 refine_epochs: int = 8, data_epochs: int = 3,
                 auto_refine: bool = False,
                 metrics=None, events=None):
        from ..obs import EVENTS, MetricsRegistry
        self.registry = MultiTableRegistry()
        # One shared metrics registry + event log across namespaces: the
        # routed front door (and /metrics) sees every namespace's series
        # side by side, distinguished by the ``namespace`` label.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EVENTS
        self.pool = RefinementPool(max_workers=pool_workers,
                                   metrics=self.metrics)
        self._seed = int(seed)
        self._defaults = dict(cache_capacity=cache_capacity,
                              keep_versions=keep_versions,
                              max_batch=max_batch, max_wait_ms=max_wait_ms,
                              refine_epochs=refine_epochs,
                              data_epochs=data_epochs,
                              auto_refine=auto_refine,
                              metrics=self.metrics, events=self.events)
        self._running = False

    # ------------------------------------------------------------------
    # Namespace management
    # ------------------------------------------------------------------
    def add_table(self, estimator, *, namespace: str | None = None,
                  feedback=None, **overrides) -> Namespace:
        """Register a single-table namespace (defaults to the table name)."""
        name = namespace or estimator.table.name
        server = UAEServer(estimator, feedback=feedback, namespace=name,
                           pool=self.pool, seed=self._seed,
                           **{**self._defaults, **overrides})
        space = Namespace(name=name, server=server, kind="table",
                          tables=frozenset({estimator.table.name}),
                          columns=frozenset(estimator.table.column_names))
        self.registry.register(space)
        if self._running:
            server.start()
        return space

    def add_join(self, join, *, namespace: str | None = None,
                 feedback=None, **overrides) -> Namespace:
        """Register a join-schema namespace for a
        :class:`~repro.joins.UAEJoin` (or NeuroCard) estimator.

        The namespace serves snapshots of the estimator's inner UAE; the
        join's constraint expander translates each
        :class:`~repro.joins.JoinQuery` into fanout-scaled constraints,
        and estimates scale by the full outer join's size.
        """
        name = namespace or "+".join(sorted(join.schema.tables))
        server = UAEServer(join.uae, feedback=feedback, namespace=name,
                           pool=self.pool, seed=self._seed,
                           expander=join.constraint_expander(),
                           scale=float(join.join_size),
                           **{**self._defaults, **overrides})
        space = Namespace(name=name, server=server, kind="join",
                          tables=frozenset(join.schema.tables),
                          columns=frozenset())
        self.registry.register(space)
        if self._running:
            server.start()
        return space

    def namespace(self, name: str) -> Namespace:
        return self.registry.get(name)

    def resolve(self, query, namespace: str | None = None) -> Namespace:
        return self.registry.resolve(query, namespace=namespace)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RoutedEstimateService":
        self.pool.start()
        for space in self.registry:
            space.server.start()
        self._running = True
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Graceful front-door shutdown: in-flight refinements get up to
        ``timeout`` seconds to drain before the pool is stopped."""
        self._running = False
        for space in self.registry:
            space.server.stop(timeout=timeout)
        self.pool.close(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._running

    def __enter__(self) -> "RoutedEstimateService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, query, *, namespace: str | None = None,
               deadline_ms: float | None = None,
               trace=None) -> EstimateRequest:
        space = self.resolve(query, namespace=namespace)
        return space.server.submit(query, deadline_ms=deadline_ms,
                                   trace=trace)

    def estimate(self, query, *, namespace: str | None = None,
                 deadline_ms: float | None = None) -> float:
        space = self.resolve(query, namespace=namespace)
        return space.server.estimate(query, deadline_ms=deadline_ms)

    def estimate_batch(self, queries: list, *,
                       namespace: str | None = None, seed: int | None = None,
                       use_cache: bool = True) -> np.ndarray:
        """Bulk path over a (possibly mixed-namespace) query list.

        Queries are grouped by resolved namespace and each group runs
        through its own service in stream order, so a seeded call is
        bit-reproducible *per namespace* — the answers a namespace gives
        do not depend on which other namespaces appear in the batch.
        """
        out = np.empty(len(queries), dtype=np.float64)
        for space, indices in group_by_namespace(self.resolve, queries,
                                                 namespace):
            out[indices] = space.server.estimate_batch(
                [queries[i] for i in indices], seed=seed,
                use_cache=use_cache)
        return out

    def estimate_on(self, namespace: str, queries: list, *,
                    version: int | None = None,
                    seed: int | None = None) -> np.ndarray:
        """Direct compute on one namespace's snapshot (reference path for
        the per-version reproducibility and isolation checks)."""
        space = self.registry.get(namespace)
        registry = space.server.registry
        snap = registry.active() if version is None \
            else registry.get(version)
        if snap is None:
            raise KeyError(f"namespace {namespace!r} does not retain "
                           f"version {version}")
        return space.server.service.estimate_on(snap, queries, seed=seed)

    # ------------------------------------------------------------------
    # Feedback + shared-capacity maintenance
    # ------------------------------------------------------------------
    def observe(self, query, true_cardinality: float,
                estimate: float | None = None, *,
                namespace: str | None = None) -> float:
        """Route an executed query's truth to its namespace's monitor."""
        space = self.resolve(query, namespace=namespace)
        return space.server.observe(query, true_cardinality,
                                    estimate=estimate)

    def maintain(self, background: bool = True) -> dict:
        """One maintenance sweep: refine every namespace whose feedback
        monitor reports drift.  Background refinements queue on the
        shared pool (fair across namespaces); inline ones run here.
        Returns {namespace: job-or-record} for namespaces that kicked
        off a refinement."""
        started = {}
        for space in self.registry:
            if not space.server.feedback.should_refine():
                continue
            result = space.server.refine(background=background)
            if result is not None:
                started[space.name] = result
        return started

    def stats(self) -> dict:
        return {"namespaces": {space.name: space.server.stats()
                               for space in self.registry},
                "pool": self.pool.stats()}
