"""Multi-table serving front door: namespaces, routing, shared capacity.

Production traffic names many targets — several base tables and join
schemas — so this module puts one front door in front of many
per-namespace serving stacks; one table is simply a front with one
namespace:

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
* :class:`RoutedEstimateService` is the in-process front, for one table
  or many: ``submit`` / ``estimate`` / ``estimate_batch`` dispatch each
  query to the right namespace's micro-batcher.  Namespaces are fully
  isolated — their own registry, result cache, feedback monitor, and
  sampling streams — so a hot-swap in one namespace can never change
  another namespace's per-version seeded answers (the isolation invariant
  ``python -m repro.bench serving`` checks bit-exactly).  Every setting
  has one entry point: what all namespaces share is a front keyword,
  what one namespace varies is an ``add_table`` / ``add_join`` keyword.
* :class:`RefinementPool` is the shared capacity manager: one trainer
  thread runs *all* namespaces' background refinements, draining
  per-namespace job queues round-robin so a chatty namespace cannot
  starve the others' drift-triggered refinements.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ..obs import EVENTS, MetricsRegistry
from ..workload.predicate import routing_signature
from .registry import ModelRegistry
from .server import UAEServer
from .service import EstimateRequest


# ----------------------------------------------------------------------
# Shared refinement capacity
# ----------------------------------------------------------------------
class RefinementJob:
    """A queued background refinement; future-like (``result``/``done``)
    with ``is_alive``/``join``, which :class:`UAEServer` uses to tell
    whether its last refinement is still pending or running."""

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
        """Run ``fn``; the pool settles the job once it is counted."""
        self.started_at = time.perf_counter()
        try:
            self._result = self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 - surfaced via result()
            self._error = exc
        finally:
            self.finished_at = time.perf_counter()

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
    """One trainer thread shared across namespaces, drained fairly.

    Each namespace gets its own FIFO queue; the thread pops queues
    round-robin, so a namespace that submits ten refinements still
    yields to every other namespace between its own jobs — no namespace
    starves behind a hot one.  The thread starts lazily on the first
    ``submit``.
    """

    #: Trainer threads: refinements run one at a time across namespaces.
    WORKERS = 1
    #: Name of the trainer thread.
    NAME = "refinement-pool"

    def __init__(self, metrics=None):
        self._cond = threading.Condition()
        self._queues: "OrderedDict[str, deque[RefinementJob]]" = OrderedDict()
        self._rotation: deque[str] = deque()   # namespaces with pending jobs
        self._worker: threading.Thread | None = None
        self._stop = False
        self._closing = False
        self._active = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_jobs = self.metrics.counter(
            "repro_pool_jobs_total", "Refinement-pool jobs finished",
            ("namespace", "outcome"))
        self._h_job = self.metrics.histogram(
            "repro_pool_job_seconds", "Refinement job run time",
            ("namespace",))
        self._h_queue_wait = self.metrics.histogram(
            "repro_pool_queue_wait_seconds",
            "Time a refinement job waited for a pool worker",
            ("namespace",))
        self.metrics.gauge("repro_pool_active",
                           "Refinement jobs currently running") \
            .set_function(lambda: float(self._active))
        self.metrics.gauge("repro_pool_pending",
                           "Refinement jobs queued behind the workers") \
            .set_function(lambda: float(self.pending()))

    # ------------------------------------------------------------------
    def _spawn_worker_locked(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop, name=f"{self.NAME}-0", daemon=True)
            self._worker.start()

    def start(self) -> "RefinementPool":
        with self._cond:
            self._stop = False
            self._closing = False
            self._spawn_worker_locked()
        return self

    def submit(self, namespace: str, fn, *args) -> RefinementJob:
        """Queue ``fn(*args)`` on ``namespace``'s lane; returns the job.

        The thread spawns lazily under the same lock as the enqueue: a
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
            self._spawn_worker_locked()
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
                # Counted before the job settles and before notify_all,
                # so neither job.result() nor join() returns before the
                # job shows in repro_pool_jobs_total.
                outcome = "error" if job._error is not None else "ok"
                with self._cond:
                    self._active -= 1
                    self._c_jobs.labels(namespace=job.namespace,
                                        outcome=outcome).inc()
                    self._h_job.labels(namespace=job.namespace).observe(
                        job.finished_at - job.started_at)
                    self._h_queue_wait.labels(namespace=job.namespace) \
                        .observe(job.started_at - job.submitted_at)
                    job._event.set()
                    self._cond.notify_all()

    def stop(self) -> None:
        """Stop the thread; queued-but-unstarted jobs fail with
        RuntimeError."""
        with self._cond:
            self._stop = True
            pending = [job for queue in self._queues.values()
                       for job in queue]
            self._queues.clear()
            self._rotation.clear()
            self._cond.notify_all()
        for job in pending:
            job._fail(RuntimeError("refinement pool stopped"))
        if self._worker is not None:
            self._worker.join(timeout=5.0)
        self._worker = None

    def close(self, timeout: float | None = 5.0) -> bool:
        """Graceful shutdown: stop accepting work, drain what's queued,
        then stop the thread.

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
            return {"workers": self.WORKERS,
                    "active": self._active,
                    "pending": sum(len(q) for q in self._queues.values())}


# ----------------------------------------------------------------------
# Namespaces + routing
# ----------------------------------------------------------------------
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
    service + result cache + feedback monitor + refinement + model-ops)
    for that namespace, wired to the shared :class:`RefinementPool`.
    The front door then routes every query straight to its namespace's
    micro-batcher (``space.server.service``); nothing is shared
    between namespaces except the one trainer thread, which is exactly
    what makes the isolation invariant (a hot-swap in namespace A never
    perturbs namespace B's per-version seeded answers) hold by
    construction.

    The front's keywords are what every namespace shares; ``add_table``
    / ``add_join`` take the per-namespace ones (``feedback``,
    ``modelops``, ``chaos``, ``auto_refine``, ``refine_epochs``,
    ``data_epochs``), whose defaults ``UAEServer`` states.
    ``max_wait_ms`` is ignored and not forwarded (the
    micro-batchers have no batching window); the benchmark's frozen front
    spec still passes it.
    """

    def __init__(self, *, cache_capacity: int = 8192, max_batch: int = 32,
                 max_wait_ms: float | None = None, seed: int = 0,
                 metrics=None, events=None):
        self.registry = MultiTableRegistry()
        # One shared metrics registry + event log across namespaces: the
        # routed front door (and /metrics) sees every namespace's series
        # side by side, distinguished by the ``namespace`` label.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EVENTS
        self.pool = RefinementPool(metrics=self.metrics)
        self._cache_capacity = int(cache_capacity)
        self._max_batch = int(max_batch)
        self._seed = int(seed)
        self._running = False
        self._add_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Namespace management
    # ------------------------------------------------------------------
    def add_table(self, estimator, *, namespace: str | None = None,
                  **settings) -> Namespace:
        """Register a single-table namespace (defaults to the table name)."""
        return self._add(
            namespace or estimator.table.name, estimator, "table",
            frozenset({estimator.table.name}),
            frozenset(estimator.table.column_names), None, None, settings)

    def add_join(self, join, *, namespace: str | None = None,
                 **settings) -> Namespace:
        """Register a join-schema namespace for a
        :class:`~repro.joins.UAEJoin` (or NeuroCard) estimator.

        The namespace serves snapshots of the estimator's inner UAE; the
        join's constraint expander translates each
        :class:`~repro.joins.JoinQuery` into fanout-scaled constraints,
        and estimates scale by the full outer join's size.
        """
        return self._add(
            namespace or "+".join(sorted(join.schema.tables)), join.uae,
            "join", frozenset(join.schema.tables), frozenset(),
            join.constraint_expander(), float(join.join_size), settings)

    def _add(self, name: str, estimator, kind: str, tables: frozenset,
             columns: frozenset, expander, scale, settings: dict
             ) -> Namespace:
        """Build ``name``'s stack and register it.  ``settings`` are the
        per-namespace ``UAEServer`` keywords; one that the front sets
        (``max_batch``, ``seed``, ...) is a ``TypeError``.  A taken name is
        refused before anything is built: the stack's constructor would
        re-point the live namespace's gauges (and set the rejected
        estimator's ``metrics``) before the registry could refuse it."""
        with self._add_lock:
            if name in self.registry:
                raise ValueError(f"namespace {name!r} already registered")
            server = UAEServer(estimator, pool=self.pool, namespace=name,
                               cache_capacity=self._cache_capacity,
                               max_batch=self._max_batch, seed=self._seed,
                               expander=expander, scale=scale,
                               metrics=self.metrics, events=self.events,
                               **settings)
            space = self.registry.register(Namespace(
                name=name, server=server, kind=kind, tables=tables,
                columns=columns))
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
        return space.server.service.submit(query, deadline_ms=deadline_ms,
                                           trace=trace)

    def estimate(self, query, *, namespace: str | None = None,
                 deadline_ms: float | None = None) -> float:
        space = self.resolve(query, namespace=namespace)
        return space.server.service.estimate(query, deadline_ms=deadline_ms)

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
            out[indices] = space.server.service.estimate_batch(
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
            result = space.server.maintain(background=background)
            if result is not None:
                started[space.name] = result
        return started

    def stats(self) -> dict:
        return {"namespaces": {space.name: space.server.stats()
                               for space in self.registry},
                "pool": self.pool.stats()}
