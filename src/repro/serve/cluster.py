"""Sharded scale-out serving tier: shared-nothing workers + balancer.

One Python process is the serving ceiling no matter how fast the hot
paths get — the GIL serialises every micro-batch.  This module goes from
one process to N:

* **Shared-nothing workers** — each :func:`_worker_main` process hosts a
  subset of namespaces (its own UAE models, compiled engines, sampling
  streams; nothing shared but the snapshot segments), assigned by
  consistent-hash placement (:mod:`repro.serve.placement`), so the
  per-namespace isolation contract from the single-process front door
  carries over verbatim: namespaces on different workers cannot perturb
  each other by construction.
* **Zero-copy snapshot publication** — a hot-swap serialises the fused
  weight-source state once into the namespace's
  ``multiprocessing.shared_memory`` segment
  (:class:`~repro.serve.snapshot.SharedSnapshot`); owning workers get a
  tiny ``publish`` control message, attach the buffer, and rebuild their
  :class:`~repro.infer.compiled.CompiledModel` from it.  The PR 1
  version-counter contract crosses the process boundary intact:
  ``load_state_dict`` bumps every parameter version in the worker, which
  invalidates and recompiles its engine exactly as in-process training
  would.
* **Load-shedding balancer** — :class:`ClusterEstimateService` routes
  through the same :class:`~repro.serve.router.MultiTableRegistry` as the
  single-process front door, applies
  backpressure through bounded per-worker in-flight windows, and when a
  worker saturates sheds *deadline-first*: a request whose remaining
  budget cannot cover the queue wait plus the worker's observed batch
  latency fails immediately with a typed :class:`LoadShedError` (never a
  silent late answer, never an untyped crash), while deadline-free
  requests park until the worker's placer thread hands them a slot.

Crash containment: each worker talks to the parent over one duplex pipe,
read by one reader thread.  A dead worker is an EOF on that pipe: the
reader quarantines it at once — out of the ring, every request in flight
on it failed with a typed
:class:`~repro.serve.placement.WorkerUnavailableError` — and a worker
whose parent dies sees the same EOF and exits with it.  Healing is
separate: :class:`~repro.serve.supervisor.WorkerSupervisor` restarts the
worker under its id, or :meth:`ClusterEstimateService.recover` re-places
its namespaces on the survivors (only ~1/N move) from the retained
snapshot segments; either way serving resumes bit-identically — the
model state lives in shared memory, not in the dead process.  A
blocking call with no deadline waits at most
:attr:`ClusterEstimateService.REQUEST_TIMEOUT_S` (120 s) for its answer.

Determinism: a seeded ``estimate_batch`` groups queries by namespace in
stream order and sends each namespace group as one batch, so answers are
bit-identical to the single-process
:class:`~repro.serve.router.RoutedEstimateService` on the same stream —
the parity invariant the scale-out bench checks.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict, deque, namedtuple

import numpy as np

from .placement import HashRing, WorkerUnavailableError
from .router import MultiTableRegistry, Namespace, group_by_namespace
from .service import DEADLINE_GRACE_S, EstimateRequest
from .snapshot import HAVE_SHARED_MEMORY, SharedSnapshot


class LoadShedError(RuntimeError):
    """Typed rejection: the cluster is saturated and the request's
    deadline cannot be met — retry later or relax the deadline.  Shed
    requests are accounted separately from failures."""


def _limit_blas_threads(n: int = 1) -> None:
    """Pin the worker's BLAS pool: shared-nothing scaling wants one core
    per worker, not every worker fighting over one threaded GEMM pool."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    try:                                   # already-loaded OpenBLAS
        import ctypes
        lib = ctypes.CDLL(None)
        for sym in ("openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn(int(n))
                break
    except Exception:                      # noqa: BLE001 - best effort
        pass


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: str, conn, parent_end,
                 chaos=None, incarnation: int = 0) -> None:
    """One shared-nothing worker: adopt namespaces, serve batches,
    re-read snapshot segments on publish.  Runs until a ``stop`` message
    or EOF on ``conn`` (the parent is gone); if the process is killed,
    the parent's reader sees the EOF and contains the crash.

    ``chaos`` is an optional :class:`~repro.chaos.ChaosPlan` copy; this
    worker evaluates the ``worker.batch`` hook on every batch message
    with ``worker``/``namespace``/``incarnation`` context (``kill``
    SIGKILLs the process, ``sleep`` injects latency).  ``incarnation``
    counts restarts of this worker id — 0 for the original fork — so a
    fault with ``where={"incarnation": 0}`` crashes once and lets the
    restarted worker run healthy."""
    # Close this copy of the parent's end, or a dead parent gives no EOF.
    parent_end.close()
    _limit_blas_threads(1)
    from ..core.uae import UAE             # deferred: cheap worker spawn
    from ..obs import MetricsRegistry

    models: dict[str, UAE] = {}
    buffers: dict[str, SharedSnapshot] = {}
    versions: dict[str, int] = {}
    rngs: dict[str, np.random.Generator] = {}
    # Worker-local registry: fixed bucket layouts make these histograms
    # mergeable parent-side (ClusterEstimateService.merged_metrics).
    wm = MetricsRegistry()
    wm_served = wm.counter("repro_worker_served_total",
                           "Queries answered by this worker",
                           ("namespace",))
    wm_batch = wm.histogram("repro_worker_batch_seconds",
                            "Engine compute time per worker batch",
                            ("namespace",))
    wm_qwait = wm.histogram("repro_worker_queue_wait_seconds",
                            "Time a batch sat in the worker's inbox",
                            ("namespace",))

    def respond(req_id, status, payload=None) -> None:
        try:
            conn.send((req_id, status, payload))
        except (ValueError, OSError):      # parent gone: nothing to do
            pass

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):        # parent gone: die with it
            break
        req_id, kind = msg[0], msg[1]
        if kind == "stop":
            break
        try:
            if kind == "adopt":
                namespace, table, config, order, shm_name, seed = msg[2:]
                t0 = time.perf_counter()
                estimator = UAE(table, config)
                if order is not None:
                    # The parent's *realized* column order (keeps
                    # "random"-order models bit-identical).
                    estimator._init_model_stack(list(order))
                buf = SharedSnapshot.attach(shm_name)
                version, state = buf.read(timeout=5.0)
                estimator.model.load_state_dict(state)
                estimator.engine.compiled.ensure_current()
                estimator.engine.metrics = wm
                stale = buffers.pop(namespace, None)
                if stale is not None:
                    stale.close()
                models[namespace] = estimator
                buffers[namespace] = buf
                versions[namespace] = version
                rngs[namespace] = np.random.default_rng(
                    [int(seed), len(namespace)])
                respond(req_id, "ok",
                        (version, time.perf_counter() - t0))
            elif kind == "publish":
                namespace = msg[2]
                t0 = time.perf_counter()
                version, state = buffers[namespace].read(timeout=5.0)
                # load_state_dict bumps parameter versions ->
                # ensure_current() rebuilds the fused CompiledModel from
                # the new weights: the in-process invalidation contract,
                # driven across the process boundary by one flat buffer.
                models[namespace].model.load_state_dict(state)
                models[namespace].engine.compiled.ensure_current()
                versions[namespace] = version
                respond(req_id, "ok",
                        (version, time.perf_counter() - t0))
            elif kind == "batch":
                namespace, queries, seed, deadline, sent_at = msg[2:]
                if chaos is not None:
                    fault = chaos.fires("worker.batch",
                                        worker=worker_id,
                                        namespace=namespace,
                                        incarnation=incarnation)
                    if fault is not None and fault.action == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    if fault is not None and fault.action == "sleep":
                        time.sleep(float(
                            fault.params.get("seconds", 0.05)))
                recv_at = time.perf_counter()
                if sent_at is not None:
                    # perf_counter is CLOCK_MONOTONIC on Linux — shared
                    # across same-host processes, so the parent's send
                    # stamp and this read sit on one time axis.
                    wm_qwait.labels(namespace=namespace).observe(
                        max(0.0, recv_at - sent_at))
                if deadline is not None and recv_at > deadline:
                    respond(req_id, "shed",
                            "deadline expired while queued")
                    continue
                estimator = models.get(namespace)
                if estimator is None:
                    # A batch can race a restart's adoption messages
                    # into the inbox of a freshly forked worker: that
                    # is transient unavailability (the adopt is right
                    # behind it), so answer typed-retryable rather
                    # than with a hard error.
                    respond(req_id, "err", WorkerUnavailableError(
                        f"namespace {namespace!r} not yet adopted by "
                        f"worker {worker_id}; retry"))
                    continue
                t0 = time.perf_counter()
                rng = np.random.default_rng(seed) if seed is not None \
                    else rngs[namespace]
                cards = estimator.cardinalities(
                    [estimator.constraints(q) for q in queries], rng)
                compute_s = time.perf_counter() - t0
                wm_served.labels(namespace=namespace).inc(len(queries))
                wm_batch.labels(namespace=namespace).observe(compute_s)
                respond(req_id, "ok", (cards, versions[namespace],
                                       compute_s, t0))
            elif kind == "metrics":
                respond(req_id, "ok", wm.snapshot())
            elif kind == "ping":
                respond(req_id, "ok", {
                    "worker": worker_id, "pid": os.getpid(),
                    "versions": dict(versions)})
            else:
                respond(req_id, "err",
                        ValueError(f"unknown message kind {kind!r}"))
        except BaseException as exc:       # noqa: BLE001 - typed to parent
            try:
                respond(req_id, "err", exc)
            except Exception:              # unpicklable exception
                respond(req_id, "err", RuntimeError(repr(exc)))
    for buf in buffers.values():
        buf.close()


# ----------------------------------------------------------------------
# Futures + handles
# ----------------------------------------------------------------------
class ClusterRequest(EstimateRequest):
    """A single in-flight cluster call: the shared settlement future
    plus the dispatch envelope (owning namespace, query count, the
    worker that answered, whether the call was shed)."""

    __slots__ = ("namespace", "count", "dispatched_at", "worker", "shed")

    def __init__(self, namespace: str, count: int,
                 deadline: float | None, single: bool = False,
                 trace=None):
        super().__init__(None, None, None, deadline, trace, single)
        self.namespace = namespace
        self.count = count
        self.dispatched_at: float | None = None
        self.worker: str | None = None
        self.shed = False


#: A dispatch waiting for a slot of its worker's window; ``give_up_at``
#: is when a deadlined one is shed instead (None: waits indefinitely).
_Parked = namedtuple("_Parked", "request queries seed give_up_at")


class _WorkerHandle:
    """Parent-side view of one worker: process, pipe, in-flight window.

    ``conn`` is the parent's end of the worker's duplex pipe; ``reader``
    is the one thread that reads it, and :meth:`send` is the one way to
    write it (callers on the event loop, placer and control threads
    take turns on ``send_lock``).  The window is ``free`` open slots
    plus the ``parked`` dispatches waiting for one, in arrival order,
    both guarded by ``cond``.  ``placer`` is the thread that hands
    freed slots to parked dispatches (started at the first saturation),
    so no caller ever waits for a slot itself."""

    def __init__(self, worker_id: str, process, conn, queue_depth: int):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.reader: threading.Thread | None = None
        self.queue_depth = int(queue_depth)
        self.cond = threading.Condition()
        self.free = self.queue_depth
        self.parked: deque[_Parked] = deque()
        self.placer: threading.Thread | None = None
        self.closed = False
        self.in_flight = 0
        self.ewma_seconds: float | None = None   # observed batch latency

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message) -> None:
        """Write one message; ``OSError`` once the pipe is closed or
        the worker is dead."""
        with self.send_lock:
            self.conn.send(message)

    def release(self) -> None:
        with self.cond:
            self.free += 1
            self.cond.notify()

    def close(self) -> list:
        """Stop the placer; returns the requests still parked, for the
        caller to fail typed."""
        with self.cond:
            self.closed = True
            parked = [entry.request for entry in self.parked]
            self.parked.clear()
            self.cond.notify()
        return parked

    def observe_latency(self, seconds: float) -> None:
        if self.ewma_seconds is None:
            self.ewma_seconds = seconds
        else:
            self.ewma_seconds = 0.75 * self.ewma_seconds + 0.25 * seconds


# ----------------------------------------------------------------------
# The balancer
# ----------------------------------------------------------------------
class ClusterEstimateService:
    """Front-door balancer over N shared-nothing worker processes.

    Lifecycle: ``add_table`` every namespace, then ``start()`` (spawns
    workers, assigns namespaces via bounded-load consistent hashing,
    ships each worker its namespaces' tables + configs and the shared
    snapshot segments), serve, ``stop()``.  ``publish`` hot-swaps a
    namespace by republishing its segment in place and pinging the
    owning worker; ``recover`` heals after a worker crash.

    ``queue_depth`` bounds the number of un-acked batches per worker —
    the backpressure window.  ``submit`` never blocks: when the window
    is full the handle comes back unsettled and ``deferred``, parked
    until a slot frees.  Deadline-free calls park for as long as it
    takes while deadlined calls are shed as soon as their remaining
    budget drops under the worker's observed batch latency
    (deadline-first shedding: the requests that cannot make it are
    dropped immediately, typed, before any compute is wasted on them).

    Workers start with ``fork`` where the platform has it (the first
    start method it offers elsewhere).  Series go to the cluster's own
    metrics registry, events to the process event log.
    """

    #: Seconds a blocking call waits for a worker's answer when the
    #: caller gave no deadline.
    REQUEST_TIMEOUT_S = 120.0
    #: Prefix of the worker process and thread names.
    NAME = "cluster"

    def __init__(self, *, workers: int = 2, queue_depth: int = 4,
                 seed: int = 0, chaos=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.num_workers = int(workers)
        self.queue_depth = int(queue_depth)
        self._seed = int(seed)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        self._ring = HashRing()
        # Routing (and each namespace's published version) lives in the
        # same registry class the single-process front door routes by.
        self.registry = MultiTableRegistry()
        self._specs: "OrderedDict[str, dict]" = OrderedDict()
        self._snapshots: dict[str, SharedSnapshot] = {}
        self._assignment: dict[str, str] = {}
        self._handles: dict[str, _WorkerHandle] = {}
        self._pending: dict[int, tuple[ClusterRequest, _WorkerHandle,
                                       bool]] = {}
        self._req_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._dead: list[str] = []
        self._running = False
        self.chaos = chaos                 # optional ChaosPlan, forked
        self._incarnations: dict[str, int] = {}
        self._supervisor = None
        from ..obs import EVENTS, MetricsRegistry
        self.metrics = MetricsRegistry()
        self.events = EVENTS
        m = self.metrics
        self._c_served = m.counter(
            "repro_cluster_served_total",
            "Queries answered across all workers")
        self._c_sheds = m.counter(
            "repro_cluster_sheds_total",
            "Queries shed by saturation/deadline backpressure")
        self._f_failures = m.counter(
            "repro_cluster_failures_total",
            "Queries failed by a worker-side error", ("error",))
        self._c_cancel = m.counter(
            "repro_cluster_cancellations_total",
            "Queries abandoned by their caller")
        self._c_unavail = m.counter(
            "repro_cluster_unavailable_total",
            "Queries refused because the owning worker was dead")
        self._c_sat = m.counter(
            "repro_cluster_saturations_total",
            "Dispatches that found the owner's window full")
        self._c_pub = m.counter(
            "repro_cluster_publishes_total",
            "Snapshot hot-swaps propagated to workers")
        self._f_callback_errors = m.counter(
            "repro_serve_callback_errors_total",
            "Done-callbacks that raised in the settling thread",
            ("namespace",))
        self._h_latency = m.histogram(
            "repro_cluster_latency_seconds",
            "Submit-to-settle latency of cluster requests",
            ("namespace",))
        self._h_stage = m.histogram(
            "repro_cluster_stage_seconds",
            "Per-request time in each cluster stage",
            ("namespace", "stage"))

    # ------------------------------------------------------------------
    # Namespace registration
    # ------------------------------------------------------------------
    def add_table(self, estimator, *, namespace: str | None = None) -> str:
        """Register a single-table namespace served from ``estimator``'s
        current weights (snapshotted into a shared segment).  Must be
        called before :meth:`start`."""
        if self._running:
            raise RuntimeError("add_table() before start(): live "
                               "namespace migration is not supported")
        name = namespace or estimator.table.name
        self.registry.register(Namespace(
            name, None, "table", tables=frozenset({estimator.table.name}),
            columns=frozenset(estimator.table.column_names),
            worker_version=1))
        self._specs[name] = {
            "table": estimator.table,
            "config": estimator.config,
            "order": list(estimator.model.order),
        }
        self._snapshots[name] = SharedSnapshot.create(
            estimator.model.state_dict(), version=1)
        return name

    def namespaces(self) -> list[str]:
        return list(self._specs)

    def version(self, namespace: str) -> int:
        return self.registry.get(namespace).version

    def assignment(self) -> dict[str, str]:
        return dict(self._assignment)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterEstimateService":
        if self._running:
            return self
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError("scale-out serving needs "
                               "multiprocessing.shared_memory")
        if not self._specs:
            raise RuntimeError("no namespaces registered")
        for i in range(self.num_workers):
            self._spawn_worker(f"w{i}", 0)
        self._running = True
        self._assignment = self._ring.assign(self._specs)
        self._adopt_all(self._specs)
        return self

    def stop(self) -> None:
        if not self._running and not self._handles:
            return
        self._running = False
        if self._supervisor is not None:
            # Stop supervision first: a restart racing teardown would
            # re-fork a worker we are about to kill.
            self._supervisor.stop()
            self._supervisor = None
        with self._lock:
            # Detached first, so each reader takes its worker's exit
            # for a stop, not a crash.
            handles = list(self._handles.values())
            self._handles.clear()
            for handle in handles:
                self._ring.remove(handle.worker_id)
        for handle in handles:
            try:
                handle.send((0, "stop"))
            except (ValueError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.reader.join(timeout=5.0)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for request, _handle, _is_batch in pending:
            request._fail(RuntimeError("cluster stopped"))
        for handle in handles:
            for request in handle.close():
                request._fail(RuntimeError("cluster stopped"))
        for snap in self._snapshots.values():
            snap.close()
            snap.unlink()
        self._snapshots.clear()

    def __enter__(self) -> "ClusterEstimateService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def resolve(self, query, namespace: str | None = None) -> Namespace:
        """The namespace serving ``query`` (explicit ``namespace``
        wins): the single-process router's rules and typed misses.
        Workers host table namespaces only, so a join query finds no
        covering namespace (``UnknownNamespaceError``)."""
        return self.registry.resolve(query, namespace=namespace)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, query, *, namespace: str | None = None,
               deadline_ms: float | None = None,
               trace=None) -> ClusterRequest:
        """Enqueue one query on its namespace's worker; future-like
        handle.  Saturation sheds deadline-first (typed
        :class:`LoadShedError`); a dead owner raises
        :class:`~repro.serve.placement.WorkerUnavailableError`."""
        ns = self.resolve(query, namespace=namespace).name
        deadline = None if deadline_ms is None \
            else time.perf_counter() + deadline_ms / 1e3
        return self._dispatch(ns, [query], None, deadline, single=True,
                              trace=trace)

    def estimate(self, query, *, namespace: str | None = None,
                 deadline_ms: float | None = None) -> float:
        request = self.submit(query, namespace=namespace,
                              deadline_ms=deadline_ms)
        budget = self.REQUEST_TIMEOUT_S if deadline_ms is None \
            else deadline_ms / 1e3 + DEADLINE_GRACE_S
        return request.result(timeout=budget)

    def estimate_batch(self, queries: list, *,
                       namespace: str | None = None, seed: int | None = None,
                       use_cache: bool = True) -> np.ndarray:
        """Bulk path over a (possibly mixed-namespace) query list.

        Grouping, per-namespace stream order and the compute formula are
        the ones ``RoutedEstimateService.estimate_batch`` runs, and each
        namespace group is one seeded engine batch on its worker — so a
        seeded call is bit-identical to the single-process front door on
        the same queries.  Namespace groups run concurrently across
        workers; the call returns when all have answered.  ``use_cache``
        is accepted for the front contract and ignored: workers keep no
        result cache to switch.
        """
        pending = [(self._dispatch(space.name, [queries[i] for i in indices],
                                   seed, None), indices)
                   for space, indices in group_by_namespace(
                       self.resolve, queries, namespace)]
        out = np.empty(len(queries), dtype=np.float64)
        for request, indices in pending:
            out[indices] = request.result(timeout=self.REQUEST_TIMEOUT_S)
        return out

    def observe(self, query, true_cardinality: float,
                estimate: float | None = None, *,
                namespace: str | None = None) -> float:
        """Front-contract slot: workers keep no feedback monitor (a
        cluster is refreshed by :meth:`publish`), so feedback is a typed
        refusal rather than a silent drop."""
        raise TypeError("front ClusterEstimateService does not accept "
                        "feedback; refine out of band and publish()")

    # ------------------------------------------------------------------
    # Publication + healing
    # ------------------------------------------------------------------
    def publish(self, namespace: str, estimator,
                source: str = "refine") -> dict:
        """Hot-swap ``namespace`` to ``estimator``'s current weights.

        The state is serialized **once** into the namespace's shared
        segment (seqlock-protected, so a concurrently attaching worker
        never sees a torn version); the owning worker then gets a
        ``publish`` control message and rebuilds its compiled engine
        from the buffer.  Returns propagation timing for the bench.
        """
        space = self.registry.get(namespace)
        if not self._running:
            raise RuntimeError("publish() needs a started cluster")
        version = space.version + 1
        t0 = time.perf_counter()
        self._snapshots[namespace].publish(
            estimator.model.state_dict(), version)
        encode_s = time.perf_counter() - t0
        handle = self._owner_handle(namespace)
        request = self._control(handle, "publish", namespace)
        ack_version, load_s = request.result(timeout=self.REQUEST_TIMEOUT_S)
        propagation_ms = (time.perf_counter() - t0) * 1e3
        if ack_version != version:
            raise RuntimeError(
                f"worker {handle.worker_id} acked version "
                f"{ack_version}, expected {version}")
        space.worker_version = version
        self._c_pub.inc()
        self.events.emit("swap_publish", namespace=namespace,
                         version=version, source=source,
                         worker=handle.worker_id,
                         propagation_ms=propagation_ms)
        return {"namespace": namespace, "version": version,
                "source": source, "worker": handle.worker_id,
                "encode_ms": encode_s * 1e3,
                "load_ms": load_s * 1e3,
                "propagation_ms": propagation_ms}

    def recover(self, timeout: float | None = None) -> dict:
        """Heal after worker crashes: drop dead workers from the ring,
        re-place their namespaces on survivors (bounded-load walk: only
        ~1/N move), and re-adopt each moved namespace from its retained
        snapshot segment at its current version."""
        for handle in list(self._handles.values()):
            if not handle.alive():
                self._mark_dead(handle)
        with self._lock:
            dead, self._dead = self._dead, []
        if not self._handles:
            raise WorkerUnavailableError(
                "all cluster workers are down")
        new_assignment = self._ring.assign(self._specs)
        moved = [ns for ns, wid in new_assignment.items()
                 if self._assignment.get(ns) != wid]
        self._assignment = new_assignment
        self._adopt_all(moved, timeout)
        self.events.emit("worker_recover", removed=sorted(dead),
                         moved=sorted(moved))
        return {"removed": sorted(dead), "moved": sorted(moved)}

    def dead_workers(self) -> list[str]:
        """Quarantine and return the currently-dead workers.

        Each worker's reader quarantines it at EOF (removed from the
        ring, its in-flight requests failed typed); this also catches a
        handle whose process has exited before its reader noticed.  The
        accumulated dead list is returned *without clearing it* —
        :meth:`restart_worker` and :meth:`recover` consume entries.
        This is the supervisor's detection probe."""
        for handle in list(self._handles.values()):
            if not handle.alive():
                self._mark_dead(handle)
        return list(self._dead)

    def fail_worker(self, worker_id: str) -> None:
        """Administratively take a worker down (supervisor eviction):
        terminate the process if still alive, then quarantine it
        exactly like a crash.  Follow with :meth:`recover` to re-place
        its namespaces on the survivors."""
        handle = self._handles.get(worker_id)
        if handle is not None:
            if handle.alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            self._mark_dead(handle)

    def restart_worker(self, worker_id: str) -> dict:
        """Re-fork a dead worker under its original id.

        Consistent hashing is deterministic, so re-adding the id
        restores the pre-crash placement; the namespaces that move back
        re-adopt from their retained shared-memory snapshot segments at
        their current versions — the restarted worker serves
        bit-identical estimates to its previous incarnation.  The
        worker's ``incarnation`` counter is bumped and passed into the
        new process (chaos faults key on it to express crash-once
        versus crash-loop).

        The restart is all-or-nothing: if any re-adoption fails the
        fresh process is killed and quarantined back onto the dead
        list (a half-adopted worker must never serve), so the
        supervisor's next pass retries with backoff or evicts."""
        if not self._running:
            raise RuntimeError("restart_worker() needs a running "
                               "cluster")
        handle = self._handles.get(worker_id)
        if handle is not None:
            if handle.alive():
                return {"restarted": False, "worker": worker_id,
                        "reason": "alive"}
            self._mark_dead(handle)
        if worker_id not in self._dead:
            raise KeyError(f"unknown dead worker {worker_id!r} "
                           f"(dead: {self._dead})")
        self._dead.remove(worker_id)
        incarnation = self._incarnations.get(worker_id, 0) + 1
        self._incarnations[worker_id] = incarnation
        self._spawn_worker(worker_id, incarnation)
        new_assignment = self._ring.assign(self._specs)
        # The fresh process has no state: every namespace it now owns
        # must be (re-)adopted, even when the deterministic ring hands
        # it exactly its pre-crash placement (assignment unchanged).
        moved = [ns for ns, wid in new_assignment.items()
                 if wid == worker_id or self._assignment.get(ns) != wid]
        self._assignment = new_assignment
        try:
            self._adopt_all(moved)
        except BaseException:
            # Adoption failed (snapshot read error, dead fork, timeout):
            # a half-adopted worker must not stay published as healthy
            # — quarantine it so the next supervision pass retries the
            # restart with backoff or evicts.  _mark_dead fails any
            # request that raced into its pipe typed and puts the id
            # back on the dead list.
            fresh = self._handles.get(worker_id)
            if fresh is not None:
                if fresh.alive():
                    fresh.process.kill()
                    fresh.process.join(timeout=5.0)
                self._mark_dead(fresh)
            raise
        self.events.emit("worker_restart", worker=worker_id,
                         incarnation=incarnation, moved=sorted(moved))
        return {"restarted": True, "worker": worker_id,
                "incarnation": incarnation, "moved": sorted(moved)}

    def supervise(self):
        """Attach and start a
        :class:`~repro.serve.supervisor.WorkerSupervisor` on this
        cluster; idempotent while one is running.  ``stop()`` stops it
        first."""
        from .supervisor import WorkerSupervisor
        if self._supervisor is not None and self._supervisor.running:
            return self._supervisor
        self._supervisor = WorkerSupervisor(self).start()
        return self._supervisor

    def _spawn_worker(self, worker_id: str, incarnation: int) -> None:
        conn, child_end = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, child_end, conn, self.chaos, incarnation),
            name=f"{self.NAME}-{worker_id}", daemon=True)
        process.start()
        # Close our copy of the worker's end, or a dead worker gives no EOF.
        child_end.close()
        handle = _WorkerHandle(worker_id, process, conn, self.queue_depth)
        handle.reader = threading.Thread(
            target=self._read_loop, args=(handle,),
            name=f"{self.NAME}-{worker_id}-reader", daemon=True)
        with self._lock:
            self._handles[worker_id] = handle
            self._ring.add(worker_id)
        handle.reader.start()

    def ping(self) -> dict:
        """Round-trip worker stats (liveness probe)."""
        out = {}
        for wid, handle in list(self._handles.items()):
            if not handle.alive():
                out[wid] = {"alive": False}
                continue
            request = self._control(handle, "ping")
            out[wid] = {"alive": True,
                        **request.result(timeout=self.REQUEST_TIMEOUT_S)}
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _owner_handle(self, namespace: str) -> _WorkerHandle:
        worker_id = self._assignment.get(namespace)
        handle = self._handles.get(worker_id)
        if handle is None or not handle.alive():
            if handle is not None:
                self._mark_dead(handle)
            raise WorkerUnavailableError(
                f"worker {worker_id!r} owning namespace {namespace!r} "
                "is unavailable; call recover() to re-place it")
        return handle

    def _adopt_all(self, namespaces, timeout: float | None = None) -> None:
        """Ship each namespace to its assigned worker (all adoptions in
        flight at once), then wait for every ack."""
        acks = []
        for ns in namespaces:
            spec = self._specs[ns]
            acks.append((ns, self._control(
                self._owner_handle(ns), "adopt", ns, spec["table"],
                spec["config"], spec["order"], self._snapshots[ns].name,
                self._seed)))
        for ns, request in acks:
            request.result(timeout=timeout or self.REQUEST_TIMEOUT_S)
            self.events.emit("swap_adopt", namespace=ns,
                             worker=self._assignment.get(ns),
                             version=self.version(ns))

    def _control(self, handle: _WorkerHandle, kind: str,
                 *payload) -> ClusterRequest:
        """Send a control message (no backpressure window: control is
        rare and must not deadlock behind a full data window)."""
        request = ClusterRequest(payload[0] if payload else "", 0, None)
        req_id = next(self._req_ids)
        if not self._register(handle, req_id, request, False):
            request._fail(WorkerUnavailableError(
                f"worker {handle.worker_id} died before the control "
                "message was dispatched"))
            return request
        try:
            handle.send((req_id, kind, *payload))
        except (ValueError, OSError) as exc:
            with self._lock:
                self._pending.pop(req_id, None)
            request._fail(WorkerUnavailableError(
                f"worker {handle.worker_id} pipe is closed: {exc}"))
        return request

    def _dispatch(self, namespace: str, queries: list,
                  seed: int | None, deadline: float | None,
                  single: bool = False, trace=None) -> ClusterRequest:
        """Never blocks: send through an open slot of the owner's
        window, or — window full — park the dispatch for the owner's
        placer thread and return the handle ``deferred``."""
        try:
            handle = self._owner_handle(namespace)
        except WorkerUnavailableError:
            self._c_unavail.inc(len(queries))
            raise
        request = ClusterRequest(namespace, len(queries), deadline,
                                 single=single, trace=trace)
        request.on_callback_error = self._callback_failed
        with handle.cond:
            open_slot = handle.free > 0 and not handle.parked
            if open_slot:
                handle.free -= 1
        if open_slot:
            self._send(handle, request, queries, seed)
            return request
        # Saturated: deadline-first shedding.  A deadlined request only
        # parks as long as its budget minus the worker's observed batch
        # latency allows; a deadline-free request parks until a slot
        # frees (pure backpressure).
        self._c_sat.inc()
        give_up_at = None if deadline is None \
            else deadline - (handle.ewma_seconds or 0.0)
        if give_up_at is not None and give_up_at <= time.perf_counter():
            self._shed_saturated(handle, request)
            return request
        request.deferred = True
        with handle.cond:
            closed = handle.closed
            if not closed:
                handle.parked.append(
                    _Parked(request, queries, seed, give_up_at))
                if handle.placer is None:
                    handle.placer = threading.Thread(
                        target=self._place_loop, args=(handle,),
                        name=f"{self.NAME}-{handle.worker_id}-placer",
                        daemon=True)
                    handle.placer.start()
                handle.cond.notify()
        if closed:                      # lost the race with _mark_dead
            self._fail_unavailable(handle, request, "while dispatching")
        return request

    def _place_loop(self, handle: _WorkerHandle) -> None:
        """Hand the worker's freed slots to its parked dispatches in
        arrival order; shed the deadlined ones whose budget lapses
        first and drop the ones their caller abandoned."""
        while True:
            with handle.cond:
                if handle.closed:
                    return
                now = time.perf_counter()
                lapsed = [entry for entry in handle.parked
                          if entry.request.done()
                          or (entry.give_up_at is not None
                              and entry.give_up_at <= now)]
                for entry in lapsed:
                    handle.parked.remove(entry)
                placed = None
                if handle.free > 0 and handle.parked:
                    handle.free -= 1
                    placed = handle.parked.popleft()
                elif not lapsed:
                    wake = min((entry.give_up_at for entry in handle.parked
                                if entry.give_up_at is not None),
                               default=None)
                    handle.cond.wait(None if wake is None
                                     else max(0.0, wake - now))
                    continue
            for entry in lapsed:
                if entry.request.done():    # abandoned while parked
                    self._c_cancel.inc(entry.request.count)
                else:
                    self._shed_saturated(handle, entry.request)
            if placed is not None:
                self._send(handle, placed.request, placed.queries,
                           placed.seed)

    def _shed_saturated(self, handle: _WorkerHandle,
                        request: ClusterRequest) -> None:
        headroom = handle.ewma_seconds or 0.0
        if request._fail(LoadShedError(
                f"worker {handle.worker_id} saturated "
                f"({handle.queue_depth} batches in flight) and the "
                "remaining deadline budget cannot cover its batch "
                f"latency (~{headroom * 1e3:.1f} ms)"), shed=True):
            self._c_sheds.inc(request.count)
            self.events.emit("shed", namespace=request.namespace,
                             reason="saturated", worker=handle.worker_id,
                             headroom_s=headroom)

    def _fail_unavailable(self, handle: _WorkerHandle,
                          request: ClusterRequest, when: str) -> None:
        self._c_unavail.inc(request.count)
        request._fail(WorkerUnavailableError(
            f"worker {handle.worker_id!r} died {when} (namespace "
            f"{request.namespace!r}); call recover()"))

    def _send(self, handle: _WorkerHandle, request: ClusterRequest,
              queries: list, seed: int | None) -> None:
        """Ship a dispatch that holds one of ``handle``'s slots; every
        way it can fail settles the handle typed and returns the slot."""
        req_id = next(self._req_ids)
        if not self._register(handle, req_id, request, True):
            handle.release()
            self._fail_unavailable(handle, request, "while dispatching")
            return
        request.dispatched_at = time.perf_counter()
        self._h_stage.labels(namespace=request.namespace,
                             stage="slot_wait") \
            .observe(request.dispatched_at - request.submitted_at)
        if request.trace is not None:
            request.trace.add_span("slot_wait", request.submitted_at,
                                   request.dispatched_at,
                                   worker=handle.worker_id)
        try:
            handle.send(
                (req_id, "batch", request.namespace, list(queries), seed,
                 request.deadline, request.dispatched_at))
        except (ValueError, OSError) as exc:
            with self._lock:
                self._pending.pop(req_id, None)
                handle.in_flight -= 1
            handle.release()
            request._fail(WorkerUnavailableError(
                f"worker {handle.worker_id} pipe is closed: {exc}"))

    def _register(self, handle: _WorkerHandle, req_id: int,
                  request: ClusterRequest, is_batch: bool) -> bool:
        """Enter ``request`` as in flight on ``handle``; False when the
        handle is already quarantined, whose sweep of ``_pending`` has
        run and would never settle the entry."""
        with self._lock:
            if self._handles.get(handle.worker_id) is not handle:
                return False
            self._pending[req_id] = (request, handle, is_batch)
            if is_batch:
                handle.in_flight += 1
        return True

    def _callback_failed(self, request, exc: BaseException) -> None:
        self._f_callback_errors.labels(namespace=request.namespace).inc()
        self.events.emit("callback_error", namespace=request.namespace,
                         error=type(exc).__name__, detail=str(exc))

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        """Quarantine ``handle``'s worker: out of the ring, onto the
        dead list, and every request in flight or parked on it failed
        typed.  A no-op unless ``handle`` is still the one serving its
        id (``restart_worker`` reuses ids; ``stop`` detaches first)."""
        worker_id = handle.worker_id
        with self._lock:
            if self._handles.get(worker_id) is not handle:
                return
            del self._handles[worker_id]
            self._dead.append(worker_id)
            self._ring.remove(worker_id)
            orphaned = [req_id for req_id, (_r, h, _b)
                        in self._pending.items() if h is handle]
            entries = [self._pending.pop(req_id) for req_id in orphaned]
        parked = handle.close()
        self.events.emit("worker_crash", worker=worker_id,
                         orphaned=len(entries) + len(parked))
        for request, _handle, is_batch in entries:
            if is_batch:
                self._c_unavail.inc(request.count)
            request._fail(WorkerUnavailableError(
                f"worker {worker_id!r} died with the request in "
                "flight"))
        for request in parked:
            self._fail_unavailable(handle, request, "with the request "
                                   "waiting for a slot")

    def _read_loop(self, handle: _WorkerHandle) -> None:
        """The one reader of ``handle``'s pipe: settle each response;
        at EOF the worker is gone, so quarantine it."""
        while True:
            try:
                req_id, status, payload = handle.conn.recv()
            except (EOFError, OSError):
                break
            self._settle(handle, req_id, status, payload)
        with handle.send_lock:          # no sender mid-write on the fd
            handle.conn.close()
        self._mark_dead(handle)

    def _settle(self, handle: _WorkerHandle, req_id: int, status: str,
                payload) -> None:
        worker_id = handle.worker_id
        with self._lock:
            entry = self._pending.pop(req_id, None)
            if entry is not None and entry[2]:
                handle.in_flight -= 1
        if entry is None:
            return
        request, _handle, is_batch = entry
        now = time.perf_counter()
        if is_batch:
            handle.release()
            handle.observe_latency(now - request.submitted_at)
        if status == "ok":
            if is_batch:
                values, version, compute_s, worker_t0 = payload
                self._observe_stages(request, worker_id, compute_s,
                                     worker_t0, now)
                if request._complete(values, version, worker=worker_id):
                    self._c_served.inc(request.count)
                    self._h_latency.labels(
                        namespace=request.namespace).observe(
                        request.completed_at - request.submitted_at)
                else:
                    self._c_cancel.inc(request.count)
                    self.events.emit("cancel",
                                     namespace=request.namespace,
                                     worker=worker_id,
                                     stage="post_compute")
            else:
                request._complete(payload, None, worker=worker_id)
        elif status == "shed":
            if request._fail(LoadShedError(str(payload)), shed=True):
                self._c_sheds.inc(request.count)
                self.events.emit("shed", namespace=request.namespace,
                                 reason="worker_deadline",
                                 worker=worker_id)
        else:
            error = payload if isinstance(payload, BaseException) \
                else RuntimeError(str(payload))
            if request._fail(error) and is_batch:
                if isinstance(error, WorkerUnavailableError):
                    # Worker-reported transient unavailability
                    # (e.g. not-yet-adopted namespace during a
                    # restart) is retryable, not a failure.
                    self._c_unavail.inc(request.count)
                else:
                    self._f_failures.labels(
                        error=type(error).__name__).inc(request.count)

    def _observe_stages(self, request: ClusterRequest, worker_id: str,
                        compute_s: float, worker_t0: float,
                        now: float) -> None:
        """Per-stage accounting from the response envelope's worker-side
        timestamps (perf_counter is host-wide on Linux, so they share
        the parent's clock)."""
        ns = request.namespace
        sent = request.dispatched_at
        if sent is None:
            return
        queue_wait = max(0.0, worker_t0 - sent)
        collect = max(0.0, now - (worker_t0 + compute_s))
        self._h_stage.labels(namespace=ns, stage="worker_queue_wait") \
            .observe(queue_wait)
        self._h_stage.labels(namespace=ns, stage="worker_compute") \
            .observe(compute_s)
        self._h_stage.labels(namespace=ns, stage="collect") \
            .observe(collect)
        if request.trace is not None:
            request.trace.add_span("worker_queue_wait", sent, worker_t0,
                                   worker=worker_id)
            request.trace.add_span("worker_compute", worker_t0,
                                   worker_t0 + compute_s,
                                   worker=worker_id, batch=request.count)
            request.trace.add_span("collect", worker_t0 + compute_s, now)

    # ------------------------------------------------------------------
    # Metrics exposition
    # ------------------------------------------------------------------
    def worker_metrics(self, timeout: float | None = None) -> dict:
        """Poll every live worker for its registry snapshot."""
        out: dict[str, dict] = {}
        requests = []
        for wid, handle in list(self._handles.items()):
            if not handle.alive():
                continue
            requests.append((wid, self._control(handle, "metrics")))
        for wid, request in requests:
            try:
                out[wid] = request.result(
                    timeout=timeout or self.REQUEST_TIMEOUT_S)
            except BaseException:  # noqa: BLE001 - dead worker mid-poll
                continue
        return out

    def metrics_snapshots(self) -> list:
        """``(snapshot, extra_labels)`` pairs for the parent registry and
        every worker's, ready for :meth:`MetricsRegistry.merged` — the
        hook :class:`~repro.serve.net.HTTPFrontDoor` uses to render
        cluster-wide ``/metrics``."""
        snaps = [(self.metrics.snapshot(), None)]
        for wid, snap in self.worker_metrics().items():
            snaps.append((snap, {"worker": wid}))
        return snaps

    def merged_metrics(self):
        """Fresh registry merging the parent and all workers (fixed
        bucket layouts make the histogram merge exact)."""
        from ..obs import MetricsRegistry
        return MetricsRegistry.merged(self.metrics_snapshots())

    def stats(self) -> dict:
        workers = {}
        for wid, handle in list(self._handles.items()):
            workers[wid] = {
                "alive": handle.alive(),
                "in_flight": handle.in_flight,
                "ewma_batch_seconds": handle.ewma_seconds,
                "incarnation": self._incarnations.get(wid, 0),
            }
        return {"workers": workers,
                "supervisor": None if self._supervisor is None
                else self._supervisor.stats(),
                "assignment": dict(self._assignment),
                "versions": {space.name: space.version
                             for space in self.registry}}
