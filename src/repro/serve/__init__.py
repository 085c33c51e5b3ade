"""Online serving subsystem: the paper's incremental-ingestion loop
(Section 4.5) run under live traffic.

The cooperating pieces (see the README's "Serving" section; the three
fronts — :class:`UAEServer`, :class:`RoutedEstimateService`,
:class:`ClusterEstimateService` — share the one keyword contract in the
README's "Front contract" table):

* :class:`ModelRegistry` — versioned, immutable UAE snapshots with atomic
  hot-swap; background refinement never blocks or corrupts in-flight
  estimates (:mod:`repro.serve.registry`);
* :class:`EstimateService` — micro-batching front-end over the inference
  engine's :class:`~repro.infer.BatchScheduler`, with sync and
  deadline-aware async APIs (:mod:`repro.serve.service`);
* :class:`ResultCache` — constraint-signature result cache invalidated on
  model-version bumps (:mod:`repro.serve.cache`);
* :class:`FeedbackCollector` — rolling (query, true cardinality) feedback
  plus a q-error drift monitor that decides when to refine
  (:mod:`repro.serve.feedback`);
* :class:`UAEServer` — the loop tying them together: serve, observe,
  refine, publish (:mod:`repro.serve.server`);
* the multi-table front door (:mod:`repro.serve.router`):
  :class:`MultiTableRegistry` keys one registry per table / join-schema
  *namespace*, :class:`RoutedEstimateService` routes each query to its
  namespace's micro-batcher, and :class:`RefinementPool` bounds
  background-refinement capacity fairly across namespaces;
* the scale-out tier (:mod:`repro.serve.cluster`):
  :class:`ClusterEstimateService` fronts N shared-nothing worker
  processes, placing namespaces by consistent hashing
  (:mod:`repro.serve.placement`) and publishing hot-swaps zero-copy
  through per-namespace ``shared_memory`` segments
  (:mod:`repro.serve.snapshot`);
* the self-healing model-ops layer (:mod:`repro.serve.modelops` +
  :mod:`repro.serve.supervisor`): :class:`ModelOps` shadow-validates
  every refinement candidate on a held-out probe set before publish,
  arms a rolling q-error tripwire that auto-rolls-back a regressing
  swap, and re-warms the result cache after each publish;
  :class:`WorkerSupervisor` restarts dead cluster workers with
  exponential backoff (evicting crash-loopers); both are exercised by
  the deterministic chaos harness (:mod:`repro.chaos`);
* the asyncio network front door (:mod:`repro.serve.net`):
  :class:`AsyncEstimateService` makes any front awaitable (deadline
  propagation, cancellation-as-abandonment) and :class:`HTTPFrontDoor`
  puts an HTTP/JSON wire protocol on it with typed error mapping
  (LoadShedError → 503 + Retry-After, UnknownNamespaceError → 404,
  deadline exceeded → 504); ``python -m repro.serve --http PORT``
  serves it, and :mod:`repro.bench.load_bench` drives it open-loop.

Every layer shares the :mod:`repro.obs` observability plane: one
:class:`~repro.obs.MetricsRegistry` per process (workers merged at
scrape time), per-request traces threaded edge-to-engine, and the
``GET /metrics`` / ``GET /debug/traces`` endpoints on the front door.

``python -m repro.serve`` drives a shifting workload through the full
loop (pass several ``--datasets`` for the multi-table front door, or
``--workers N`` for the scale-out cluster);
``python -m repro.bench serving`` is the benchmarked version that
writes ``BENCH_serve.json``.
"""

from ..chaos import ChaosPlan, Fault
from .cache import ResultCache
from .cluster import ClusterEstimateService, ClusterRequest, LoadShedError
from .feedback import FeedbackCollector
from .modelops import (ModelOps, ModelOpsConfig, QErrorTripwire,
                       ShadowValidator)
from .net import (ERROR_STATUS, AsyncEstimateService, AsyncHTTPClient,
                  HTTPFrontDoor, serve_http, status_for)
from .placement import HashRing, WorkerUnavailableError
from .registry import ModelRegistry, ModelVersion
from .router import (AmbiguousNamespaceError, MultiTableRegistry, Namespace,
                     RefinementJob, RefinementPool, RoutedEstimateService,
                     RoutingError, UnknownNamespaceError)
from .server import UAEServer
from .service import EstimateRequest, EstimateService, RequestCancelledError
from .snapshot import (HAVE_SHARED_MEMORY, SharedSnapshot, SnapshotCodec,
                       SnapshotTornError)
from .supervisor import WorkerSupervisor

__all__ = ["ModelRegistry", "ModelVersion", "EstimateService",
           "EstimateRequest", "ResultCache", "FeedbackCollector",
           "UAEServer", "MultiTableRegistry", "Namespace",
           "RoutedEstimateService", "RefinementPool", "RefinementJob",
           "RoutingError", "UnknownNamespaceError",
           "AmbiguousNamespaceError", "ClusterEstimateService",
           "ClusterRequest", "LoadShedError", "HashRing",
           "WorkerUnavailableError", "SharedSnapshot", "SnapshotCodec",
           "SnapshotTornError", "HAVE_SHARED_MEMORY",
           "RequestCancelledError", "AsyncEstimateService",
           "HTTPFrontDoor", "AsyncHTTPClient", "ERROR_STATUS",
           "status_for", "serve_http", "ModelOps", "ModelOpsConfig",
           "ShadowValidator", "QErrorTripwire", "WorkerSupervisor",
           "ChaosPlan", "Fault"]
