"""Self-healing model-ops for the continuous-learning loop.

The refinement loop publishes whatever the trainer produced — which
means a single poisoned refinement (skewed feedback, a corrupt insert
batch, a bad gradient step) silently degrades every subsequent estimate.
This module closes the loop with three guards, attached to one
namespace's :class:`~repro.serve.server.UAEServer` stack via the
``modelops`` argument (``RoutedEstimateService.add_table(...,
modelops=...)`` passes it through):

* **Shadow validation** (:class:`ShadowValidator`) — before a candidate
  is published, it is scored against the *live* snapshot on a held-out
  probe set (the hottest labeled queries observed from serving
  feedback), on the same seeded engine path serving uses.
  A candidate whose mean q-error exceeds ``reject_ratio`` x the live
  model's is rejected: the trainer's weights are restored from the
  active snapshot and nothing is published
  (``repro_shadow_rejects_total``).
* **Tripwire rollback** (:class:`QErrorTripwire`) — shadow scoring can
  only judge what the probe set covers, so every publish also arms a
  rolling post-swap q-error window against the pre-swap ceiling.  If
  serving accuracy degrades past :data:`TRIPWIRE_RATIO` x the ceiling, the
  server rolls back to the last good version automatically
  (``ModelRegistry.rollback`` re-publishes it forward,
  ``repro_tripwire_rollbacks_total``), then enters a cooldown so a noisy
  window cannot ping-pong versions.
* **Post-swap cache warming** — a validated publish empties the result
  cache by design (new version).  :meth:`ModelOps.on_publish` replays
  the hottest observed constraint signatures through the new snapshot in
  the background, so the first post-swap wave of hot queries hits the
  cache instead of paying p99-spiking engine time.

All three publish their decisions to the event log (``shadow_reject``,
``tripwire_rollback``, ``cache_warm``) and the metrics registry, so a
self-healing action is always observable after the fact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..workload.metrics import qerrors

#: Bound on distinct labeled probes retained from observations.
PROBE_CAPACITY = 256
#: Probes scored per validation (hottest first).
MAX_PROBES = 64
#: Below this many probes the gate passes unjudged (cold start).
MIN_PROBES = 4
#: Pinned sampling seed for shadow scoring (candidate and live are
#: scored on the identical stream, so the comparison is exact) and, with
#: the version, for post-swap cache warming.
SHADOW_SEED = 9173
#: Trip when the post-publish window's mean q-error exceeds this
#: multiple of the armed pre-swap ceiling.
TRIPWIRE_RATIO = 2.0


@dataclass(frozen=True)
class ModelOpsConfig:
    """Knobs for shadow validation, the tripwire, and cache warming."""

    #: Reject a candidate whose probe mean q-error exceeds this multiple
    #: of the live snapshot's.  ``inf`` disables the shadow gate (the
    #: tripwire still guards post-publish).
    reject_ratio: float = 1.5
    #: Post-publish rolling window the tripwire averages.
    tripwire_window: int = 32
    tripwire_min_obs: int = 8
    #: Seconds after a rollback during which the tripwire stays quiet.
    cooldown_s: float = 5.0
    #: Hottest signatures replayed through a freshly published snapshot
    #: (0 disables warming).
    warm_top_n: int = 32


class ShadowValidator:
    """Held-out probe set + candidate-vs-live scoring.

    Probes accumulate from serving feedback (``add_probe``) keyed by
    query, hottest-first; until :data:`MIN_PROBES` have arrived the gate
    passes unjudged.
    """

    def __init__(self, config: ModelOpsConfig):
        self.config = config
        self._lock = threading.Lock()
        # query -> [observation count, latest truth]
        self._observed: dict = {}

    def add_probe(self, query, truth: float) -> None:
        with self._lock:
            entry = self._observed.get(query)
            if entry is not None:
                entry[0] += 1
                entry[1] = float(truth)
                return
            self._observed[query] = [1, float(truth)]
            if len(self._observed) > PROBE_CAPACITY:
                # Drop the coldest half in one pass (amortised O(1)).
                keep = sorted(self._observed.items(),
                              key=lambda kv: kv[1][0],
                              reverse=True)[:PROBE_CAPACITY // 2]
                self._observed = dict(keep)

    def probes(self) -> tuple[list, np.ndarray]:
        """(queries, truths): the :data:`MAX_PROBES` hottest observed
        probes."""
        with self._lock:
            hot = sorted(self._observed.items(), key=lambda kv: kv[1][0],
                         reverse=True)[:MAX_PROBES]
        return ([q for q, _ in hot],
                np.asarray([entry[1] for _, entry in hot], dtype=np.float64))

    def score(self, service, live_snap, candidate) -> dict:
        """Mean probe q-error of ``candidate`` (a trainer UAE) vs the
        live snapshot, both on the pinned shadow seed; the verdict the
        gate acts on."""
        cfg = self.config
        queries, truths = self.probes()
        if len(queries) < MIN_PROBES:
            return {"accepted": True, "reason": "insufficient-probes",
                    "probes": len(queries), "candidate_qerr": None,
                    "live_qerr": None, "reject_ratio": cfg.reject_ratio}
        live_est = service.estimate_on(live_snap, queries, seed=SHADOW_SEED)
        cand_est = service.estimate_on(SimpleNamespace(model=candidate),
                                       queries, seed=SHADOW_SEED)
        live_q = float(qerrors(live_est, truths).mean())
        cand_q = float(qerrors(cand_est, truths).mean())
        accepted = cand_q <= cfg.reject_ratio * max(live_q, 1.0)
        return {"accepted": bool(accepted),
                "reason": "scored",
                "probes": len(queries),
                "candidate_qerr": cand_q,
                "live_qerr": live_q,
                "reject_ratio": cfg.reject_ratio}


class QErrorTripwire:
    """Rolling post-publish q-error window vs an armed pre-swap ceiling."""

    def __init__(self, config: ModelOpsConfig):
        self.config = config
        self._lock = threading.Lock()
        self._window: list[float] = []
        self.armed = False
        self.baseline: float | None = None
        self.version: int | None = None
        self.cooldown_until = 0.0          # monotonic

    def arm(self, baseline: float, version: int) -> None:
        with self._lock:
            self.baseline = max(float(baseline), 1.0)
            self.version = int(version)
            self._window = []
            self.armed = True

    def disarm(self) -> None:
        with self._lock:
            self.armed = False
            self._window = []

    def start_cooldown(self) -> None:
        with self._lock:
            self.cooldown_until = time.monotonic() + self.config.cooldown_s

    def observe(self, err: float) -> bool:
        """Record one serving q-error; True when the wire trips."""
        cfg = self.config
        value = float(err)
        if not np.isfinite(value):
            # A NaN/inf estimate (e.g. poisoned weights overflowing the
            # engine) is the worst possible error, not a missing one.
            value = 1e18
        with self._lock:
            if not self.armed or time.monotonic() < self.cooldown_until:
                return False
            self._window.append(value)
            if len(self._window) > cfg.tripwire_window:
                self._window.pop(0)
            if len(self._window) < cfg.tripwire_min_obs:
                return False
            mean = sum(self._window) / len(self._window)
            return mean > TRIPWIRE_RATIO * self.baseline

    def stats(self) -> dict:
        with self._lock:
            return {"armed": self.armed, "baseline": self.baseline,
                    "version": self.version, "window": len(self._window)}


class ModelOps:
    """The controller wiring validator + tripwire + warming to one
    namespace's stack.

    Constructed by the per-namespace :class:`~repro.serve.server.UAEServer`
    when ``modelops=`` is a :class:`ModelOpsConfig`, or True for its
    defaults (passed through the front's ``add_table`` / ``add_join``);
    attaches itself as ``server.modelops`` and is driven from the stack's
    refinement and observation paths.
    """

    def __init__(self, server, config: ModelOpsConfig):
        self.server = server
        self.config = config
        self.validator = ShadowValidator(self.config)
        self.tripwire = QErrorTripwire(self.config)
        self.rejects: list[dict] = []
        self.rollbacks: list[dict] = []
        self.last_verdict: dict | None = None
        # Pre-swap serving accuracy, tracked across feedback drains (the
        # collector's own monitor resets on every drain, which is
        # exactly when the tripwire needs a pre-fault ceiling).
        self._recent_errs: list[float] = []
        self._recent_lock = threading.Lock()
        self._last_good = server.registry.version
        self._warm_thread: threading.Thread | None = None
        ns = server.namespace
        m = server.metrics
        self._c_rejects = m.counter(
            "repro_shadow_rejects_total",
            "Refinement candidates rejected by shadow validation",
            ("namespace",)).labels(namespace=ns)
        self._c_trips = m.counter(
            "repro_tripwire_rollbacks_total",
            "Automatic rollbacks driven by the post-swap q-error tripwire",
            ("namespace",)).labels(namespace=ns)
        self._c_warmed = m.counter(
            "repro_cache_warmed_total",
            "Cache entries primed by post-swap warming",
            ("namespace",)).labels(namespace=ns)
        server.modelops = self

    # ------------------------------------------------------------------
    # Hooks driven by UAEServer
    # ------------------------------------------------------------------
    def gate(self) -> dict:
        """Shadow-validate the trainer as a candidate against the live
        snapshot (called under the refine lock, pre-publish).  On
        rejection the trainer is rewound to the active snapshot's
        weights, so the bad update leaves no trace in future training."""
        server = self.server
        if not np.isfinite(self.config.reject_ratio):
            verdict = {"accepted": True, "reason": "gate-disabled",
                       "probes": 0, "candidate_qerr": None,
                       "live_qerr": None,
                       "reject_ratio": self.config.reject_ratio}
        else:
            live = server.registry.active()
            verdict = self.validator.score(server.service, live,
                                           server.trainer)
        self.last_verdict = verdict
        if not verdict["accepted"]:
            live = server.registry.active()
            server.trainer.swap_weights(live.model.model.state_dict())
            self._c_rejects.inc()
            self.rejects.append(verdict)
            server.events.emit("shadow_reject", namespace=server.namespace,
                               candidate_qerr=verdict["candidate_qerr"],
                               live_qerr=verdict["live_qerr"],
                               reject_ratio=verdict["reject_ratio"],
                               probes=verdict["probes"])
        return verdict

    def on_publish(self, prev_version: int, mv, verdict=None) -> None:
        """Arm the tripwire against the pre-swap ceiling and kick off
        background cache warming for the new version."""
        self._last_good = int(prev_version)
        with self._recent_lock:
            recent = list(self._recent_errs)
        if verdict and verdict.get("live_qerr") is not None:
            baseline = verdict["live_qerr"]
        elif recent:
            baseline = sum(recent) / len(recent)
        else:
            baseline = 1.0
        self.tripwire.arm(baseline, mv.version)
        with self._recent_lock:
            self._recent_errs = []
        if self.config.warm_top_n > 0:
            thread = threading.Thread(target=self._warm,
                                      args=(mv.version,),
                                      name="modelops-warm", daemon=True)
            self._warm_thread = thread
            thread.start()

    def on_observation(self, query, estimate: float, truth: float,
                       err: float) -> None:
        """Feed one serving observation into the probe set and the
        tripwire; a trip attempts the automatic rollback."""
        self.validator.add_probe(query, truth)
        with self._recent_lock:
            self._recent_errs.append(float(err))
            if len(self._recent_errs) > self.config.tripwire_window:
                self._recent_errs.pop(0)
        if self.tripwire.observe(err):
            self._try_rollback()

    # ------------------------------------------------------------------
    def _try_rollback(self) -> dict | None:
        """Roll back to the last good version — non-blocking: if a
        refinement holds the refine lock the trip is dropped and the
        next tripping observation retries (the tripwire stays armed)."""
        server = self.server
        target = self._last_good
        if not server._refine_lock.acquire(blocking=False):
            return None
        try:
            if server.registry.get(target) is None:
                # The good version aged out of retention; nothing safe
                # to return to — disarm rather than thrash.
                self.tripwire.disarm()
                server.events.emit("tripwire_lost_target",
                                   namespace=server.namespace,
                                   target=target)
                return None
            record = server.rollback(target)
        finally:
            server._refine_lock.release()
        self.tripwire.start_cooldown()
        self.tripwire.disarm()
        # The rollback re-published the good snapshot as a new version;
        # that is the target if the *next* publish goes bad too.
        self._last_good = server.registry.version
        self._c_trips.inc()
        record = dict(record, rolled_back_to=target)
        self.rollbacks.append(record)
        server.events.emit("tripwire_rollback", namespace=server.namespace,
                           target=target, version=server.registry.version,
                           baseline=self.tripwire.baseline)
        return record

    def _warm(self, version: int) -> None:
        service = self.server.service
        queries = service.hot_queries(self.config.warm_top_n)
        if not queries:
            return
        try:
            warmed = service.warm_cache(
                queries, version=version,
                seed=[SHADOW_SEED, version])
        except Exception:              # noqa: BLE001 - warming is advisory
            return
        if warmed:
            self._c_warmed.inc(warmed)
            self.server.events.emit("cache_warm",
                                    namespace=self.server.namespace,
                                    version=version, warmed=warmed)

    def join_warm(self, timeout: float | None = 5.0) -> None:
        thread = self._warm_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)

    def stats(self) -> dict:
        # The counts (rejects, rollbacks, warmed entries) are the
        # namespace's repro_{shadow_rejects,tripwire_rollbacks,
        # cache_warmed}_total series; the records are on the instance.
        return {"last_verdict": self.last_verdict,
                "tripwire": self.tripwire.stats()}
