"""Versioned model registry with atomic hot-swap.

The serving layer never estimates on the *training* UAE directly: a
background ``ingest_data``/``ingest_queries`` step bumps parameter
versions mid-stream, which would force the compiled engine to recompile
(and change results) between micro-batches of one request wave.  Instead
the registry keeps immutable **snapshots** — detached UAE copies produced
by :meth:`repro.core.UAE.snapshot`.  Snapshot weights are adopted through
``load_state_dict``, which deep-copies the arrays and bumps the copy's
parameter versions, so a snapshot's compiled engine can never serve stale
fused weights (the invalidation contract in :mod:`repro.infer.compiled`).

``publish`` installs a new snapshot with a single reference assignment
under a lock.  Estimation paths capture ``registry.active()`` once per
batch and use that object throughout: requests in flight during a swap
finish on the version they started on; the next batch sees the new one.
Nothing blocks, nothing tears.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..core.uae import UAE


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published snapshot."""

    version: int
    model: UAE
    source: str                   # "initial" | "query-refine" | "data-refine" | ...
    published_at: float = field(default_factory=time.time)

    def size_bytes(self) -> int:
        return self.model.size_bytes()


class ModelRegistry:
    """Holds versioned UAE snapshots; reads are lock-free, swaps atomic."""

    #: Snapshots retained for ``get`` / ``rollback`` (the active one
    #: included); older ones are trimmed on publish.
    KEEP_VERSIONS = 3

    def __init__(self, estimator: UAE, name: str = "default"):
        # The namespace this registry serves under a MultiTableRegistry
        # front door (one registry per table / join schema); purely a
        # label for single-registry deployments.
        self.name = str(name)
        self._lock = threading.Lock()
        self._versions: dict[int, ModelVersion] = {}
        self._next_version = 1
        self._active: ModelVersion | None = None
        self.publish(estimator, source="initial")

    # ------------------------------------------------------------------
    def publish(self, estimator: UAE, source: str = "refine") -> ModelVersion:
        """Snapshot ``estimator`` and atomically make it the active model.

        The snapshot (clone + ``load_state_dict`` + eager engine compile)
        happens *outside* the lock — publishing a large model never stalls
        concurrent ``active()`` readers.
        """
        snap = estimator.snapshot()
        with self._lock:
            mv = ModelVersion(version=self._next_version, model=snap,
                              source=source)
            self._next_version += 1
            self._versions[mv.version] = mv
            self._active = mv
            self._trim_locked()
        return mv

    def _trim_locked(self) -> None:
        while len(self._versions) > self.KEEP_VERSIONS:
            oldest = min(self._versions)
            if oldest == self._active.version:
                break
            del self._versions[oldest]

    # ------------------------------------------------------------------
    def active(self) -> ModelVersion:
        """The current serving snapshot (a plain attribute read — callers
        hold the returned object for a whole batch, so a concurrent
        publish never mixes versions within one estimate)."""
        return self._active

    @property
    def version(self) -> int:
        return self._active.version

    def get(self, version: int) -> ModelVersion | None:
        with self._lock:
            return self._versions.get(version)

    def rollback(self, version: int) -> ModelVersion:
        """Re-publish a retained version's snapshot as the new active one
        (bad-refinement guard).

        Version numbers stay monotonic — consumers keyed on the active
        version (the result cache, drift windows) treat a rollback like
        any other swap instead of time-travelling backwards.
        """
        with self._lock:
            mv = self._versions.get(version)
            if mv is None:
                raise KeyError(f"version {version} not retained "
                               f"(have {sorted(self._versions)})")
            redo = ModelVersion(version=self._next_version, model=mv.model,
                                source=f"rollback(v{version})")
            self._next_version += 1
            self._versions[redo.version] = redo
            self._active = redo
            self._trim_locked()
            return redo

    def history(self) -> list[dict]:
        with self._lock:
            return [{"version": mv.version, "source": mv.source,
                     "published_at": mv.published_at,
                     "active": mv.version == self._active.version}
                    for mv in sorted(self._versions.values(),
                                     key=lambda m: m.version)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)
