"""Constraint-signature result cache for the estimate service.

Cardinality estimates are pure functions of (model version, constraint
list): the same query against the same snapshot may as well be answered
from memory.  Keys are content hashes of the *expanded* constraint masks
— two syntactically different predicate sets that compile to the same
per-column validity masks share an entry — and the whole cache is tied to
one model version: the first access after a hot-swap clears it, so a new
model can never serve a predecessor's numbers.  The planner's
:class:`~repro.optimizer.subplan.ServingCardinalityProvider` keeps one
per namespace for its per-plan answer arrays, keyed by query signature.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Hashable

import numpy as np


class ResultCache:
    """LRU cache of estimates, invalidated on version bump."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._version: int | None = None
        self.invalidations = 0

    # ------------------------------------------------------------------
    @staticmethod
    def signature(constraints: list) -> bytes:
        """Content hash of an ``expand_masks`` constraint list."""
        h = hashlib.blake2b(digest_size=16)
        for cons in constraints:
            if cons is None:
                h.update(b"\x00")
            else:
                h.update(cons[0].encode())
                h.update(np.ascontiguousarray(cons[1]).tobytes())
                if cons[0] == "scaled":
                    h.update(np.ascontiguousarray(cons[2]).tobytes())
            h.update(b"\x01")
        return h.digest()

    # ------------------------------------------------------------------
    def _sync_version_locked(self, version: int) -> bool:
        """Adopt ``version`` if it is new; returns whether ``version`` is
        the cache's current one.

        Versions are monotonic, so a *smaller* version comes from a
        batch still in flight on a pre-swap snapshot: it reads and
        writes nothing (instead of wiping the new version's entries —
        interleaved old/new traffic during a swap must not ping-pong
        the cache empty).
        """
        if self._version is None or version > self._version:
            if self._version is not None and self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._version = version
        return version == self._version

    def get(self, key: Hashable, version: int) -> object | None:
        with self._lock:
            if not self._sync_version_locked(version):
                return None
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, version: int, value: object) -> None:
        with self._lock:
            if not self._sync_version_locked(version):
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        # ``invalidations`` is the one count kept here rather than in
        # the metrics registry: ``GET /status`` serves it, and
        # ``perf/run.py`` reads it there.
        with self._lock:
            return {"entries": len(self._entries),
                    "invalidations": self.invalidations,
                    "version": self._version}
