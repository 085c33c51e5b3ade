"""Consistent-hash namespace placement for the scale-out serving tier.

Namespaces map to worker processes through a classic consistent-hash
ring (:class:`HashRing`): every worker contributes
:attr:`HashRing.VNODES` virtual points hashed onto a 64-bit circle, and a
namespace's natural owner is the first worker point at or after its own
hash.  Adding or removing one of ``N`` workers therefore moves only
~1/N of the namespaces — the property that makes worker crashes and
elastic resizes cheap (only the migrated namespaces pay a model
re-adoption).

Plain ring walks can be lopsided for small key sets (a handful of
namespaces over a handful of workers), so :meth:`HashRing.assign` places
with *bounded loads* (Mirrokni et al.'s consistent hashing with bounded
loads): each key walks the ring but skips workers already at the load
cap ``ceil(len(keys) * BALANCE / len(workers))``.  With ``BALANCE`` at
1.0 the assignment is perfectly even while still inheriting the ring's
stability for unaffected keys.

Hashes come from ``blake2b`` — stable across processes and Python runs
(never ``hash()``, which is salted per process).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from collections.abc import Iterable, Iterator


class WorkerUnavailableError(RuntimeError):
    """The worker owning a namespace is down (crashed or stopped) and
    its namespaces have not been re-adopted elsewhere yet."""


def stable_hash(key: str) -> int:
    """64-bit process-stable hash of ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring over worker ids with virtual nodes."""

    #: Virtual points each worker contributes to the ring.
    VNODES = 64
    #: Load cap of :meth:`assign`, as a multiple of an even share.
    BALANCE = 1.0

    def __init__(self, workers: Iterable[str] = ()):
        self._points: list[int] = []          # sorted vnode hashes
        self._owners: dict[int, str] = {}     # vnode hash -> worker id
        self._workers: set[str] = set()
        for worker in workers:
            self.add(worker)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(self, worker: str) -> None:
        worker = str(worker)
        if worker in self._workers:
            return
        self._workers.add(worker)
        for i in range(self.VNODES):
            point = stable_hash(f"{worker}#{i}")
            # Collisions across 64-bit blake2b are vanishingly rare; the
            # deterministic tiebreak keeps the ring identical everywhere.
            while point in self._owners and self._owners[point] != worker:
                point = (point + 1) & (2**64 - 1)
            self._owners[point] = worker
            bisect.insort(self._points, point)

    def remove(self, worker: str) -> None:
        worker = str(worker)
        if worker not in self._workers:
            return
        self._workers.discard(worker)
        dead = [p for p, w in self._owners.items() if w == worker]
        for point in dead:
            del self._owners[point]
        self._points = sorted(self._owners)

    @property
    def workers(self) -> list[str]:
        return sorted(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker: str) -> bool:
        return worker in self._workers

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def walk(self, key: str) -> Iterator[str]:
        """Distinct workers in ring order starting at ``key``'s hash."""
        if not self._points:
            return
        start = bisect.bisect_left(self._points, stable_hash(key))
        seen: set[str] = set()
        n = len(self._points)
        for step in range(n):
            worker = self._owners[self._points[(start + step) % n]]
            if worker not in seen:
                seen.add(worker)
                yield worker

    def owner(self, key: str) -> str:
        """The worker owning ``key`` (first ring point at/after its
        hash)."""
        for worker in self.walk(key):
            return worker
        raise WorkerUnavailableError("hash ring has no workers")

    # ------------------------------------------------------------------
    def assign(self, keys: Iterable[str]) -> dict[str, str]:
        """Place every key on a worker, bounded-load.

        Each worker takes at most ``ceil(len(keys) * BALANCE /
        len(workers))`` keys: a key whose natural owner is full walks on
        to the next under-cap worker.  Keys are placed in ring-hash order
        so the result is deterministic and membership changes move only
        keys near the changed worker (plus any overflow they displace).
        """
        keys = list(dict.fromkeys(str(k) for k in keys))
        if not self._workers:
            raise WorkerUnavailableError("hash ring has no workers")
        cap = max(1, math.ceil(len(keys) * self.BALANCE / len(self._workers)))
        loads: dict[str, int] = {w: 0 for w in self._workers}
        out: dict[str, str] = {}
        for key in sorted(keys, key=stable_hash):
            # The caps sum to at least len(keys), and the walk visits
            # every worker, so some worker on it is still under cap.
            placed = next(w for w in self.walk(key) if loads[w] < cap)
            loads[placed] += 1
            out[key] = placed
        return out
