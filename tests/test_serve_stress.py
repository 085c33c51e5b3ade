"""Concurrency stress: EstimateService + ResultCache across version bumps.

The serving invariant under test: **no stale cache hit ever crosses a
version boundary** — a value returned for model version ``v`` was
computed under version ``v``, never under a predecessor, no matter how
reads, writes, micro-batch flushes, and hot-swaps interleave.

Marked ``slow``: tier-1 deselects these (pytest.ini); CI's slow step and
local ``-m slow`` runs include them.
"""

import threading
import time
from collections import defaultdict

import numpy as np
import pytest

from repro.serve import EstimateService, ModelRegistry, ResultCache

pytestmark = pytest.mark.slow


def perturb(model) -> None:
    for p in model.model.parameters():
        p.data += 0.05
        p.bump_version()


class TestResultCacheHammer:
    def test_no_cross_version_value_under_contention(self):
        """Readers/writers race a version bumper; every hit's payload
        must encode the exact version the reader asked for."""
        cache = ResultCache(capacity=128)
        keys = [bytes([k]) for k in range(32)]
        current = [1]                       # mutated by the bumper only
        stop = threading.Event()
        violations: list[tuple] = []

        def encode(version: int, k: int) -> float:
            return version * 1000.0 + k

        def writer(seed: int):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                version = current[0]
                k = int(rng.integers(0, len(keys)))
                cache.put(keys[k], version, encode(version, k))

        def reader(seed: int):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                version = current[0]
                k = int(rng.integers(0, len(keys)))
                got = cache.get(keys[k], version)
                if got is None:
                    continue
                if got != encode(version, k):
                    violations.append((version, k, got))

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(3)]
        threads += [threading.Thread(target=reader, args=(10 + i,))
                    for i in range(3)]
        for t in threads:
            t.start()
        for _ in range(20):                 # 20 version bumps under load
            time.sleep(0.01)
            current[0] += 1
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not violations, violations[:5]
        assert cache.stats()["version"] >= 20


class TestEstimateServiceStress:
    def test_no_stale_hit_crosses_version_boundary(self, tiny_uae,
                                                   tiny_workload):
        """Many threads submit through the micro-batching worker while
        the registry hot-swaps repeatedly.  Every completed request's
        value must be one actually computed under the version it reports
        — a cache entry surviving a swap would fail this exactly."""
        trainer = tiny_uae.clone()
        registry = ModelRegistry(trainer)
        cache = ResultCache(capacity=512)
        service = EstimateService(registry, cache, max_batch=8, seed=0)
        computed: dict[int, set] = defaultdict(set)
        record_lock = threading.Lock()
        original = service._compute

        def recording(snap, constraint_lists, seed=None):
            out = original(snap, constraint_lists, seed)
            with record_lock:
                computed[snap.version].update(float(v) for v in out)
            return out

        service._compute = recording
        queries = list(tiny_workload.queries[:6])
        results: list[tuple[int, float, bool]] = []
        errors: list[BaseException] = []

        def client(seed: int):
            rng = np.random.default_rng(seed)
            for _ in range(80):
                query = queries[int(rng.integers(0, len(queries)))]
                try:
                    request = service.submit(query)
                    value = request.result(timeout=60.0)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                with record_lock:
                    results.append((request.version, value,
                                    request.from_cache))

        total = 6 * 80
        with service:
            threads = [threading.Thread(target=client, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            # Four hot-swaps paced by traffic progress, so requests are
            # guaranteed to land before, between, and after swaps.
            for i in range(1, 5):
                while len(results) < i * total // 5 and not errors:
                    time.sleep(0.001)
                perturb(trainer)
                registry.publish(trainer, source="stress")
            for t in threads:
                t.join(timeout=120.0)

        assert not errors, errors[:3]
        assert len(results) == 6 * 80
        seen_versions = {version for version, _, _ in results}
        assert len(seen_versions) >= 2      # traffic actually spanned swaps
        assert any(from_cache for _, _, from_cache in results)
        for version, value, _ in results:
            assert value in computed[version], \
                (version, value, sorted(computed))
