"""Span recording around the calls into each layer (traced runs only).

The launcher installs wrappers at *class* level around the public
callables the benchmark attributes time to, so they survive hot-swaps
(a new snapshot builds new scheduler/engine instances of the same
classes).  A span is ``(id, name, start, end, parent, rid, n, tag)``:
``parent`` is the enclosing span on the same thread, ``rid`` the
request's ``trace_id`` (the one the door returns to the client) where a
single request is known, ``n`` the number of queries the call covered
and ``tag`` the namespace where the callee knows it.  Spans stay in
memory until ``report`` writes them out.  Cluster workers are separate
processes: recording is never switched on there, their numbers come
from the merged metrics registry.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: model column count -> namespace (the engine knows its model,
        #: not its namespace; the four models differ in column count)
        self.namespaces: dict = {}

    def name_models(self, estimators: dict) -> None:
        for name, uae in estimators.items():
            self.namespaces[len(uae.model.domain_sizes)] = name

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, fn, name, rid_of=None, n_of=None, tag_of=None):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, rid = stack[-1] if stack else (None, None)
            if rid_of is not None:
                rid = rid_of(local, args, kwargs) or rid
            sid = next(self._ids)
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((
                    sid, name, start, end, parent, rid,
                    n_of(args, kwargs) if n_of is not None else 1,
                    tag_of(args, kwargs) if tag_of is not None else None))
        return traced

    def wrap(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a class or an instance) in place."""
        setattr(owner, attr, self._wrapper(getattr(owner, attr), name,
                                           **hooks))

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        self.wrap(obj, attr, name,
                  rid_of=lambda local, a, k: getattr(local, "rid", None))

    def note_request(self, trace_id: str) -> None:
        """The door just opened a trace on this thread: calls it makes
        before its next await belong to that request."""
        self._local.rid = trace_id

    # -- reporting -----------------------------------------------------
    def report(self, path: str | None = None) -> dict:
        """Per-name aggregates (calls, queries, total and self seconds),
        the same per ``name@tag``, and optimizer steps by the ingestion
        that ran them.  Writes every span to ``path`` as JSON lines."""
        spans = list(self.spans)
        child_time: dict = {}
        names = {}
        for sid, name, start, end, parent, _rid, _n, _tag in spans:
            names[sid] = name
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) \
                    + (end - start)
        agg: dict = {}
        steps: dict = {}
        for sid, name, start, end, parent, _rid, n, tag in spans:
            duration = end - start
            own = max(0.0, duration - child_time.get(sid, 0.0))
            for key in (name,) if tag is None else (name, f"{name}@{tag}"):
                entry = agg.setdefault(key, {"calls": 0, "n": 0,
                                             "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["n"] += n
                entry["total_s"] += duration
                entry["self_s"] += own
            if name == "train.step" and parent is not None:
                steps[names[parent]] = steps.get(names[parent], 0) + 1
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                for sid, name, start, end, parent, rid, n, tag in spans:
                    fh.write(json.dumps({
                        "id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "rid": rid, "n": n,
                        "tag": tag}) + "\n")
        return {"spans": len(spans), "aggregates": agg, "steps": steps}


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer on the serving path."""
    from repro.core import UAE
    from repro.infer import BatchScheduler
    from repro.infer.engine import InferenceEngine
    from repro.nn.optim import Adam
    from repro.obs import Trace
    from repro.serve import (ClusterEstimateService, EstimateService,
                             ModelOps, ModelRegistry, ResultCache,
                             RoutedEstimateService, UAEServer)

    def rid_from_trace(_local, _args, kwargs):
        trace = kwargs.get("trace")
        return None if trace is None else trace.trace_id

    def batch_len(args, _kwargs):
        return len(args[1])                 # (self, constraint_lists, ...)

    def engine_namespace(args, _kwargs):
        return tracer.namespaces.get(len(args[0].model.domain_sizes))

    init = Trace.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if tracer.enabled:
            tracer.note_request(self.trace_id)
    Trace.__init__ = traced_init

    for front, layer in ((RoutedEstimateService, "router"),
                         (ClusterEstimateService, "cluster")):
        tracer.wrap(front, "submit", f"{layer}.submit",
                    rid_of=rid_from_trace)
        tracer.wrap(front, "resolve", f"{layer}.resolve")
        tracer.wrap(front, "estimate_batch", f"{layer}.estimate_batch",
                    n_of=batch_len)
    tracer.wrap(EstimateService, "submit", "service.submit")
    tracer.wrap(ResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put")
    tracer.wrap(BatchScheduler, "estimate_many", "scheduler.estimate_many",
                n_of=batch_len)
    tracer.wrap(InferenceEngine, "estimate_batch", "engine.estimate_batch",
                n_of=batch_len, tag_of=engine_namespace)
    tracer.wrap(UAE, "ingest_data", "train.ingest_data")
    tracer.wrap(UAE, "ingest_queries", "train.ingest_queries")
    tracer.wrap(Adam, "step", "train.step")
    tracer.wrap(UAEServer, "observe", "server.observe")
    tracer.wrap(ModelOps, "gate", "modelops.gate")
    tracer.wrap(EstimateService, "warm_cache", "modelops.warm")
    tracer.wrap(ModelRegistry, "publish", "registry.publish")
