"""Asyncio network front door for the serving stack.

Three layers, each usable on its own:

``AsyncEstimateService``
    Awaitable adapter over any serving front —
    :class:`~repro.serve.server.UAEServer`,
    :class:`~repro.serve.router.RoutedEstimateService`, or
    :class:`~repro.serve.cluster.ClusterEstimateService`, which share
    one keyword contract (README "Front contract").  ``await
    submit(query, deadline_ms=...)`` propagates the caller's budget down
    into the micro-batcher (which sheds typed: ``TimeoutError`` /
    ``LoadShedError``), and cancelling the awaitable **abandons** the
    query via ``EstimateRequest.cancel()`` — the worker drops it at
    flush time, so a dead client never occupies a batch slot or engine
    time.  ``front.submit`` runs inline on the event loop (the contract
    says it never blocks), so a cache hit or a typed shed is answered
    without a thread hand-off; only ``estimate_batch`` / ``observe`` /
    a cluster's ``metrics_snapshots`` — which compute or wait — run on
    the default executor.

``HTTPFrontDoor``
    A hand-rolled HTTP/1.1 JSON wire protocol over
    ``asyncio.start_server`` (stdlib only): ``POST /estimate``,
    ``POST /estimate_batch``, ``POST /feedback``, ``GET /status``
    (hot-swap version visibility), ``GET /healthz``.  Typed errors map
    to typed statuses via :data:`ERROR_STATUS` — LoadShedError →
    503 + Retry-After, WorkerUnavailableError → 503,
    UnknownNamespaceError → 404, AmbiguousNamespaceError /
    SQLParseError / malformed JSON → 400, oversized body → 413,
    deadline exceeded → 504 — and a client that disconnects mid-request
    cancels the in-flight awaitable (see above).  A bounded
    ``max_inflight`` admission window sheds deadlined requests
    immediately when full (503) and backpressures deadline-free ones.

``AsyncHTTPClient``
    A minimal keep-alive JSON client over ``asyncio.open_connection``
    used by the tests, the CLI smoke mode, and the open-loop load
    generator in :mod:`repro.bench.load_bench`.

Observability: the door exposes ``GET /metrics`` (Prometheus text
0.0.4; merges the front's worker snapshots when the front is a
cluster) and ``GET /debug/traces`` (JSON dump of the recent/slow trace
rings).  Every ``/estimate`` request opens a :class:`~repro.obs.Trace`
at accept time and threads it through ``submit`` so admission wait,
micro-batch queue wait, engine compute, and settle all land on one
timeline.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import numpy as np

from ..obs import MetricsRegistry, Trace, TraceRecorder
from ..workload.sqlparse import SQLParseError, parse_query
from .cluster import LoadShedError
from .feedback import checked_cardinality
from .placement import WorkerUnavailableError
from .router import AmbiguousNamespaceError, UnknownNamespaceError
from .service import RequestCancelledError

__all__ = [
    "AsyncEstimateService", "HTTPFrontDoor", "AsyncHTTPClient",
    "ERROR_STATUS", "status_for", "serve_http",
]


# ----------------------------------------------------------------------
# Typed error -> HTTP status.  Ordered: first isinstance match wins, so
# subclasses must precede their bases (SQLParseError before the
# ValueError catch-all, both Unknown/Ambiguous before any KeyError
# handling a future entry might add).
# ----------------------------------------------------------------------
ERROR_STATUS: tuple[tuple[type[BaseException], int], ...] = (
    (RequestCancelledError, 499),       # client closed request
    (LoadShedError, 503),
    (WorkerUnavailableError, 503),
    (UnknownNamespaceError, 404),
    (AmbiguousNamespaceError, 400),
    (SQLParseError, 400),
    (json.JSONDecodeError, 400),
    (ValueError, 400),
    (TypeError, 400),
    (TimeoutError, 504),
)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            499: "Client Closed Request", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


def status_for(error: BaseException) -> int:
    """HTTP status for a serving-stack exception (500 when untyped)."""
    for cls, code in ERROR_STATUS:
        if isinstance(error, cls):
            return code
    return 500


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


# ----------------------------------------------------------------------
# Awaitable adapter
# ----------------------------------------------------------------------
class AsyncEstimateService:
    """Awaitable facade over a running serving front.

    The front's own threads keep doing the batching/compute; this class
    calls the non-blocking ``front.submit`` inline, bridges the handles
    that come back unsettled onto the event loop (``add_done_callback``
    -> ``call_soon_threadsafe``) and translates asyncio cancellation
    into :meth:`EstimateRequest.cancel`.
    """

    #: grace added to a deadline before the awaitable gives up locally
    #: (mirrors the sync ``estimate()`` budget) — the service normally
    #: sheds first; this only guards against a wedged worker.
    DEADLINE_GRACE_S = 5.0

    def __init__(self, front):
        self.front = front
        self.cancelled = 0              # awaits abandoned while pending
        self._c_offloop = front.metrics.counter(
            "repro_async_offloop_submits_total",
            "Submits the front could not place without blocking and "
            "handed to one of its own threads").labels()    # export the 0

    async def submit_request(self, query, *, namespace: str | None = None,
                             deadline_ms: float | None = None,
                             trace: Trace | None = None):
        """Awaitable submit returning the **settled** request handle
        (value, version, latency all inspectable).  Raises the handle's
        typed error.  Cancelling the await abandons the query."""
        if not self.front.running:
            raise WorkerUnavailableError(
                "the serving front is not running; start() it first")
        request = self.front.submit(query, namespace=namespace,
                                    deadline_ms=deadline_ms, trace=trace)
        if request.deferred:
            self._c_offloop.inc()
        if not request.done():          # a miss: wait for the front's thread
            await self._settled(request, deadline_ms)
        error = request.exception()
        if error is not None:
            raise error
        return request

    async def _settled(self, request, deadline_ms: float | None) -> None:
        loop = asyncio.get_running_loop()
        settled: asyncio.Future = loop.create_future()

        def _wake():
            if not settled.done():
                settled.set_result(None)

        request.add_done_callback(
            lambda _req: loop.call_soon_threadsafe(_wake))
        budget = None if deadline_ms is None \
            else deadline_ms / 1e3 + self.DEADLINE_GRACE_S
        try:
            await asyncio.wait_for(settled, timeout=budget)
        except asyncio.CancelledError:
            if request.cancel():
                self.cancelled += 1
            raise
        except (asyncio.TimeoutError, TimeoutError):
            request.cancel()
            raise TimeoutError(
                f"deadline ({deadline_ms} ms) expired with the request "
                "still unsettled") from None

    # -- awaitable API -------------------------------------------------
    async def submit(self, query, *, namespace: str | None = None,
                     deadline_ms: float | None = None) -> float:
        """Awaitable single-query estimate with caller-budget deadline
        propagation down into the micro-batcher."""
        request = await self.submit_request(
            query, namespace=namespace, deadline_ms=deadline_ms)
        return float(request.result(timeout=0))

    # the natural spelling for callers that think in estimates
    estimate = submit

    async def estimate_batch(self, queries: list, *,
                             namespace: str | None = None,
                             seed: int | None = None,
                             use_cache: bool = True) -> np.ndarray:
        """Awaitable bulk path, bit-identical to the sync
        ``front.estimate_batch`` — same code runs, on the executor, so
        seeded calls keep the reproducibility contract."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.front.estimate_batch(
                list(queries), namespace=namespace, seed=seed,
                use_cache=use_cache))

    async def observe(self, query, true_cardinality: float,
                      estimate: float | None = None, *,
                      namespace: str | None = None) -> float:
        """Awaitable feedback: route an executed query's truth to the
        front's monitor; returns the serving q-error."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.front.observe(
                query, true_cardinality, estimate=estimate,
                namespace=namespace))

    def stats(self) -> dict:
        out = dict(self.front.stats())
        out["async_cancelled"] = self.cancelled
        return out


# ----------------------------------------------------------------------
# HTTP/1.1 plumbing
# ----------------------------------------------------------------------
class _Conn:
    """Buffered reads over a StreamReader with one-read lookahead.

    While a request is being served the front door keeps a read pending
    on the socket as a disconnect watch; whatever that read returns
    (pipelined bytes, or b"" on EOF) has to feed back into subsequent
    ``readline``/``readexactly`` calls — hence the explicit buffer.
    """

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self.buf = b""
        self._pending: asyncio.Task | None = None

    async def _fill(self) -> bool:
        if self._pending is not None:
            task, self._pending = self._pending, None
            chunk = await task
        else:
            chunk = await self.reader.read(65536)
        if not chunk:
            return False
        self.buf += chunk
        return True

    async def readline(self, limit: int = 65536) -> bytes:
        while b"\n" not in self.buf:
            if len(self.buf) > limit:
                raise ValueError("header line too long")
            if not await self._fill():
                line, self.buf = self.buf, b""
                return line
        i = self.buf.index(b"\n") + 1
        line, self.buf = self.buf[:i], self.buf[i:]
        return line

    async def readexactly(self, n: int) -> bytes:
        while len(self.buf) < n:
            if not await self._fill():
                raise asyncio.IncompleteReadError(self.buf, n)
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def watch_disconnect(self) -> asyncio.Task | None:
        """Start (or return the already-pending) lookahead read used as
        a disconnect watch; None when buffered bytes already satisfy the
        next request."""
        if self.buf:
            return None
        if self._pending is None:
            self._pending = asyncio.ensure_future(self.reader.read(65536))
        return self._pending

    def absorb(self, task: asyncio.Task) -> bool:
        """Fold a finished watch task back into the buffer; returns
        False when it signalled EOF (client went away)."""
        if self._pending is task:
            self._pending = None
        try:
            chunk = task.result()
        except (ConnectionError, OSError):
            return False
        if not chunk:
            return False
        self.buf += chunk
        return True


class HTTPFrontDoor:
    """JSON-over-HTTP wire protocol for an :class:`AsyncEstimateService`.

    See the module docstring for endpoints and the error table.
    ``max_inflight`` bounds concurrently admitted estimate requests:
    when the window is full, requests carrying a deadline shed
    immediately (503 + Retry-After) and deadline-free requests wait
    (pure backpressure).  ``GET /status`` and ``GET /healthz`` bypass
    admission so the door stays observable under overload.
    """

    def __init__(self, service: AsyncEstimateService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 64, max_body: int = 1 << 20,
                 default_deadline_ms: float | None = None,
                 retry_after_s: float = 0.05, parser=parse_query,
                 metrics: MetricsRegistry | None = None,
                 trace_capacity: int = 128,
                 slow_trace_threshold_s: float = 0.25):
        self.service = service
        self.host = host
        self.port = port                    # 0 -> ephemeral; set on start
        self.max_inflight = max_inflight
        self.max_body = max_body
        self.default_deadline_ms = default_deadline_ms
        self.retry_after_s = retry_after_s
        self.parser = parser
        self._server: asyncio.AbstractServer | None = None
        self._inflight = 0
        self._space = asyncio.Condition()
        # Share the serving front's registry, so a single /metrics
        # scrape covers the whole process; a cluster front additionally
        # contributes its workers' snapshots via metrics_snapshots() at
        # scrape time.
        self.metrics = metrics if metrics is not None \
            else service.front.metrics
        self.traces = TraceRecorder(
            capacity=trace_capacity,
            slow_threshold_s=slow_trace_threshold_s)
        self._c_requests = self.metrics.counter(
            "repro_http_requests_total", "HTTP requests accepted")
        self._f_responses = self.metrics.counter(
            "repro_http_responses_total", "HTTP responses by status",
            labels=("status",))
        self._c_served = self.metrics.counter(
            "repro_http_served_total", "HTTP 200 responses")
        self._c_sheds = self.metrics.counter(
            "repro_http_sheds_total", "requests shed at the admission "
            "window")
        self._c_disconnects = self.metrics.counter(
            "repro_http_disconnects_total", "clients gone mid-request")
        self._h_request = self.metrics.histogram(
            "repro_http_request_seconds", "request handling latency",
            labels=("route",))
        self.metrics.gauge(
            "repro_http_inflight", "requests inside the admission "
            "window").set_function(lambda: self._inflight)

    # -- registry-backed wire stats (kept as read-only properties so the
    # pre-obs `door.requests` / `door.status_counts` callers still work)
    @property
    def requests(self) -> int:
        return int(self._c_requests.value)

    @property
    def served(self) -> int:
        return int(self._c_served.value)

    @property
    def sheds(self) -> int:
        return int(self._c_sheds.value)

    @property
    def disconnects(self) -> int:
        return int(self._c_disconnects.value)

    @property
    def status_counts(self) -> dict[int, int]:
        return {int(labels["status"]): int(child.value)
                for labels, child in self._f_responses.series()
                if child.value}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "HTTPFrontDoor":
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- admission window ----------------------------------------------
    async def _admit(self, deadline_ms: float | None) -> None:
        async with self._space:
            if self._inflight >= self.max_inflight \
                    and deadline_ms is not None:
                self._c_sheds.inc()
                raise LoadShedError(
                    f"front door saturated ({self.max_inflight} requests "
                    "in flight) and the request carries a deadline")
            await self._space.wait_for(
                lambda: self._inflight < self.max_inflight)
            self._inflight += 1

    async def _release(self) -> None:
        async with self._space:
            self._inflight -= 1
            self._space.notify(1)

    # -- connection loop -----------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        conn = _Conn(reader)
        try:
            while True:
                request_line = await conn.readline()
                if not request_line.strip():
                    if not request_line:
                        break               # clean EOF between requests
                    continue                # stray blank line
                try:
                    method, path, keep_alive, body = \
                        await self._read_request(conn, request_line,
                                                 writer)
                except _EarlyResponse as early:
                    await self._respond(writer, early.status,
                                        early.payload, keep_alive=False)
                    break
                result = await self._serve_one(conn, method, path, body)
                if result is None:          # client disconnected
                    self._c_disconnects.inc()
                    break
                status, payload, extra = result
                await self._respond(writer, status, payload,
                                    extra_headers=extra,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ValueError):
            pass
        except asyncio.CancelledError:
            # Loop/server shutdown with the connection open: exit
            # cleanly (asyncio.streams logs handler tasks that die
            # cancelled); in-flight work was already cancelled by
            # _serve_one's cancellation path.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: the task is being torn down at loop
                # shutdown; the transport is closed either way.
                pass

    async def _read_request(self, conn: _Conn, request_line: bytes,
                            writer: asyncio.StreamWriter):
        parts = request_line.decode("latin1").split()
        if len(parts) < 2:
            raise _EarlyResponse(400, {"error": "BadRequestLine",
                                       "detail": "malformed request line"})
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await conn.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _EarlyResponse(400, {"error": "BadHeader",
                                       "detail": "bad Content-Length"})
        if length > self.max_body:
            raise _EarlyResponse(
                413, {"error": "PayloadTooLarge",
                      "detail": f"body of {length} bytes exceeds the "
                                f"{self.max_body}-byte limit"})
        body = await conn.readexactly(length) if length else b""
        keep_alive = headers.get("connection",
                                 "keep-alive").lower() != "close"
        return method, path, keep_alive, body

    async def _serve_one(self, conn: _Conn, method: str, path: str,
                         body: bytes):
        """Dispatch one request with a disconnect watch: if the client
        goes away first, the handler task is cancelled — which cancels
        the awaitable submit, which abandons the micro-batch slot."""
        work = asyncio.ensure_future(self._dispatch(method, path, body))
        watch = conn.watch_disconnect()
        try:
            if watch is None:
                return await work
            await asyncio.wait({work, watch},
                               return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            work.cancel()
            raise
        if work.done():
            return await work               # watch stays pending in conn
        if conn.absorb(watch):              # early pipelined bytes
            return await work
        work.cancel()
        try:
            await work
        except asyncio.CancelledError:
            pass
        return None

    # -- routing -------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes):
        self._c_requests.inc()
        t0 = time.perf_counter()
        path = path.split("?", 1)[0]
        routes = {"/estimate": ("POST", self._h_estimate),
                  "/estimate_batch": ("POST", self._h_estimate_batch),
                  "/feedback": ("POST", self._h_feedback),
                  "/status": ("GET", self._h_status),
                  "/healthz": ("GET", self._h_healthz),
                  "/metrics": ("GET", self._h_metrics),
                  "/debug/traces": ("GET", self._h_debug_traces)}
        route = path if path in routes else "other"
        extra: tuple = ()
        try:
            if path not in routes:
                raise _EarlyResponse(404, {"error": "NotFound",
                                           "detail": f"no route {path}"})
            want, handler = routes[path]
            if method != want:
                raise _EarlyResponse(
                    405, {"error": "MethodNotAllowed",
                          "detail": f"{path} accepts {want}"},
                    extra=(("Allow", want),))
            if want == "POST":
                payload = json.loads(body.decode("utf-8") or "null")
                if not isinstance(payload, dict):
                    raise ValueError("request body must be a JSON object")
            else:
                payload = {}
            status, out = await handler(payload)
        except _EarlyResponse as early:
            status, out, extra = early.status, early.payload, early.extra
        except Exception as exc:            # noqa: BLE001 - typed mapping
            status = status_for(exc)
            out = {"error": type(exc).__name__, "detail": str(exc)}
            if status == 503:
                extra = (("Retry-After", f"{self.retry_after_s:.3f}"),)
        finally:
            self._h_request.labels(route=route).observe(
                time.perf_counter() - t0)
        self._f_responses.labels(status=str(status)).inc()
        if status == 200:
            self._c_served.inc()
        return status, out, extra

    # -- handlers ------------------------------------------------------
    def _query_from(self, payload: dict, field: str = "sql"):
        sql = payload.get(field)
        if sql is None:
            raise ValueError(f"missing required field {field!r}")
        if not isinstance(sql, str):
            raise ValueError(f"field {field!r} must be a SQL string")
        return self.parser(sql)

    @staticmethod
    def _deadline_from(payload: dict, default: float | None):
        deadline_ms = payload.get("deadline_ms", default)
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if not (math.isfinite(deadline_ms) and deadline_ms > 0):
                raise ValueError("deadline_ms must be a finite number > 0")
        return deadline_ms

    async def _h_estimate(self, payload: dict):
        trace = Trace("http_estimate")
        try:
            query = self._query_from(payload)
            namespace = payload.get("namespace")
            deadline_ms = self._deadline_from(payload,
                                              self.default_deadline_ms)
            trace.set(namespace=namespace, deadline_ms=deadline_ms)
            with trace.span("admission"):
                await self._admit(deadline_ms)
            try:
                request = await self.service.submit_request(
                    query, namespace=namespace, deadline_ms=deadline_ms,
                    trace=trace)
            finally:
                await self._release()
        except BaseException as exc:
            self.traces.record(trace.finish(error=type(exc).__name__))
            raise
        out = {"estimate": float(request.result(timeout=0)),
               "trace_id": trace.trace_id}
        if request.version is not None:
            out["version"] = int(request.version)
        if request.from_cache:
            out["from_cache"] = True
        latency = request.latency()
        if latency is not None:
            out["service_ms"] = latency * 1e3
        self.traces.record(trace.finish(status=200))
        return 200, out

    async def _h_estimate_batch(self, payload: dict):
        sqls = payload.get("sql")
        if not isinstance(sqls, list) or not sqls:
            raise ValueError("field 'sql' must be a non-empty list of "
                             "SQL strings")
        queries = [self.parser(s) if isinstance(s, str)
                   else self._bad_item() for s in sqls]
        seed = payload.get("seed")
        if seed is not None:
            seed = int(seed)
        use_cache = bool(payload.get("use_cache", True))
        deadline_ms = self._deadline_from(payload,
                                          self.default_deadline_ms)
        await self._admit(deadline_ms)
        try:
            values = await self.service.estimate_batch(
                queries, namespace=payload.get("namespace"), seed=seed,
                use_cache=use_cache)
        finally:
            await self._release()
        return 200, {"estimates": [float(v) for v in values],
                     "count": len(values)}

    @staticmethod
    def _bad_item():
        raise ValueError("every 'sql' list item must be a SQL string")

    async def _h_feedback(self, payload: dict):
        query = self._query_from(payload)
        truth = payload.get("true_cardinality")
        if truth is None:
            raise ValueError("missing required field 'true_cardinality'")
        estimate = payload.get("estimate")
        qerror = await self.service.observe(
            query, checked_cardinality(truth, "true_cardinality"),
            estimate=None if estimate is None
            else checked_cardinality(estimate, "estimate"),
            namespace=payload.get("namespace"))
        return 200, {"ok": True, "qerror": float(qerror)}

    async def _h_status(self, payload: dict):
        return 200, {"ok": True,
                     "front_door": {
                         "inflight": self._inflight,
                         "max_inflight": self.max_inflight,
                         "requests": self.requests,
                         "served": self.served,
                         "sheds": self.sheds,
                         "disconnects": self.disconnects,
                         "status_counts": {str(k): v for k, v in
                                           sorted(self.status_counts
                                                  .items())}},
                     "service": _jsonable(self.service.stats())}

    async def _h_healthz(self, payload: dict):
        return 200, {"ok": True}

    async def _h_metrics(self, payload: dict):
        """Prometheus text exposition.  A cluster front contributes its
        workers' registry snapshots (labelled ``worker=...``); other
        fronts share one registry with the door, so a single render
        covers the whole process."""
        front = self.service.front
        own = [] if front.metrics is self.metrics \
            else [(self.metrics.snapshot(), None)]
        snaps = getattr(front, "metrics_snapshots", None)
        if snaps is not None:
            loop = asyncio.get_running_loop()
            pairs = list(await loop.run_in_executor(None, snaps)) + own
        elif own:
            pairs = own + [(front.metrics.snapshot(), None)]
        else:
            return 200, self.metrics.render()
        return 200, MetricsRegistry.merged(pairs).render()

    async def _h_debug_traces(self, payload: dict):
        return 200, self.traces.to_dict()

    # -- response ------------------------------------------------------
    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, extra_headers=(),
                       keep_alive: bool = True) -> None:
        if isinstance(payload, str):        # /metrics exposition text
            body = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(_jsonable(payload)).encode("utf-8")
            ctype = "application/json"
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                 f"Content-Type: {ctype}",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        lines += [f"{name}: {value}" for name, value in extra_headers]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin1")
                     + body)
        await writer.drain()


class _EarlyResponse(Exception):
    """Internal: short-circuit a request with a fixed status/payload."""

    def __init__(self, status: int, payload: dict, extra=()):
        super().__init__(payload.get("detail", ""))
        self.status = status
        self.payload = payload
        self.extra = tuple(extra)


# ----------------------------------------------------------------------
# Minimal keep-alive client (tests, smoke, load generator)
# ----------------------------------------------------------------------
class AsyncHTTPClient:
    """One keep-alive HTTP/1.1 connection speaking the front door's JSON
    protocol.  Not concurrency-safe across tasks — each concurrent
    client task owns its own instance (the open-loop generator does
    exactly that); a lock still serializes accidental overlap."""

    def __init__(self, host: str, port: int,
                 connect_timeout: float = 5.0):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def _ensure(self):
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.connect_timeout)
        return self._reader, self._writer

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      payload: dict | None = None,
                      headers: dict | None = None):
        """Issue one request; returns ``(status, body_dict, headers)``.
        Reconnects once if the kept-alive socket died in between."""
        async with self._lock:
            for attempt in (0, 1):
                try:
                    return await self._roundtrip(method, path, payload,
                                                 headers or {})
                except (ConnectionError, asyncio.IncompleteReadError,
                        OSError):
                    await self.close()
                    if attempt:
                        raise
        raise RuntimeError("unreachable")

    async def _roundtrip(self, method, path, payload, headers):
        reader, writer = await self._ensure()
        body = b"" if payload is None \
            else json.dumps(payload).encode("utf-8")
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body)}",
                 "Content-Type: application/json"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin1")
                     + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin1").split(None, 2)
        status = int(parts[1])
        resp_headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            resp_headers[name.strip().lower()] = value.strip()
        length = int(resp_headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        if resp_headers.get("connection", "").lower() == "close":
            await self.close()
        if not raw:
            out: dict | str = {}
        elif "json" in resp_headers.get("content-type", "json"):
            out = json.loads(raw.decode("utf-8"))
        else:                               # /metrics text exposition
            out = raw.decode("utf-8")
        return status, out, resp_headers

    async def get(self, path: str):
        return await self.request("GET", path)

    async def post(self, path: str, payload: dict):
        return await self.request("POST", path, payload)


# ----------------------------------------------------------------------
# Blocking runner (CLI)
# ----------------------------------------------------------------------
def serve_http(front, *, host: str = "127.0.0.1", port: int = 8080,
               max_inflight: int = 64,
               default_deadline_ms: float | None = None,
               ready=None, stop_event=None) -> None:
    """Run an HTTP front door over ``front`` until interrupted.

    ``ready(door)`` (optional) fires once the socket is bound — the CLI
    smoke mode and tests use it to learn the ephemeral port.
    ``stop_event`` (a ``threading.Event``) requests shutdown from
    another thread; otherwise Ctrl-C stops the loop.
    """

    async def _main():
        door = HTTPFrontDoor(
            AsyncEstimateService(front), host=host, port=port,
            max_inflight=max_inflight,
            default_deadline_ms=default_deadline_ms)
        await door.start()
        if ready is not None:
            ready(door)
        try:
            while stop_event is None or not stop_event.is_set():
                await asyncio.sleep(0.1)
        finally:
            await door.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
