"""The load generator: the benchmark's own HTTP/1.1 client and drivers.

Deliberately not ``repro.serve.AsyncHTTPClient`` — the instrument must
not change when the program does.  One process; the closed loop drives
all its keep-alive connections from one thread; every request's bytes
are built before timing starts, so the timed loop only sends, receives
and records.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time


class HTTPError(RuntimeError):
    pass


def frame(method: str, path: str, body: bytes = b"") -> bytes:
    """One complete HTTP/1.1 request."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin1") + body


class Connection:
    """One keep-alive connection; ``roundtrip`` sends pre-framed bytes
    and returns ``(status, body)``."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.bytes_out = 0
        self.bytes_in = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def roundtrip(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        self.bytes_out += len(request)
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(65536)
            if not chunk:
                raise HTTPError("server closed the connection")
            buf += chunk
        head = buf[:end].decode("latin1")
        status = int(head.split(" ", 2)[1])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        need = end + 4 + length
        while len(buf) < need:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise HTTPError("server closed the connection mid-body")
            buf += chunk
        self.buf = buf[need:]
        self.bytes_in += need
        return status, buf[end + 4:need]

    def get_text(self, path: str) -> str:
        status, body = self.roundtrip(frame("GET", path))
        if status != 200:
            raise HTTPError(f"GET {path} -> {status}: {body[:200]!r}")
        return body.decode("utf-8")

    def get_json(self, path: str):
        return json.loads(self.get_text(path))


class Record:
    """What one request produced.  ``start`` is when it was sent (closed
    loop) or when it was due (paced); ``sent`` is when it really left."""

    __slots__ = ("index", "start", "sent", "end", "status", "body")

    def __init__(self, index, start, sent, end, status, body):
        self.index = index
        self.start = start
        self.sent = sent
        self.end = end
        self.status = status
        self.body = body

    @property
    def latency(self) -> float:
        return self.end - self.start


class Window:
    """The result of one driven window."""

    def __init__(self, records, started, ended, cpu_s, exhausted,
                 bytes_out, bytes_in):
        self.records = records          # in completion order
        self.started = started
        self.ended = ended
        self.cpu_s = cpu_s              # generator process CPU
        self.exhausted = exhausted      # ran out of requests before time
        self.bytes_out = bytes_out
        self.bytes_in = bytes_in

    @property
    def wall(self) -> float:
        return self.ended - self.started


def _send(conn: Connection, index: int, request: bytes, start: float,
          out: list) -> Record:
    sent = time.perf_counter()
    try:
        status, body = conn.roundtrip(request)
    except (OSError, HTTPError, ValueError) as exc:
        status, body = -1, repr(exc).encode()
    record = Record(index, sent if start is None else start, sent,
                    time.perf_counter(), status, body)
    out.append(record)
    return record


def _response(buf: bytes):
    """``(status, body, bytes consumed)`` of the first complete HTTP
    response in ``buf``, or None while it is still arriving."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buf[:end].decode("latin1")
    length = 0
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    need = end + 4 + length
    if len(buf) < need:
        return None
    return int(head.split(" ", 2)[1]), buf[end + 4:need], need


class _Slot:
    """One keep-alive connection of the closed loop and the request it
    is waiting on."""

    __slots__ = ("sock", "buf", "unsent", "index", "sent")

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = self.unsent = b""
        self.index = -1
        self.sent = 0.0


def closed_loop(port: int, requests: list, *, seconds: float | None,
                connections: int, first: int = 0,
                limit: int | None = None) -> Window:
    """Each connection sends its next request only after the previous
    answer arrived (the caller is an optimizer waiting for its estimate).
    Requests are taken in order from ``requests[first:]`` across all
    connections; the window ends after ``seconds``, after ``limit``
    requests, or when the list runs out — it never wraps.

    One thread multiplexes every connection: with a thread per
    connection the generator's own threads queue for its interpreter
    lock between a response arriving and the next request leaving, and
    that wait (up to the 5 ms switch interval) lands in the measured
    latency."""
    stop_at = len(requests) if limit is None \
        else min(len(requests), first + limit)
    cursor = first
    records: list = []
    bytes_out = bytes_in = 0
    selector = selectors.DefaultSelector()
    slots = [_Slot(port) for _ in range(connections)]
    cpu0 = time.process_time()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def launch(slot: _Slot) -> bool:
        nonlocal cursor, bytes_out
        if cursor >= stop_at or (deadline is not None
                                 and time.perf_counter() >= deadline):
            return False
        slot.index, cursor = cursor, cursor + 1
        request = requests[slot.index]
        bytes_out += len(request)
        slot.sent = time.perf_counter()
        try:
            slot.unsent = request[slot.sock.send(request):]
        except OSError:
            # full buffer: the selector says when to go on; dead
            # connection: the selector reports it readable and recv fails
            slot.unsent = request
        return True

    def watch(slot: _Slot, register: bool) -> None:
        events = selectors.EVENT_READ \
            | (selectors.EVENT_WRITE if slot.unsent else 0)
        (selector.register if register else selector.modify)(
            slot.sock, events, slot)

    def drop(slot: _Slot, why: str) -> None:
        """The connection is gone (or silent): its request failed."""
        records.append(Record(slot.index, slot.sent, slot.sent,
                              time.perf_counter(), -1, why.encode()))
        selector.unregister(slot.sock)
        waiting.discard(slot)

    waiting: set = set()
    try:
        for slot in slots:
            if launch(slot):
                watch(slot, register=True)
                waiting.add(slot)
        while waiting:
            ready = selector.select(timeout=60.0)
            if not ready:
                for slot in list(waiting):
                    drop(slot, "no answer in 60 s")
            for key, events in ready:
                slot = key.data
                try:
                    if events & selectors.EVENT_WRITE and slot.unsent:
                        slot.unsent = slot.unsent[
                            slot.sock.send(slot.unsent):]
                        if not slot.unsent:
                            watch(slot, register=False)
                    if not events & selectors.EVENT_READ:
                        continue
                    chunk = slot.sock.recv(65536)
                    if not chunk:
                        raise HTTPError("server closed the connection")
                    slot.buf += chunk
                    done = _response(slot.buf)
                except BlockingIOError:
                    continue
                except (OSError, HTTPError, ValueError) as exc:
                    drop(slot, repr(exc))
                    continue
                if done is None:
                    continue
                status, body, used = done
                bytes_in += used
                slot.buf = slot.buf[used:]
                records.append(Record(slot.index, slot.sent, slot.sent,
                                      time.perf_counter(), status, body))
                if not launch(slot):
                    selector.unregister(slot.sock)
                    waiting.discard(slot)
                elif slot.unsent:
                    watch(slot, register=False)
        ended = time.perf_counter()
        cpu = time.process_time() - cpu0
    finally:
        selector.close()
        for slot in slots:
            slot.sock.close()
    exhausted = deadline is not None and cursor >= stop_at \
        and ended < deadline
    return Window(records, started, ended, cpu, exhausted, bytes_out,
                  bytes_in)


class PacedReader:
    """One connection sending at a fixed rate regardless of how fast
    answers come back; latency counts from when each request was *due*,
    so a stall is charged to every request it delays."""

    def __init__(self, port: int, requests: list, order: list,
                 rate: float):
        self.port = port
        self.requests = requests
        self.order = order
        self.rate = float(rate)
        self.records: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.started = self.ended = 0.0
        self.bytes_out = self.bytes_in = 0
        self.exhausted = False

    def _run(self) -> None:
        with Connection(self.port) as conn:
            self.started = time.perf_counter()
            for i, index in enumerate(self.order):
                due = self.started + i / self.rate
                delay = due - time.perf_counter()
                if delay > 0 and self._stop.wait(delay):
                    break
                if self._stop.is_set():
                    break
                if _send(conn, index, self.requests[index], due,
                         self.records).status == -1:
                    break
            else:
                self.exhausted = True
            self.ended = time.perf_counter()
            self.bytes_out, self.bytes_in = conn.bytes_out, conn.bytes_in

    def start(self) -> "PacedReader":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=120.0)
        if self._thread.is_alive():
            raise HTTPError("paced reader did not stop")
