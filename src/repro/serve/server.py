"""A hand-rolled HTTP/1.1 front end over the request broker.

No frameworks, no new dependencies, one thread per connection: the
thread reads each request off a blocking ``TCP_NODELAY`` socket, calls
the broker on that same thread (a cold job runs right there), and writes
the response with one ``sendall``.  Responses are JSON with
``Content-Length`` (or chunked JSONL for event streams), and keep-alive
is honoured until the server starts draining.  The server idles most of
the time, so a request that hands off to no other thread is answered
soonest.

Endpoints
---------

===========================  ========================================================
``GET  /health``             liveness + draining flag
``GET  /jobs``               the job registry (names, params, descriptions)
``POST /run``                ``{"job": name, "params": {...}}`` → result envelope
``GET  /stats``              broker / hot-cache / limiter / server counters
``GET  /runs/<id>/events``   chunked JSONL replay + live stream of run records
``POST /shutdown``           begin graceful shutdown (drain, then exit)
===========================  ========================================================

A connection must deliver each whole request within ``keepalive_idle_s``
of the server starting to wait for it, or it is closed.  At most
:data:`MAX_CONNECTIONS` connections are open at once.  When one more
arrives, the connection that has waited longest for its next request is
closed to make room; when every one is inside a request, the newcomer
is answered ``503`` with ``Retry-After`` and closed, and no thread
starts for it.

Graceful shutdown: stop accepting, wake idle keep-alive readers, and let
busy connections finish their in-flight responses, bounded by
``drain_grace_s``.  ``SIGTERM``/``SIGINT`` trigger the same path when the
server runs on the main thread (the CLI case).
"""

from __future__ import annotations

import errno
import json
import os
import queue
import selectors
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.engine import JobRegistry
from repro.serve.broker import Broker, ServeHTTPError
from repro.serve.config import ServeConfig
from repro.serve.events import EventLog

__all__ = ["ReproServer", "HttpRequest", "MAX_CONNECTIONS"]

_MAX_HEADER_BYTES = 32768
_RECV_BYTES = 65536

#: Open connections at most, one thread each (about 24 KB of memory apiece).
#: At the cap an idle one is closed for a newcomer; with none idle, the
#: newcomer is answered ``503``.  1024 is the usual soft limit on open
#: files, so on such a system the descriptors run out no later than this.
MAX_CONNECTIONS = 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(slots=True)
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(400, f"invalid JSON body: {exc}") from exc

    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    def query_float(self, name: str, default: float) -> float:
        values = self.query.get(name)
        if not values:
            return default
        try:
            return float(values[-1])
        except ValueError as exc:
            raise _BadRequest(400, f"query parameter {name!r} must be a number") from exc


class _Reader:
    """Buffered reads off one connection's socket, each bounded by a deadline."""

    __slots__ = ("_sock", "_buf")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()

    @property
    def buffered(self) -> bool:
        return bool(self._buf)

    def fill(self, deadline: float) -> bool:
        """Receive more bytes; False at EOF, TimeoutError past ``deadline``."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request not received in time")
        self._sock.settimeout(remaining)
        chunk = self._sock.recv(_RECV_BYTES)
        self._buf += chunk
        return bool(chunk)

    def _take(self, size: int) -> bytes:
        data = bytes(self._buf[:size])
        del self._buf[:size]
        return data

    def readline(self, deadline: float, limit: int) -> bytes:
        """The next line with its newline; ``b""`` at EOF between lines.

        A line longer than ``limit`` comes back as its first ``limit``
        bytes, which the caller's size check refuses.  EOF inside a line
        raises ``ConnectionError``: the request was cut off.
        """
        scanned = 0
        while True:
            end = self._buf.find(b"\n", scanned, limit)
            if end >= 0:
                return self._take(end + 1)
            if len(self._buf) >= limit:
                return self._take(limit)
            scanned = len(self._buf)
            if not self.fill(deadline):
                if self._buf:
                    raise ConnectionError("connection closed in the middle of a line")
                return b""

    def read(self, size: int, deadline: float) -> bytes:
        while len(self._buf) < size:
            if not self.fill(deadline):
                raise ConnectionError("connection closed inside a request body")
        return self._take(size)


def _read_request(reader: _Reader, max_body: int, deadline: float) -> HttpRequest | None:
    """Parse one request off the wire by ``deadline``; ``None`` on a clean EOF."""
    line = reader.readline(deadline, _MAX_HEADER_BYTES + 1)
    if not line:
        return None
    if len(line) > _MAX_HEADER_BYTES:
        raise _BadRequest(431, "request headers too large")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        header = reader.readline(deadline, _MAX_HEADER_BYTES + 1 - total)
        total += len(header)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest(431, "request headers too large")
        if header in (b"\r\n", b"\n"):
            break
        if not header:
            raise ConnectionError("connection closed before the end of the headers")
        name, sep, value = header.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header line: {header!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise _BadRequest(400, f"invalid Content-Length: {raw_length!r}") from None
    if length < 0 or length > max_body:
        raise _BadRequest(413, f"request body of {length} bytes exceeds {max_body}")
    body = reader.read(length, deadline) if length else b""
    split = urlsplit(target)
    return HttpRequest(
        method=method,
        path=split.path,
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def _listen(host: str, port: int) -> list[socket.socket]:
    """Non-blocking listeners on every address ``host`` resolves to, one port.

    ``""`` means every interface; an IPv6 socket is v6-only, so an IPv4
    one can share its port; an address whose family this machine lacks
    is skipped.  With port 0 the first socket picks the port and the
    rest take it too.
    """
    infos = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )
    listeners: list[socket.socket] = []
    try:
        for family, kind, proto, _, address in dict.fromkeys(infos):
            if listeners:
                address = (address[0], listeners[0].getsockname()[1], *address[2:])
            try:
                sock = socket.socket(family, kind, proto)
            except OSError:
                continue  # no such family here
            listeners.append(sock)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:
                sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            try:
                sock.bind(address)
            except OSError as exc:
                if exc.errno != errno.EADDRNOTAVAIL:
                    raise
                listeners.pop().close()  # the family is not enabled
                continue
            sock.listen()
            sock.setblocking(False)
    except BaseException:
        for sock in listeners:
            sock.close()
        raise
    if not listeners:
        raise OSError(f"no address to listen on for host {host!r}")
    return listeners


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _response_head(
    status: int, content_length: int | None, extra: dict[str, str] | None = None
) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
    if content_length is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {content_length}")
    else:
        lines.append("Content-Type: application/x-ndjson")
        lines.append("Transfer-Encoding: chunked")
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _json_response(
    status: int, payload: Any, extra: dict[str, str] | None = None
) -> bytes:
    body = _json_bytes(payload) + b"\n"
    return _response_head(status, len(body), extra) + body


def _chunk(payload: dict[str, Any]) -> bytes:
    line = _json_bytes(payload) + b"\n"
    return f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"


@dataclass(slots=True, eq=False)
class _Conn:
    """One open connection and the thread serving it."""

    sock: socket.socket
    peer_host: str
    thread: threading.Thread | None = None


class ReproServer:
    """The long-running job service: listeners plus one thread per connection.

    Two ways to run it:

    * ``run_blocking()`` — the CLI path: accepts on the calling (usually
      main) thread, installs signal handlers, serves until a signal or
      ``POST /shutdown``.
    * ``start()`` / ``stop()`` — the embedded path used by tests and
      the storm generator: the server runs in a daemon thread; ``start()``
      returns once the port is bound.
    """

    def __init__(self, config: ServeConfig, registry: JobRegistry | None = None):
        self.config = config
        self._registry = registry
        self.broker: Broker | None = None
        self.port: int | None = None
        self.draining = False
        self.clean_drain: bool | None = None
        self._listeners: list[socket.socket] = []
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._shutdown = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()  #: guards the three below
        #: Open connections that count toward :data:`MAX_CONNECTIONS`.
        self._conns: set[_Conn] = set()
        #: Of those, the ones waiting for a request's first byte, longest first.
        self._idle: dict[_Conn, None] = {}
        #: Connections closed to make room, until their threads end.
        self._closing: set[_Conn] = set()
        self._startup_error: BaseException | None = None
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _serve(self) -> None:
        """Bind, accept until shutdown, then drain (the serving thread's body)."""
        try:
            self.broker = Broker(self.config, registry=self._registry)
            listeners = _listen(self.config.host, self.config.port)
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._listeners = listeners
        self.port = listeners[0].getsockname()[1]
        self._ready.set()
        try:
            self._accept(listeners)
        finally:
            self.request_shutdown()  # already requested, unless accepting failed
            for listener in listeners:
                listener.close()
            self._drain()

    def _accept(self, listeners: list[socket.socket]) -> None:
        """Start a thread per accepted connection until shutdown is requested."""
        with selectors.DefaultSelector() as selector:
            for listener in listeners:
                selector.register(listener, selectors.EVENT_READ)
            while not self._shutdown.is_set():
                for key, _ in selector.select():
                    if self._shutdown.is_set():
                        return
                    try:
                        sock, peer = key.fileobj.accept()
                    except BlockingIOError:
                        continue  # the peer gave up before we got to it
                    except OSError:
                        time.sleep(0.01)  # e.g. out of file descriptors: retry, without spinning
                        continue
                    self._start_connection(sock, peer)

    def _start_connection(self, sock: socket.socket, peer: tuple) -> None:
        """Admit ``sock`` and start its thread, or answer it ``503``."""
        conn = _Conn(sock, peer[0])
        with self._lock:
            admitted = self._admit(conn)
        if not admitted:
            self._refuse(
                sock, f"server busy: {MAX_CONNECTIONS} connections open, none idle"
            )
            return
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"repro-conn-{peer[0]}:{peer[1]}",
                daemon=True,
            )
            conn.thread.start()
        except (OSError, RuntimeError) as exc:  # e.g. "can't start new thread"
            self._forget(conn)
            self._refuse(sock, f"server busy: {exc}")

    def _admit(self, conn: _Conn) -> bool:
        """Count ``conn`` in if there is room; call under ``_lock``.

        At the cap, the connection that has waited longest for its next
        request is shut for reading, as at drain: its thread sees EOF
        and ends, and it stops counting.  Only connections inside a
        request hold their place.
        """
        if len(self._conns) >= MAX_CONNECTIONS:
            if not self._idle:
                return False
            victim = next(iter(self._idle))
            del self._idle[victim]
            self._conns.discard(victim)
            self._closing.add(victim)
            try:
                victim.sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        self._conns.add(conn)
        self._idle[conn] = None  # until its first request arrives
        return True

    def _forget(self, conn: _Conn) -> None:
        with self._lock:
            self._conns.discard(conn)
            self._idle.pop(conn, None)
            self._closing.discard(conn)

    def _refuse(self, sock: socket.socket, message: str) -> None:
        """Answer a connection that gets no thread with ``503`` and close it."""
        try:
            sock.settimeout(1.0)
            sock.sendall(
                _json_response(
                    503, {"error": message, "status": 503}, {"Retry-After": "1"}
                )
            )
        except OSError:
            pass
        finally:
            sock.close()

    def _drain(self) -> None:
        """Wake idle keep-alive readers; wait ``drain_grace_s`` for busy connections."""
        deadline = time.monotonic() + self.config.drain_grace_s
        with self._lock:
            conns = [*self._conns, *self._closing]
            for conn in conns:
                try:
                    conn.sock.shutdown(socket.SHUT_RD)  # a blocked recv() sees EOF
                except OSError:
                    pass
        for conn in conns:
            conn.thread.join(max(0.0, deadline - time.monotonic()))
        self.clean_drain = not any(conn.thread.is_alive() for conn in conns)

    def request_shutdown(self) -> None:
        """Begin graceful shutdown; safe from any thread and from a signal handler."""
        if self._shutdown.is_set():
            return
        self.draining = True
        self._shutdown.set()
        for listener in self._listeners:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes the accept loop on Linux
            except OSError:
                pass

    def _on_signal(self, signum: int, frame: Any) -> None:
        if os.getpid() != self._pid:
            # A forked engine worker that has not reset its handlers yet:
            # die as the signal asks, and never touch the shared listeners.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.request_shutdown()

    def run_blocking(self) -> None:
        """Serve on the current thread until shutdown (the CLI entry).

        On the main thread, ``SIGTERM`` and ``SIGINT`` begin the graceful
        shutdown; the previous handlers are restored on return.
        """
        previous = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum, self._on_signal)
        try:
            self._serve()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._finished.set()

    def start(self, timeout: float = 10.0) -> "ReproServer":
        """Boot in a daemon thread; returns once the port is bound."""

        def runner() -> None:
            try:
                self._serve()
            except BaseException as exc:  # surface boot failures to start()
                if self._startup_error is None:
                    self._startup_error = exc
                self._ready.set()
            finally:
                self._finished.set()

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not come up within the startup timeout")
        if self._startup_error is not None:
            raise RuntimeError(f"server failed to start: {self._startup_error}")
        return self

    def stop(self, grace: float = 15.0) -> bool:
        """Request shutdown and join the server thread; True on clean drain."""
        self.request_shutdown()
        self._finished.wait(grace)
        if self._thread is not None:
            self._thread.join(grace)
        return bool(self.clean_drain)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _serve_connection(self, conn: _Conn) -> None:
        """The connection thread: read a request, answer it, repeat."""
        sock = conn.sock
        reader = _Reader(sock)
        try:
            while not self.draining:
                deadline = time.monotonic() + self.config.keepalive_idle_s
                if not self._await_request(conn, reader, deadline):
                    break
                try:
                    request = _read_request(reader, self.config.max_body_bytes, deadline)
                except _BadRequest as exc:
                    self._send_json(
                        sock, exc.status, {"error": exc.message, "status": exc.status}
                    )
                    break
                if request is None:
                    break
                keep_open = self._dispatch(request, sock, conn.peer_host)
                if not keep_open or request.wants_close() or self.draining:
                    break
        except OSError:  # idle timeout, reset, or a peer gone mid-request
            pass
        finally:
            self._forget(conn)
            sock.close()

    def _await_request(self, conn: _Conn, reader: _Reader, deadline: float) -> bool:
        """Wait for the next request's first byte; False at EOF.

        Meanwhile the connection is idle: the accept loop may close it to
        make room for a newcomer.
        """
        if reader.buffered:
            return True
        with self._lock:
            if conn in self._conns:
                self._idle[conn] = None
        try:
            return reader.fill(deadline)
        finally:
            with self._lock:
                self._idle.pop(conn, None)

    def _send(self, sock: socket.socket, data: bytes) -> None:
        sock.settimeout(self.config.keepalive_idle_s)
        sock.sendall(data)

    def _send_json(
        self,
        sock: socket.socket,
        status: int,
        payload: Any,
        extra: dict[str, str] | None = None,
    ) -> None:
        self._send(sock, _json_response(status, payload, extra))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _dispatch(self, request: HttpRequest, sock: socket.socket, peer_host: str) -> bool:
        """Handle one request; returns False when the connection must close."""
        assert self.broker is not None
        path, method = request.path, request.method
        try:
            if path == "/health" and method == "GET":
                self._send_json(sock, 200, {"status": "ok", "draining": self.draining})
            elif path == "/jobs" and method == "GET":
                self._send_json(sock, 200, self._jobs_payload())
            elif path == "/stats" and method == "GET":
                self._send_json(sock, 200, self._stats_payload())
            elif path == "/run" and method == "POST":
                self._handle_run(request, sock, peer_host)
            elif path.startswith("/runs/") and path.endswith("/events") and method == "GET":
                run_id = path[len("/runs/") : -len("/events")]
                return self._handle_events(request, sock, run_id)
            elif path == "/shutdown" and method == "POST":
                self._send_json(sock, 202, {"status": "draining"})
                self.request_shutdown()
                return False
            elif path in ("/health", "/jobs", "/stats", "/run", "/shutdown"):
                self._send_json(
                    sock, 405, {"error": f"{method} not allowed on {path}", "status": 405}
                )
            else:
                self._send_json(
                    sock, 404, {"error": f"no such endpoint: {path}", "status": 404}
                )
        except _BadRequest as exc:
            self._send_json(sock, exc.status, {"error": exc.message, "status": exc.status})
        except ServeHTTPError as exc:
            extra = None
            if exc.retry_after is not None:
                extra = {
                    "Retry-After": self.broker.limiter.retry_after_header(
                        exc.retry_after
                    )
                }
            self._send_json(
                sock, exc.status, {"error": exc.message, "status": exc.status}, extra
            )
        except (ConnectionError, TimeoutError):
            raise
        except Exception as exc:  # a handler bug must not kill the connection
            self._send_json(sock, 500, {"error": f"internal error: {exc}", "status": 500})
        return True

    def _jobs_payload(self) -> dict[str, Any]:
        assert self.broker is not None
        registry = self.broker.registry
        return {
            "jobs": [
                {
                    "name": name,
                    "params": list(registry.get(name).param_names),
                    "description": registry.get(name).description,
                }
                for name in registry.names()
            ]
        }

    def _stats_payload(self) -> dict[str, Any]:
        assert self.broker is not None
        stats = self.broker.stats()
        stats["server"] = {
            "draining": self.draining,
            "connections": len(self._conns),
            "port": self.port,
        }
        return stats

    def _handle_run(self, request: HttpRequest, sock: socket.socket, peer_host: str) -> None:
        assert self.broker is not None
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("job"), str):
            raise _BadRequest(400, 'body must be {"job": <name>, "params": {...}}')
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise _BadRequest(400, '"params" must be a JSON object')
        client_id = request.headers.get("x-client-id", peer_host)
        self._send_json(sock, 200, self.broker.submit(body["job"], params, client_id))

    def _handle_events(self, request: HttpRequest, sock: socket.socket, run_id: str) -> bool:
        """Stream a run's records as chunked JSONL: replay, then live tail.

        The stream ends at the run's terminal event (``run_summary`` or
        ``run_error``), at ``stream_timeout_s``, or when the server
        drains.  Returns False: a chunked response ends its connection.
        """
        assert self.broker is not None
        log = self.broker.get_run(run_id)
        if log is None:
            raise _BadRequest(404, f"unknown run id: {run_id}")
        timeout = min(
            request.query_float("timeout", self.config.stream_timeout_s),
            self.config.stream_timeout_s,
        )
        snapshot, events = log.subscribe()
        try:
            terminal = any(EventLog.is_terminal(payload) for payload in snapshot)
            self._send(
                sock, _response_head(200, None) + b"".join(map(_chunk, snapshot))
            )
            deadline = time.monotonic() + timeout
            while events is not None and not terminal and not self.draining:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    payload = events.get(timeout=min(remaining, 1.0))
                except queue.Empty:
                    continue  # poll the draining flag, keep waiting
                self._send(sock, _chunk(payload))
                terminal = EventLog.is_terminal(payload)
            self._send(sock, b"0\r\n\r\n")
        finally:
            if events is not None:
                log.unsubscribe(events)
        return False
