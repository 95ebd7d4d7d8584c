"""A hand-rolled asyncio HTTP/1.1 front end over the request broker.

No frameworks, no new dependencies: requests are parsed straight off the
stream reader, responses are JSON with ``Content-Length`` (or chunked
JSONL for event streams), and keep-alive is honoured until the server
starts draining.

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

Graceful shutdown: stop accepting, close idle keep-alive connections,
let busy handlers finish their in-flight responses, then drain the
broker (bounded by ``drain_grace_s``).  ``SIGTERM``/``SIGINT`` trigger
the same path when the loop runs in the main thread (the CLI case).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.engine import JobRegistry
from repro.serve.broker import Broker, ServeHTTPError
from repro.serve.config import ServeConfig
from repro.serve.events import EventLog

__all__ = ["ReproServer", "HttpRequest"]

_MAX_HEADER_BYTES = 32768

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


@dataclass(slots=True)
class _Conn:
    writer: asyncio.StreamWriter
    busy: bool = False
    opened: float = field(default_factory=time.monotonic)


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> HttpRequest | None:
    """Parse one request off the wire; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        header = await reader.readline()
        total += len(header)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest(431, "request headers too large")
        if header in (b"\r\n", b"\n", b""):
            break
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
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    return HttpRequest(
        method=method,
        path=split.path,
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


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


class ReproServer:
    """The long-running job service: asyncio core + optional thread wrapper.

    Two ways to run it:

    * ``run_blocking()`` — the CLI path: owns the loop in the calling
      (usually main) thread, installs signal handlers, serves until a
      signal or ``POST /shutdown``.
    * ``start()`` / ``stop()`` — the embedded path used by tests and
      the storm generator: the loop runs in a daemon thread; ``start()``
      returns once the port is bound.
    """

    def __init__(self, config: ServeConfig, registry: JobRegistry | None = None):
        self.config = config
        self._registry = registry
        self.broker: Broker | None = None
        self.port: int | None = None
        self.draining = False
        self.clean_drain: bool | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._shutdown_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._conns: dict[asyncio.Task, _Conn] = {}
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self.broker = Broker(self.config, self._loop, registry=self._registry)
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                break  # not the main thread (embedded mode): no signals
        self._ready.set()
        try:
            await self._shutdown_event.wait()
            # Drain: stop accepting, kick idle connections, let busy
            # handlers finish, then drain broker executions.
            self.draining = True
            server.close()
            await server.wait_closed()
            for conn in list(self._conns.values()):
                if not conn.busy:
                    conn.writer.close()
            handler_tasks = [t for t in self._conns if not t.done()]
            if handler_tasks:
                await asyncio.wait(handler_tasks, timeout=self.config.drain_grace_s)
            self.clean_drain = await self.broker.drain(self.config.drain_grace_s)
        finally:
            server.close()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown; safe to call from any thread via the loop."""
        if self._shutdown_event is not None and not self._shutdown_event.is_set():
            self._shutdown_event.set()

    def run_blocking(self) -> None:
        """Serve on the current thread until shutdown (the CLI entry)."""
        try:
            asyncio.run(self._main())
        finally:
            self._finished.set()

    def start(self, timeout: float = 10.0) -> "ReproServer":
        """Boot in a daemon thread; returns once the port is bound."""

        def runner() -> None:
            try:
                asyncio.run(self._main())
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
        if self._loop is not None and not self._finished.is_set():
            try:
                self._loop.call_soon_threadsafe(self.request_shutdown)
            except RuntimeError:
                pass  # loop already gone
        self._finished.wait(grace)
        if self._thread is not None:
            self._thread.join(grace)
        return bool(self.clean_drain)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        conn = _Conn(writer=writer)
        assert task is not None
        self._conns[task] = conn
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "local"
        try:
            while not self.draining:
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader, self.config.max_body_bytes),
                        timeout=self.config.keepalive_idle_s,
                    )
                except asyncio.TimeoutError:
                    break
                except _BadRequest as exc:
                    await self._send_json(
                        writer, exc.status, {"error": exc.message, "status": exc.status}
                    )
                    break
                if request is None:
                    break
                conn.busy = True
                try:
                    keep_open = await self._dispatch(request, writer, peer_host)
                finally:
                    conn.busy = False
                if not keep_open or request.wants_close() or self.draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            self._conns.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra: dict[str, str] | None = None,
    ) -> None:
        body = _json_bytes(payload) + b"\n"
        writer.write(_response_head(status, len(body), extra) + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter, peer_host: str
    ) -> bool:
        """Handle one request; returns False when the connection must close."""
        assert self.broker is not None
        path, method = request.path, request.method
        try:
            if path == "/health" and method == "GET":
                await self._send_json(
                    writer, 200, {"status": "ok", "draining": self.draining}
                )
            elif path == "/jobs" and method == "GET":
                await self._send_json(writer, 200, self._jobs_payload())
            elif path == "/stats" and method == "GET":
                await self._send_json(writer, 200, self._stats_payload())
            elif path == "/run" and method == "POST":
                await self._handle_run(request, writer, peer_host)
            elif path.startswith("/runs/") and path.endswith("/events") and method == "GET":
                run_id = path[len("/runs/") : -len("/events")]
                return await self._handle_events(request, writer, run_id)
            elif path == "/shutdown" and method == "POST":
                await self._send_json(writer, 202, {"status": "draining"})
                self.request_shutdown()
                return False
            elif path in ("/health", "/jobs", "/stats", "/run", "/shutdown"):
                await self._send_json(
                    writer, 405, {"error": f"{method} not allowed on {path}", "status": 405}
                )
            else:
                await self._send_json(
                    writer, 404, {"error": f"no such endpoint: {path}", "status": 404}
                )
        except _BadRequest as exc:
            await self._send_json(
                writer, exc.status, {"error": exc.message, "status": exc.status}
            )
        except ServeHTTPError as exc:
            extra = None
            if exc.retry_after is not None:
                extra = {
                    "Retry-After": self.broker.limiter.retry_after_header(
                        exc.retry_after
                    )
                }
            await self._send_json(
                writer, exc.status, {"error": exc.message, "status": exc.status}, extra
            )
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # a handler bug must not kill the server
            await self._send_json(
                writer, 500, {"error": f"internal error: {exc}", "status": 500}
            )
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

    async def _handle_run(
        self, request: HttpRequest, writer: asyncio.StreamWriter, peer_host: str
    ) -> None:
        assert self.broker is not None
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("job"), str):
            raise _BadRequest(400, 'body must be {"job": <name>, "params": {...}}')
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise _BadRequest(400, '"params" must be a JSON object')
        client_id = request.headers.get("x-client-id", peer_host)
        payload = await self.broker.submit(body["job"], params, client_id)
        await self._send_json(writer, 200, payload)

    async def _handle_events(
        self, request: HttpRequest, writer: asyncio.StreamWriter, run_id: str
    ) -> bool:
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
        snapshot, queue = log.subscribe()
        writer.write(_response_head(200, None))
        try:
            terminal = False
            for payload in snapshot:
                self._write_chunk(writer, payload)
                terminal = terminal or EventLog.is_terminal(payload)
            await writer.drain()
            deadline = time.monotonic() + timeout
            while queue is not None and not terminal and not self.draining:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    payload = await asyncio.wait_for(
                        queue.get(), timeout=min(remaining, 1.0)
                    )
                except asyncio.TimeoutError:
                    continue  # poll the draining flag, keep waiting
                self._write_chunk(writer, payload)
                await writer.drain()
                terminal = EventLog.is_terminal(payload)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            if queue is not None:
                log.unsubscribe(queue)
        return False

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        line = _json_bytes(payload) + b"\n"
        writer.write(f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n")
