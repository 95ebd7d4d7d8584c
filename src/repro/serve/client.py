"""Clients for the job service: a sync one for tools/tests, an async one
for load generation.

Both speak plain HTTP/1.1 with stdlib machinery only.
:class:`ServeClient` opens one :mod:`http.client` connection per call
(simple, thread-safe by construction); :class:`AsyncServeClient` holds a
keep-alive connection per instance, which is what gives the storm
harness realistic per-connection pipelines.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass
from typing import Any

__all__ = ["ServeClient", "ServeResult", "AsyncServeClient"]


@dataclass(slots=True)
class ServeResult:
    """One HTTP exchange: status code, parsed JSON body, client-side latency."""

    status: int
    data: Any
    latency_s: float
    headers: dict[str, str]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServeClient:
    """A blocking client: one connection per request, JSON in/out."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Any = None
    ) -> ServeResult:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {"Connection": "close"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            latency = time.perf_counter() - started
            data = json.loads(raw) if raw.strip() else None
            return ServeResult(
                status=response.status,
                data=data,
                latency_s=latency,
                headers={k.lower(): v for k, v in response.getheaders()},
            )
        finally:
            conn.close()

    def health(self) -> ServeResult:
        return self._request("GET", "/health")

    def jobs(self) -> ServeResult:
        return self._request("GET", "/jobs")

    def stats(self) -> ServeResult:
        return self._request("GET", "/stats")

    def run(self, job: str, params: dict[str, Any] | None = None) -> ServeResult:
        return self._request("POST", "/run", {"job": job, "params": params or {}})

    def shutdown(self) -> ServeResult:
        return self._request("POST", "/shutdown")

    def events(self, run_id: str, timeout: float | None = None) -> list[dict[str, Any]]:
        """Collect a run's event stream (dechunked by http.client) to its end."""
        path = f"/runs/{run_id}/events"
        if timeout is not None:
            path += f"?timeout={timeout}"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                data = json.loads(raw) if raw.strip() else {}
                raise RuntimeError(
                    f"events stream failed: {response.status} {data.get('error')}"
                )
            events = []
            for line in response:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
            return events
        finally:
            conn.close()


class AsyncServeClient:
    """A keep-alive asyncio client for one connection's worth of traffic."""

    def __init__(
        self, host: str, port: int, client_id: str | None = None, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_connected(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, body: Any = None) -> ServeResult:
        """One exchange on the persistent connection (reconnects once)."""
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if self.client_id is not None:
            head.append(f"X-Client-Id: {self.client_id}")
        if payload:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(payload)}")
        raw = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        started = time.perf_counter()
        for attempt in (1, 2):
            await self._ensure_connected()
            assert self._reader is not None and self._writer is not None
            try:
                self._writer.write(raw)
                await self._writer.drain()
                result = await asyncio.wait_for(
                    self._read_response(started), timeout=self.timeout
                )
                return result
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    async def _read_response(self, started: float) -> ServeResult:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = await self._read_chunked()
            data: Any = [
                json.loads(line) for line in body.splitlines() if line.strip()
            ]
        else:
            length = int(headers.get("content-length", "0") or "0")
            body = await self._reader.readexactly(length) if length else b""
            data = json.loads(body) if body.strip() else None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return ServeResult(
            status=status,
            data=data,
            latency_s=time.perf_counter() - started,
            headers=headers,
        )

    async def _read_chunked(self) -> bytes:
        assert self._reader is not None
        parts = []
        while True:
            size_line = await self._reader.readline()
            size = int(size_line.strip() or b"0", 16)
            if size == 0:
                await self._reader.readline()  # trailing CRLF
                return b"".join(parts)
            parts.append(await self._reader.readexactly(size))
            await self._reader.readexactly(2)  # chunk CRLF

    async def run(self, job: str, params: dict[str, Any] | None = None) -> ServeResult:
        return await self.request("POST", "/run", {"job": job, "params": params or {}})

    async def stats(self) -> ServeResult:
        return await self.request("GET", "/stats")

    async def health(self) -> ServeResult:
        return await self.request("GET", "/health")

    async def shutdown(self) -> ServeResult:
        return await self.request("POST", "/shutdown")
