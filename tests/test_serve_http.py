"""The job service's thread-per-connection front end, over raw sockets.

Covers the HTTP edges a client can reach (a malformed request line,
an oversized body or header block, a client that stalls half-way through
a request, the connection cap, a thread that cannot start, a host that
resolves to several addresses) and what the threaded front end promises:
a cold request runs on the thread that read it, ``exec_workers`` bounds
the executions running at once while hot reads carry on, ``stop()``
wakes idle keep-alive connections at once, and concurrent runs share one
``--run-log`` file line by line.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import socket
import sys
import threading
import time

import pytest

import repro.serve.server as server_module
from repro.engine import JobRegistry
from repro.serve import ReproServer, ServeClient, ServeConfig


def _boot(registry: JobRegistry | None = None, **overrides) -> ReproServer:
    config = ServeConfig(**{"no_cache": True, "drain_grace_s": 10.0, **overrides})
    return ReproServer(config, registry=registry).start(timeout=10)


@pytest.fixture()
def server():
    server = _boot(max_body_bytes=1024, keepalive_idle_s=0.6)
    yield server
    server.stop()


def _connect(server: ReproServer) -> socket.socket:
    return socket.create_connection((server.config.host, server.port), timeout=10)


def _read_response(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    """One Content-Length response off ``sock``: status, headers, body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed before a response: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    while len(body) < int(headers["content-length"]):
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a response body"
        body += chunk
    return int(status_line.split()[1]), headers, body


def _exchange(server: ReproServer, raw: bytes) -> tuple[int, dict[str, str], dict]:
    with _connect(server) as sock:
        sock.sendall(raw)
        status, headers, body = _read_response(sock)
    return status, headers, json.loads(body)


def _conn_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-conn-")]


_HEALTH = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def _ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


class TestHttpEdges:
    def test_malformed_request_line_is_400(self, server):
        status, _, data = _exchange(server, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert "malformed request line" in data["error"]

    def test_body_over_max_body_bytes_is_413(self, server):
        raw = (
            b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 5000\r\n\r\n"
        )
        status, _, data = _exchange(server, raw)
        assert status == 413
        assert "exceeds 1024" in data["error"]

    def test_headers_over_32_kb_are_431(self, server):
        filler = b"".join(b"X-Filler-%d: %s\r\n" % (i, b"y" * 200) for i in range(200))
        status, _, data = _exchange(server, b"GET /health HTTP/1.1\r\n" + filler + b"\r\n")
        assert status == 431
        assert "too large" in data["error"]

    @pytest.mark.parametrize(
        "cut",
        [
            b"GET /health HTTP/1.1",
            b"GET /health HTTP/1.1\r\nHost: x",
            b"GET /health HTTP/1.1\r\nHost: x\r\n",
        ],
    )
    def test_request_cut_off_before_its_blank_line_is_not_run(self, server, cut):
        """EOF inside the request head closes the connection unanswered."""
        with _connect(server) as sock:
            sock.sendall(cut)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""

    def test_stalled_client_is_closed_while_others_are_served(self, server):
        """Half a request, then bytes trickling in: the whole request must
        arrive within ``keepalive_idle_s``, and nobody else waits for it."""
        idle = server.config.keepalive_idle_s
        with _connect(server) as stalled:
            stalled.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n")
            started = time.monotonic()
            client = ServeClient(server.config.host, server.port, timeout=5)
            served = client.health()
            assert served.status == 200 and served.latency_s < idle
            closed_at = None
            while closed_at is None and time.monotonic() - started < idle + 5:
                try:
                    stalled.sendall(b"X")  # one header byte per 0.1 s
                except OSError:
                    closed_at = time.monotonic()
                    break
                stalled.settimeout(0.1)
                try:
                    if stalled.recv(1024) == b"":
                        closed_at = time.monotonic()
                except TimeoutError:
                    pass
                except OSError:
                    closed_at = time.monotonic()
            assert closed_at is not None, "the stalled connection was never closed"
            assert idle * 0.8 <= closed_at - started <= idle + 2.0

    def test_connection_cap_answers_503_without_a_thread(self, monkeypatch):
        """Connections inside a request hold their place at the cap."""
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
        server = _boot(keepalive_idle_s=10.0)
        held = []
        try:
            for _ in range(2):
                sock = _connect(server)
                sock.sendall(b"GET /health HTTP/1.1\r\n")  # half a request
                held.append(sock)
            _wait_for(lambda: len(server._conns) == 2 and not server._idle)
            before = _conn_threads()
            with _connect(server) as third:
                status, headers, body = _read_response(third)
                assert third.recv(1024) == b""  # and closed
            assert status == 503
            assert int(headers["retry-after"]) >= 1
            assert json.loads(body)["status"] == 503
            assert len(before) == 2 and _conn_threads() == before
            for sock in held:  # the requests they were inside are still answered
                sock.sendall(b"Host: x\r\n\r\n")
                assert _read_response(sock)[0] == 200
        finally:
            for sock in held:
                sock.close()
            server.stop()

    def test_idle_connection_makes_room_at_the_cap(self, monkeypatch):
        """At the cap, the connection idle longest between requests is
        closed for a newcomer, and the newcomer is served."""
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
        server = _boot(keepalive_idle_s=30.0)
        held = []
        try:
            for count in (1, 2):
                sock = _connect(server)
                sock.sendall(_HEALTH)
                assert _read_response(sock)[0] == 200
                held.append(sock)  # kept open, idle
                _wait_for(lambda: len(server._idle) == count)
            oldest, newest = held
            status, _, data = _exchange(server, _HEALTH)
            assert status == 200 and data["status"] == "ok"
            assert oldest.recv(1024) == b""  # closed to make room
            newest.sendall(_HEALTH)  # kept
            assert _read_response(newest)[0] == 200
        finally:
            for sock in held:
                sock.close()
            server.stop()

    def test_cap_holds_under_churn(self, monkeypatch):
        """Clients connecting, asking and leaving against a cap of 3: every
        request is answered or its connection closed, the cap holds, and
        the server's connection tables empty once the clients are gone."""
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 3)
        server = _boot(keepalive_idle_s=5.0)
        outcomes: list[object] = []
        peak = [0]
        done = threading.Event()

        def client() -> None:
            for _ in range(15):
                try:
                    with _connect(server) as sock:
                        for _ in range(3):
                            sock.sendall(_HEALTH)
                            status = _read_response(sock)[0]
                            outcomes.append(status)
                            if status != 200:
                                break
                except (AssertionError, OSError):  # closed to make room
                    outcomes.append("closed")

        def watch() -> None:
            while not done.is_set():
                peak[0] = max(peak[0], len(server._conns))
                time.sleep(0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher = threading.Thread(target=watch)
            watcher.start()
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            done.set()
            watcher.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in clients + [watcher])
            assert set(outcomes) <= {200, 503, "closed"} and outcomes.count(200) > 0
            assert peak[0] <= 3
            _wait_for(lambda: not (server._conns or server._idle or server._closing))
        finally:
            assert server.stop() is True

    def test_thread_that_cannot_start_refuses_only_its_connection(self, monkeypatch):
        server = _boot()
        real_start = threading.Thread.start
        failed = []

        def start(thread):
            if thread.name.startswith("repro-conn-") and not failed:
                failed.append(thread.name)
                raise RuntimeError("can't start new thread")
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        try:
            with _connect(server) as refused:
                status, headers, body = _read_response(refused)
                assert refused.recv(1024) == b""
            assert status == 503 and int(headers["retry-after"]) >= 1
            assert "can't start new thread" in json.loads(body)["error"]
            assert len(failed) == 1
            status, _, data = _exchange(server, _HEALTH)  # still accepting
            assert status == 200 and data["status"] == "ok"
            assert ServeClient(server.config.host, server.port).health().status == 200
        finally:
            monkeypatch.undo()
            assert server.stop() is True

    @pytest.mark.parametrize("host", ["localhost", ""])
    def test_listens_on_every_address_the_host_resolves_to(self, monkeypatch, host):
        """Like ``asyncio.start_server``: one listener per address, one port."""
        if not _ipv6_loopback():
            pytest.skip("no IPv6 loopback")
        real_getaddrinfo = socket.getaddrinfo

        def getaddrinfo(name, *args, **kwargs):
            if name == "localhost":  # IPv6 first, as many resolvers order it
                return real_getaddrinfo("::1", *args, **kwargs) + real_getaddrinfo(
                    "127.0.0.1", *args, **kwargs
                )
            return real_getaddrinfo(name, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        server = _boot(host=host)
        try:
            for address in ("127.0.0.1", "::1"):
                with socket.create_connection((address, server.port), timeout=10) as sock:
                    sock.sendall(_HEALTH)
                    assert _read_response(sock)[0] == 200, address
        finally:
            assert server.stop() is True


def _whoami(params, deps):
    return threading.current_thread().name


_THREAD_REGISTRY = JobRegistry()
_THREAD_REGISTRY.job("whoami", params=("tag",))(_whoami)


class TestThreadPerConnection:
    def test_cold_request_runs_on_the_thread_that_read_it(self):
        server = _boot(registry=_THREAD_REGISTRY, hot_entries=0)
        try:
            conn = http.client.HTTPConnection(server.config.host, server.port, timeout=10)
            conn.connect()
            host, port = conn.sock.getsockname()[:2]
            for tag in (1, 2):  # two requests on one keep-alive connection
                body = json.dumps({"job": "whoami", "params": {"tag": tag}})
                conn.request("POST", "/run", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["result"] == f"repro-conn-{host}:{port}"
            conn.close()
        finally:
            server.stop()

    def test_exec_workers_bounds_running_executions(self):
        """With ``exec_workers=1`` two distinct sleeps run one after the
        other, and a hot read on a third connection is answered meanwhile."""
        server = _boot(exec_workers=1, hot_entries=16)
        host, port = server.config.host, server.port
        try:
            client = ServeClient(host, port)
            assert client.run("debug.echo", {"value": "warm"}).status == 200
            results: dict[int, object] = {}

            def sleeper(tag: int) -> None:
                results[tag] = ServeClient(host, port).run(
                    "debug.sleep", {"seconds": 0.4, "tag": tag}
                )

            threads = [threading.Thread(target=sleeper, args=(tag,)) for tag in (1, 2)]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # both sleeps are in flight, one of them running
            hot = client.run("debug.echo", {"value": "warm"})
            hot_done = time.monotonic() - started
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert hot.status == 200 and hot.data["cache"] == "hot"
            assert hot_done < 0.4  # answered before the first sleep ended
            assert [results[tag].status for tag in (1, 2)] == [200, 200]
            latencies = sorted(results[tag].latency_s for tag in (1, 2))
            assert latencies[1] >= 0.75  # the second waited for the first
            assert latencies[0] < 0.75
        finally:
            server.stop()

    def test_stop_wakes_idle_keepalive_connections(self):
        server = _boot(keepalive_idle_s=30.0)
        conns = []
        try:
            for _ in range(3):
                conn = http.client.HTTPConnection(server.config.host, server.port, timeout=10)
                conn.request("GET", "/health")
                assert conn.getresponse().read()
                conns.append(conn)  # kept open, idle
            started = time.monotonic()
            clean = server.stop()
            elapsed = time.monotonic() - started
        finally:
            for conn in conns:
                conn.close()
        assert clean is True
        assert elapsed < 2.0
        assert not server._thread.is_alive()

    def test_run_log_lines_stay_whole_under_concurrent_runs(self, tmp_path, monkeypatch):
        made = []
        real_mkdir = pathlib.Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", counting_mkdir)
        log_path = tmp_path / "logs" / "runs.jsonl"
        server = _boot(run_log_path=log_path, hot_entries=0, exec_workers=8)
        host, port = server.config.host, server.port
        try:
            barrier = threading.Barrier(8)
            statuses = []

            def cold(tag: int) -> None:
                barrier.wait(timeout=10)
                statuses.append(
                    ServeClient(host, port).run("debug.sleep", {"seconds": 0.05, "tag": tag}).status
                )

            threads = [threading.Thread(target=cold, args=(tag,)) for tag in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            assert not any(thread.is_alive() for thread in threads)
            assert statuses == [200] * 8
        finally:
            server.stop()
        lines = log_path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]  # every line parses
        jobs = [r for r in records if r["kind"] == "job"]
        summaries = [r for r in records if r["kind"] == "run_summary"]
        assert len(jobs) == 8 and len(summaries) == 8
        assert sorted(r["params"]["tag"] for r in jobs) == list(range(8))
        assert {r["run_id"] for r in jobs} == {r["run_id"] for r in summaries}
        assert made == [log_path.parent]
