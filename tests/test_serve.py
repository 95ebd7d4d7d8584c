"""Integration tests for the repro.serve job service (real sockets).

Each test class boots a :class:`~repro.serve.ReproServer` on an
ephemeral port with the configuration under test (memory-only cache so
nothing leaks into the user's disk cache) and drives it over HTTP with
the bundled clients.  The headline guarantees proved here:

* N identical concurrent requests execute exactly once and every client
  receives the result (coalescing);
* a coalesced follower disconnecting does not cancel the leader;
* a burst exactly at the token-bucket limit is fully granted, the next
  request is 429 with a ``Retry-After`` header;
* ``debug.hang`` under a ``timeout``/``on_timeout="skip"`` server
  surfaces as 504 end-to-end;
* shutdown drains in-flight work cleanly.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.serve import AsyncServeClient, ReproServer, ServeClient, ServeConfig


def _boot(**overrides) -> ReproServer:
    config = ServeConfig(no_cache=True, drain_grace_s=10.0, **overrides)
    return ReproServer(config).start(timeout=10)


@pytest.fixture(scope="module")
def server():
    """A plain server: serial engine, hot LRU, no rate limit."""
    server = _boot(hot_entries=256, queue_limit=32, exec_workers=4)
    yield server
    server.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.config.host, server.port, client_id="pytest")


class TestBasicEndpoints:
    def test_health(self, client):
        result = client.health()
        assert result.status == 200
        assert result.data == {"status": "ok", "draining": False}

    def test_jobs_lists_registry(self, client):
        result = client.jobs()
        assert result.status == 200
        names = [job["name"] for job in result.data["jobs"]]
        assert "certificate" in names and "debug.echo" in names

    def test_run_success(self, client):
        result = client.run("debug.echo", {"value": "ping"})
        assert result.status == 200
        assert result.data["result"] == "ping"
        assert result.data["job"] == "debug.echo"
        assert not result.data["coalesced"]

    def test_run_real_job(self, client):
        result = client.run("certificate", {"n": 64})
        assert result.status == 200
        assert result.data["result"]["n"] == 64

    def test_unknown_job_is_404(self, client):
        result = client.run("no.such.job", {})
        assert result.status == 404
        assert "unknown job" in result.data["error"]

    def test_bad_params_are_400(self, client):
        result = client.run("debug.echo", {"bogus": 1})
        assert result.status == 400
        assert "does not accept" in result.data["error"]

    def test_unparseable_body_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.config.host, server.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/run",
                body=b"{not json",
                headers={"Content-Type": "application/json", "Connection": "close"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_path_is_404_and_bad_method_is_405(self, client):
        assert client._request("GET", "/nope").status == 404
        assert client._request("POST", "/health").status == 405

    def test_stats_shape(self, client):
        client.run("debug.echo", {"value": "stats-probe"})
        stats = client.stats().data
        assert stats["counters"]["requests"] >= 1
        assert "hot" in stats and "limits" in stats and "coalescer" in stats
        # /stats must stay cheap: count-only disk stats skip the size walk.
        assert stats["hot"] is None or stats["hot"]["disk"] is None

    def test_hot_lru_serves_repeats(self, client):
        # A JSON-list param (extract.scan's `columns`) must hit the hot LRU
        # too: the broker's peek key has to equal the engine's store key.
        for value in ("repeat-me", [1, 3, ["nested", 2]]):
            first = client.run("debug.echo", {"value": value})
            assert first.data["cache"] in ("miss", "off")
            before = client.stats().data["counters"]["hot_served"]
            second = client.run("debug.echo", {"value": value})
            assert second.status == 200
            assert second.data["cache"] == "hot", value
            assert second.data["result"] == value
            after = client.stats().data["counters"]["hot_served"]
            assert after == before + 1


class TestCoalescing:
    def test_identical_concurrent_requests_execute_once(self, server):
        """The acceptance criterion: N identical concurrent requests join
        one execution; every client receives the result."""
        host, port = server.config.host, server.port
        n_clients = 8
        before = ServeClient(host, port).stats().data["counters"]["executed"]

        async def fan_out():
            clients = [
                AsyncServeClient(host, port, client_id=f"co-{i}")
                for i in range(n_clients)
            ]
            try:
                return await asyncio.gather(
                    *(c.run("debug.sleep", {"seconds": 0.3, "tag": 7}) for c in clients)
                )
            finally:
                for c in clients:
                    await c.close()

        results = asyncio.run(fan_out())
        assert [r.status for r in results] == [200] * n_clients
        assert all(r.data["result"] == 0.3 for r in results)
        assert len({r.data["run_id"] for r in results}) == 1
        assert sum(1 for r in results if r.data["coalesced"]) == n_clients - 1
        after = ServeClient(host, port).stats().data["counters"]["executed"]
        assert after == before + 1

    def test_follower_disconnect_does_not_cancel_leader(self, server):
        host, port = server.config.host, server.port

        async def scenario():
            leader = AsyncServeClient(host, port, client_id="leader")
            follower = AsyncServeClient(host, port, client_id="follower")
            try:
                leader_task = asyncio.create_task(
                    leader.run("debug.sleep", {"seconds": 0.5, "tag": 11})
                )
                await asyncio.sleep(0.1)  # leader is in flight
                follower_task = asyncio.create_task(
                    follower.run("debug.sleep", {"seconds": 0.5, "tag": 11})
                )
                await asyncio.sleep(0.1)  # follower has joined
                follower_task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await follower_task
                return await leader_task
            finally:
                await leader.close()
                await follower.close()

        result = asyncio.run(scenario())
        assert result.status == 200
        assert result.data["result"] == 0.5


class TestAdmissionControl:
    def test_burst_exactly_at_token_bucket_limit(self):
        server = _boot(rate=0.5, burst=4, hot_entries=0)
        try:
            client = ServeClient(server.config.host, server.port, client_id="bursty")
            statuses = [
                client.run("debug.echo", {"value": f"burst-{i}"}).status
                for i in range(4)
            ]
            assert statuses == [200] * 4  # exactly the burst: all granted
            rejected = client.run("debug.echo", {"value": "one-too-many"})
            assert rejected.status == 429
            assert int(rejected.headers.get("retry-after", "0")) >= 1
            # Another client is unaffected.
            other = ServeClient(server.config.host, server.port, client_id="calm")
            assert other.run("debug.echo", {"value": "solo"}).status == 200
        finally:
            server.stop()

    def test_queue_limit_rejects_with_503(self):
        server = _boot(queue_limit=1, exec_workers=4, hot_entries=0)
        host, port = server.config.host, server.port
        try:

            async def scenario():
                a = AsyncServeClient(host, port, client_id="a")
                b = AsyncServeClient(host, port, client_id="b")
                try:
                    slow = asyncio.create_task(
                        a.run("debug.sleep", {"seconds": 0.6, "tag": 1})
                    )
                    await asyncio.sleep(0.15)  # the slot is occupied
                    busy = await b.run("debug.sleep", {"seconds": 0.6, "tag": 2})
                    return await slow, busy
                finally:
                    await a.close()
                    await b.close()

            slow, busy = asyncio.run(scenario())
            assert slow.status == 200
            assert busy.status == 503
            assert "retry-after" in busy.headers
        finally:
            server.stop()


class TestEventStreaming:
    def test_replay_after_completion(self, server):
        client = ServeClient(server.config.host, server.port)
        run = client.run("debug.echo", {"value": "eventful"})
        run_id = run.data["run_id"]
        if run.data["cache"] == "hot":  # hot-path hits carry no run
            run = client.run("debug.echo", {"value": "eventful-2"})
            run_id = run.data["run_id"]
        events = client.events(run_id, timeout=5)
        kinds = [e.get("kind") for e in events]
        assert kinds[-1] == "run_summary"
        assert any(e.get("job") == "debug.echo" for e in events)
        assert all(e.get("run_id") == run_id for e in events)

    def test_live_tail_reaches_terminal_event(self, server):
        host, port = server.config.host, server.port
        box: dict = {}

        def leader():
            box["run"] = ServeClient(host, port, client_id="ev-leader").run(
                "debug.sleep", {"seconds": 0.6, "tag": 21}
            )

        thread = threading.Thread(target=leader)
        thread.start()
        try:
            stats_client = ServeClient(host, port)
            run_id = None
            deadline = time.monotonic() + 5
            while run_id is None and time.monotonic() < deadline:
                inflight = stats_client.stats().data["inflight"]
                for entry in inflight:
                    if entry["job"] == "debug.sleep":
                        run_id = entry["run_id"]
                time.sleep(0.02)
            assert run_id is not None, "leader never showed up in /stats inflight"
            events = stats_client.events(run_id, timeout=10)  # streams until terminal
            assert events[-1].get("kind") == "run_summary"
        finally:
            thread.join()
        assert box["run"].status == 200

    def test_unknown_run_is_404(self, client):
        result = client._request("GET", "/runs/doesnotexist/events")
        assert result.status == 404


class TestFaultsUnderServer:
    def test_hang_honors_on_timeout_policy_end_to_end(self):
        """``debug.hang`` under a jobs=2/timeout/skip server -> HTTP 504."""
        server = _boot(
            jobs=2, timeout=0.5, on_timeout="skip", hot_entries=0, exec_workers=4
        )
        try:
            client = ServeClient(server.config.host, server.port)
            started = time.monotonic()
            result = client.run("debug.hang", {"tag": 991})
            elapsed = time.monotonic() - started
            assert result.status == 504
            assert "timed out" in result.data["error"]
            assert elapsed < 10  # the timeout fired; the hang did not persist
            # The server is still healthy afterwards.
            ok = client.run("debug.echo", {"value": "alive"})
            assert ok.status == 200
            assert client.stats().data["counters"]["timeouts"] >= 1
        finally:
            server.stop()

    def test_failing_job_is_500(self, client):
        result = client.run("debug.fail", {"message": "kaboom"})
        assert result.status == 500
        assert "kaboom" in result.data["error"]


class TestShutdown:
    def test_graceful_drain_finishes_inflight_work(self):
        server = _boot(hot_entries=0, exec_workers=4)
        host, port = server.config.host, server.port
        box: dict = {}

        def slow_call():
            box["result"] = ServeClient(host, port, client_id="drainee").run(
                "debug.sleep", {"seconds": 0.8, "tag": 31}
            )

        thread = threading.Thread(target=slow_call)
        thread.start()
        time.sleep(0.25)  # the request is in flight
        clean = server.stop()
        thread.join()
        assert clean is True
        assert box["result"].status == 200
        assert box["result"].data["result"] == 0.8

    def test_post_shutdown_endpoint(self):
        server = _boot(hot_entries=0)
        client = ServeClient(server.config.host, server.port)
        result = client.shutdown()
        assert result.status == 202
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()

    def test_worker_kill_does_not_shut_down_a_signal_handling_server(self):
        """Regression: with loop signal handlers installed (main-thread
        server, the CLI path), forked pool workers inherited the handler
        and wakeup fd — so terminating a hung worker wrote the SIGTERM
        byte into the parent's wakeup pipe and gracefully shut the whole
        server down.  The worker initializer now resets signal state."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.serve import ReproServer, ServeConfig\n"
            "config = ServeConfig(host='127.0.0.1', port=0, no_cache=True,\n"
            "    jobs=2, timeout=0.5, on_timeout='skip', hot_entries=0)\n"
            "server = ReproServer(config)\n"
            "import threading\n"
            "def report():\n"
            "    server._ready.wait(10)\n"
            "    print(server.port, flush=True)\n"
            "threading.Thread(target=report, daemon=True).start()\n"
            "server.run_blocking()\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            port = int(proc.stdout.readline())
            client = ServeClient("127.0.0.1", port, timeout=15)
            assert client.run("debug.hang", {"tag": 77}).status == 504
            # The server must still be alive and serving after the kill.
            assert client.run("debug.echo", {"value": "still-here"}).status == 200
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)  # and a real SIGTERM still drains
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
