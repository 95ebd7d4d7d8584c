"""Unit tests for the repro.serve building blocks (no sockets involved).

Covers the token bucket (with an injected clock, including the
burst-exactly-at-limit edge), the per-client rate limiter, the hot LRU
(eviction, peek, write-through, stats), the in-flight coalescer, and the
broker's counters under concurrent submitters.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time

import pytest

from repro.engine import DiskCache, JobRegistry
from repro.errors import EngineError
from repro.serve import Coalescer, HotLRU, RateLimiter, ServeConfig, TokenBucket
from repro.serve.broker import Broker, ServeHTTPError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_exactly_at_limit(self):
        """A burst of exactly ``burst`` requests is granted; one more is not."""
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=5, clock=clock)
        grants = [bucket.try_acquire()[0] for _ in range(5)]
        assert grants == [True] * 5
        granted, retry_after = bucket.try_acquire()
        assert not granted
        assert retry_after == pytest.approx(1.0)

    def test_refill_restores_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_acquire()[0] and bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]
        clock.advance(0.5)  # 2/s * 0.5s = one token back
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        clock.advance(100.0)
        grants = [bucket.try_acquire()[0] for _ in range(4)]
        assert grants == [True, True, True, False]


class TestRateLimiter:
    def test_unlimited_when_rate_is_none(self):
        limiter = RateLimiter(rate=None, burst=1, max_clients=4)
        for _ in range(100):
            granted, _ = limiter.check("anyone")
            assert granted

    def test_clients_are_isolated(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, max_clients=8, clock=clock)
        assert limiter.check("a")[0]
        assert not limiter.check("a")[0]
        assert limiter.check("b")[0]  # b has its own bucket

    def test_client_table_is_bounded(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, max_clients=2, clock=clock)
        assert limiter.check("a")[0]
        assert limiter.check("b")[0]
        assert limiter.check("c")[0]  # evicts a's exhausted bucket
        assert limiter.check("a")[0]  # a comes back fresh
        stats = limiter.stats()
        assert stats["clients"] <= 2

    def test_retry_after_header(self):
        assert RateLimiter.retry_after_header(0.2) == "1"
        assert RateLimiter.retry_after_header(2.4) == "3"
        assert RateLimiter.retry_after_header(float("inf")) == "60"


class TestHotLRU:
    def _entry(self, value):
        return {"params": {"v": value}, "fingerprint": "f", "result": value}

    def test_memory_hit_without_disk(self):
        hot = HotLRU(None, max_entries=4)
        assert hot.get("job", "k") is None
        hot.put("job", "k", {"v": 1}, "f", 1, "1")
        entry = hot.get("job", "k")
        assert entry["result"] == 1
        stats = hot.stats()
        assert stats["hot_hits"] == 1 and stats["misses"] == 1

    def test_eviction_is_lru_order(self):
        hot = HotLRU(None, max_entries=2)
        hot.put("job", "a", {}, "f", "A", '"A"')
        hot.put("job", "b", {}, "f", "B", '"B"')
        assert hot.get("job", "a")["result"] == "A"  # touch a: b is now LRU
        hot.put("job", "c", {}, "f", "C", '"C"')  # evicts b
        assert hot.get("job", "b") is None
        assert hot.get("job", "a")["result"] == "A"
        assert hot.stats()["evictions"] == 1

    def test_peek_is_memory_only(self):
        with tempfile.TemporaryDirectory() as root:
            disk = DiskCache(root)
            hot = HotLRU(disk, max_entries=4)
            disk.put("job", "k", {"v": 1}, "f", "on-disk", '"on-disk"')
            assert hot.peek("job", "k") is None  # peek never touches disk
            assert hot.get("job", "k")["result"] == "on-disk"  # get promotes
            assert hot.peek("job", "k")["result"] == "on-disk"

    def test_write_through_and_disk_promotion(self):
        with tempfile.TemporaryDirectory() as root:
            disk = DiskCache(root)
            hot = HotLRU(disk, max_entries=1)
            hot.put("job", "a", {"v": 1}, "f", "A", '"A"')
            hot.put("job", "b", {"v": 2}, "f", "B", '"B"')  # evicts a from memory
            assert hot.peek("job", "a") is None
            assert hot.get("job", "a")["result"] == "A"  # still on disk
            stats = hot.stats()
            assert stats["disk_hits"] == 1
            assert stats["disk"]["entries"] == 2

    def test_stats_count_only_skips_bytes(self):
        with tempfile.TemporaryDirectory() as root:
            hot = HotLRU(DiskCache(root), max_entries=4)
            hot.put("job", "a", {}, "f", "A", '"A"')
            full = hot.stats()
            cheap = hot.stats(count_only=True)
            assert full["disk"]["bytes"] is not None
            assert cheap["disk"]["bytes"] is None
            assert cheap["disk"]["entries"] == full["disk"]["entries"]


class TestCoalescer:
    def test_leader_then_followers_share_one_future(self):
        co = Coalescer()
        assert co.get("job", "k") is None
        execution = co.begin("job", "k", "run-1")
        follower = co.get("job", "k")
        assert follower is execution
        assert execution.followers == 1
        co.finish(execution, result={"ok": True})
        assert co.get("job", "k") is None  # no longer in flight
        assert execution.future.result(timeout=5) == {"ok": True}
        assert co.started == 1 and co.coalesced == 1

    def test_finish_with_error_propagates(self):
        co = Coalescer()
        execution = co.begin("job", "k", "run-1")
        co.finish(execution, error=ServeHTTPError(504, "timed out"))
        with pytest.raises(ServeHTTPError):
            execution.future.result(timeout=5)
        assert len(co) == 0

    def test_follower_cancel_does_not_resolve_future(self):
        """A follower that stops waiting gives up only its own wait."""
        co = Coalescer()
        execution = co.begin("job", "k", "run-1")
        gave_up = threading.Event()

        def follower():
            try:
                execution.future.result(timeout=0.05)
            except TimeoutError:
                gave_up.set()

        thread = threading.Thread(target=follower)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive() and gave_up.is_set()
        assert not execution.future.cancelled()
        assert not execution.future.done()
        co.finish(execution, result=42)
        assert execution.future.result(timeout=5) == 42


def _nap(params, deps):
    time.sleep(0.05)
    return params["tag"]


_NAP_REGISTRY = JobRegistry()
_NAP_REGISTRY.job("nap", params=("tag",))(_nap)


class TestBrokerUnderThreads:
    """Connection threads share the broker: no lost update, one leader per key."""

    def test_concurrent_submitters(self):
        broker = Broker(ServeConfig(no_cache=True, hot_entries=64), registry=_NAP_REGISTRY)
        threads, keys, hot_reads = 12, 30, 100
        barrier = threading.Barrier(threads)
        payloads: list[dict] = []
        errors: list[BaseException] = []

        def submitter():
            try:
                for tag in range(keys):  # every thread asks for each cold key at once
                    barrier.wait(timeout=10)
                    payloads.append(broker.submit("nap", {"tag": tag}, "t"))
                for _ in range(hot_reads):
                    assert broker.submit("nap", {"tag": 0}, "t")["cache"] == "hot"
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=submitter) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        for tag in range(keys):
            runs = {p["run_id"] for p in payloads if p["result"] == tag}
            assert len(runs) == 1, f"key {tag} executed {len(runs)} times"
        counters = broker.stats()["counters"]
        assert counters["executed"] == keys
        assert counters["coalesced"] == keys * (threads - 1)
        assert counters["requests"] == threads * (keys + hot_reads)
        assert counters["hot_served"] == threads * hot_reads
        assert broker.limiter.stats()["granted"] == threads * (keys + hot_reads)

    def test_leader_finishing_before_the_lock_is_read_hot(self):
        """A request whose hot peek missed just before a leader finished
        reads what the leader stored, rather than leading a second run."""
        broker = Broker(ServeConfig(no_cache=True, hot_entries=64), registry=_NAP_REGISTRY)
        real_peek = broker.hot.peek
        peeks = []

        def peek(job_name, key):
            peeks.append(key)
            entry = real_peek(job_name, key)
            if len(peeks) == 1:  # the late request missed; a leader runs now
                leader = threading.Thread(target=broker.submit, args=("nap", {"tag": 7}, "t"))
                leader.start()
                leader.join(timeout=10)
                assert not leader.is_alive()
            return entry

        broker.hot.peek = peek
        payload = broker.submit("nap", {"tag": 7}, "t")
        assert payload["cache"] == "hot" and payload["result"] == 7
        counters = broker.stats()["counters"]
        assert counters["executed"] == 1
        assert counters["hot_served"] == 1 and counters["coalesced"] == 0


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.port == 0 and config.hot_entries == 1024

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"jobs": 0},
            {"queue_limit": 0},
            {"exec_workers": 0},
            {"rate": 0.0},
            {"burst": 0.0},
            {"hot_entries": -1},
            {"on_timeout": "explode"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(EngineError):
            ServeConfig(**kwargs)
