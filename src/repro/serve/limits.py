"""Per-client rate limiting and admission accounting.

A classic token bucket per client: capacity ``burst`` tokens, refilled
continuously at ``rate`` tokens/second.  A request costs one token; a
client that drained its bucket gets ``429`` with a ``Retry-After``
computed from the deficit.  Buckets live in a bounded LRU so an open
server cannot be grown without bound by spoofed client ids.

Admission control proper (the bounded execution queue answered with
``503``) lives in the broker — it is a property of the shared execution
pipeline, not of one client.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

__all__ = ["TokenBucket", "RateLimiter"]


class TokenBucket:
    """A continuous-refill token bucket.

    ``clock`` is injectable for deterministic tests.

    >>> t = [0.0]
    >>> bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: t[0])
    >>> [bucket.try_acquire()[0] for _ in range(3)]
    [True, True, False]
    >>> t[0] = 1.0  # one second refills one token
    >>> bucket.try_acquire()[0]
    True
    """

    __slots__ = ("rate", "burst", "tokens", "updated", "clock")

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.clock = clock
        self.updated = clock()

    def try_acquire(self, cost: float = 1.0) -> tuple[bool, float]:
        """``(granted, retry_after_seconds)``; ``retry_after`` is 0 on grant."""
        now = self.clock()
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True, 0.0
        if self.rate <= 0:
            return False, float("inf")
        return False, (cost - self.tokens) / self.rate


class RateLimiter:
    """A bounded LRU of per-client :class:`TokenBucket`\\ s.

    ``rate=None`` disables limiting entirely (every check is granted).
    Thread-safe: every connection thread of the server calls it.
    """

    def __init__(
        self,
        rate: float | None,
        burst: int,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.max_clients = max(1, int(max_clients))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self.granted = 0
        self.rejected = 0

    def check(self, client_id: str) -> tuple[bool, float]:
        """Charge one token to ``client_id``; ``(granted, retry_after)``."""
        if self.rate is None:
            with self._lock:
                self.granted += 1
            return True, 0.0
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[client_id] = bucket
            self._buckets.move_to_end(client_id)
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
            ok, retry_after = bucket.try_acquire()
            if ok:
                self.granted += 1
            else:
                self.rejected += 1
            return ok, retry_after

    @staticmethod
    def retry_after_header(retry_after: float) -> str:
        """``Retry-After`` wants integral seconds; always advise >= 1."""
        if not math.isfinite(retry_after):
            return "60"
        return str(max(1, math.ceil(retry_after)))

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.rate is not None,
                "rate": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "granted": self.granted,
                "rejected": self.rejected,
            }
