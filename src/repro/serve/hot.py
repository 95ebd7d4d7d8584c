"""A shared in-memory LRU in front of the disk cache.

:class:`HotLRU` speaks the same ``get``/``put``/``stats`` protocol as
:class:`~repro.engine.cache.DiskCache`, so the engine uses it as *the*
cache while every lookup is answered from memory when possible:

* ``get`` — hot hit (no disk I/O) → disk hit (promoted into memory) →
  miss; an entry carries ``result_bytes``, its result's stored length,
  as the disk layer's entries do;
* ``put`` — stores the value in memory and writes its canonical
  encoding through to the disk layer;
* eviction — least-recently-used beyond ``max_entries``.

All methods are thread-safe: the serve broker shares one instance across
its connection threads.  The counters it keeps (``hot_hits``,
``disk_hits``, ``misses``, ``evictions``) feed the server's ``/stats``
endpoint, which is how "repeat hits never touch disk" stays observable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping
from typing import Any

from repro.engine.cache import DiskCache

__all__ = ["HotLRU"]


class HotLRU:
    """A bounded, thread-safe LRU of cache entries over an optional disk layer.

    >>> hot = HotLRU(None, max_entries=2)
    >>> hot.put("j", "k1", {"n": 1}, "fp", 11, "11")
    >>> hot.get("j", "k1")["result"]
    11
    >>> hot.put("j", "k2", {"n": 2}, "fp", 22, "22")
    >>> hot.put("j", "k3", {"n": 3}, "fp", 33, "33")  # evicts k1
    >>> hot.get("j", "k1") is None
    True
    """

    def __init__(self, inner: DiskCache | None, max_entries: int = 1024) -> None:
        self._inner = inner
        self._max = max(0, int(max_entries))
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], dict[str, Any]] = OrderedDict()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def inner(self) -> DiskCache | None:
        """The wrapped disk layer (``None`` when serving memory-only)."""
        return self._inner

    def peek(self, job_name: str, key: str) -> dict[str, Any] | None:
        """Memory-only lookup: never touches the disk layer.

        The broker's fast path uses this before coalescing: a memory miss
        falls through to an engine run, where :meth:`get` may still find
        the entry on disk (and the payload then says ``"cache": "hit"``).
        """
        ck = (job_name, key)
        with self._lock:
            entry = self._entries.get(ck)
            if entry is not None:
                self._entries.move_to_end(ck)
                self.hot_hits += 1
            return entry

    def get(self, job_name: str, key: str) -> dict[str, Any] | None:
        ck = (job_name, key)
        with self._lock:
            entry = self._entries.get(ck)
            if entry is not None:
                self._entries.move_to_end(ck)
                self.hot_hits += 1
                return entry
        if self._inner is None:
            with self._lock:
                self.misses += 1
            return None
        entry = self._inner.get(job_name, key)
        with self._lock:
            if entry is None:
                self.misses += 1
                return None
            self.disk_hits += 1
            self._admit(ck, entry)
        return entry

    def put(
        self,
        job_name: str,
        key: str,
        params: Mapping[str, Any],
        fingerprint: str,
        result: Any,
        encoded: str,
    ) -> None:
        entry = {
            "job": job_name,
            "params": dict(params),
            "fingerprint": fingerprint,
            "result": result,
            "result_bytes": len(encoded),
        }
        with self._lock:
            self._admit((job_name, key), entry)
        if self._inner is not None:
            self._inner.put(job_name, key, params, fingerprint, result, encoded)

    def _admit(self, ck: tuple[str, str], entry: dict[str, Any]) -> None:
        """Insert/refresh under the lock, evicting the LRU tail."""
        if self._max == 0:
            return
        self._entries[ck] = entry
        self._entries.move_to_end(ck)
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self, count_only: bool = False) -> dict[str, Any]:
        """Counters plus the disk layer's (cheap) stats, for ``/stats``."""
        with self._lock:
            hot = {
                "entries": len(self._entries),
                "max_entries": self._max,
                "hot_hits": self.hot_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
        hot["disk"] = (
            self._inner.stats(count_only=count_only) if self._inner is not None else None
        )
        return hot

    def clear(self) -> int:
        """Drop every hot entry (the disk layer is left untouched)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped
