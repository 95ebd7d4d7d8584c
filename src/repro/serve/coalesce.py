"""In-flight request coalescing: identical requests join one execution.

Two requests are *identical* when they agree on ``(job name, cache key)``
— the same content-addressed key the disk cache uses, so parameter
defaulting and ordering are already normalised away.  The first request
for a key becomes the **leader** and actually executes; requests arriving
while it runs become **followers** that wait on the same
:class:`concurrent.futures.Future` and receive the same outcome (result
*or* exception).

Every request runs on its own connection thread, so the table is
guarded by a lock.  Only the leader resolves the future; a follower
that stops waiting (its client went away) leaves it untouched, so the
leader's execution and every other waiter are unaffected.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Execution", "Coalescer"]


@dataclass
class Execution:
    """One in-flight (or just-finished) leader execution."""

    job: str
    key: str
    run_id: str
    future: Future = field(default_factory=Future)
    started: float = field(default_factory=time.monotonic)
    followers: int = 0  #: requests that coalesced onto this execution

    @property
    def coalesce_key(self) -> tuple[str, str]:
        return (self.job, self.key)


class Coalescer:
    """The ``(job, key) → Execution`` in-flight table."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[tuple[str, str], Execution] = {}
        self.started = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def get(self, job: str, key: str) -> Execution | None:
        """The running execution identical requests should join, if any."""
        with self._lock:
            execution = self._inflight.get((job, key))
            if execution is not None:
                execution.followers += 1
                self.coalesced += 1
            return execution

    def begin(self, job: str, key: str, run_id: str) -> Execution:
        """Install a new leader for ``(job, key)``; the caller executes it."""
        execution = Execution(job=job, key=key, run_id=run_id)
        with self._lock:
            self._inflight[execution.coalesce_key] = execution
            self.started += 1
        return execution

    def finish(
        self,
        execution: Execution,
        result: Any = None,
        error: BaseException | None = None,
    ) -> None:
        """Resolve the shared future and retire the table entry.

        Every waiter — the leader and all followers — observes the same
        outcome.
        """
        with self._lock:
            self._inflight.pop(execution.coalesce_key, None)
        if error is not None:
            execution.future.set_exception(error)
        else:
            execution.future.set_result(result)

    def inflight(self) -> list[dict[str, Any]]:
        """A JSON-friendly snapshot for ``/stats``."""
        now = time.monotonic()
        with self._lock:
            executions = list(self._inflight.values())
        return [
            {
                "job": ex.job,
                "run_id": ex.run_id,
                "followers": ex.followers,
                "running_s": round(now - ex.started, 3),
            }
            for ex in executions
        ]
