"""Run-log event streaming: per-run logs that publish to subscribers.

:class:`EventLog` is a :class:`~repro.engine.artifacts.RunLog` that, in
addition to the normal in-memory records and optional JSONL file, pushes
every record (as its JSON payload) to any number of subscribers — the
``GET /runs/<id>/events`` handlers.  Records are produced on the leader's
connection thread while each subscriber blocks on its own connection
thread, so every subscriber gets a :class:`queue.SimpleQueue`.

A stream is *terminal* once a ``run_summary`` payload (normal end) or a
``run_error`` payload (the engine raised) has been published; late
subscribers of a finished run get the full replay and no queue.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Any

from repro.engine.artifacts import RunLog, RunRecord

__all__ = ["EventLog"]


class EventLog(RunLog):
    """A run log that fans records out to subscriber queues."""

    def __init__(self, path: Path | None = None) -> None:
        super().__init__(path=path)
        self._elock = threading.Lock()
        self._subscribers: list[queue.SimpleQueue] = []
        self.events: list[dict[str, Any]] = []
        self.done = False

    # -- producer side (the leader's thread) ----------------------------

    def record(self, record: RunRecord) -> dict[str, Any]:
        payload = super().record(record)
        self._publish(payload)
        return payload

    def summarize(self, wall_ms: float, workers: int) -> dict[str, Any]:
        summary = super().summarize(wall_ms, workers)
        self._publish(summary, terminal=True)
        return summary

    def finish_error(self, error: str) -> None:
        """Publish the terminal event for a run whose engine call raised.

        The engine only writes ``run_summary`` on successful completion, so
        without this a failed run's subscribers would wait forever.
        No-op when the log already ended (e.g. a timeout under
        ``on_timeout="skip"`` summarises normally before raising).
        """
        if self.done:
            return
        self._publish(
            {
                "kind": "run_error",
                "run_id": self.run_id,
                "error": error,
                "ended_at": time.time(),
            },
            terminal=True,
        )

    def _publish(self, payload: dict[str, Any], terminal: bool = False) -> None:
        with self._elock:
            if self.done:
                return
            self.events.append(payload)
            if terminal:
                self.done = True
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber.put(payload)

    # -- consumer side (event-stream handlers) --------------------------

    def subscribe(self) -> tuple[list[dict[str, Any]], queue.SimpleQueue | None]:
        """``(replay, live_queue)``; the queue is ``None`` for finished runs.

        The snapshot and the registration happen under one lock, so no
        event is ever missed or duplicated across the replay/live seam.
        """
        with self._elock:
            snapshot = list(self.events)
            if self.done:
                return snapshot, None
            subscriber: queue.SimpleQueue = queue.SimpleQueue()
            self._subscribers.append(subscriber)
            return snapshot, subscriber

    def unsubscribe(self, subscriber: queue.SimpleQueue) -> None:
        with self._elock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    @staticmethod
    def is_terminal(payload: dict[str, Any]) -> bool:
        return payload.get("kind") in ("run_summary", "run_error")
