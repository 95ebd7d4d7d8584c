"""Structured run artifacts: one JSON record per executed job.

Every engine run appends machine-readable records to a JSONL run log
(default ``<cache_dir>/runs.jsonl``), one line per job *execution* (a
retried job appends one record per attempt) plus a trailing
``run_summary`` line.  Benchmark trajectories (``BENCH_*.json``) and any
future dashboards consume this file; nothing in it is meant for humans
first.

Record schema (``kind: "job"``)::

    {
      "kind": "job",
      "run_id": "a1b2c3…",          # shared by all records of one engine run
      "job": "certificate",
      "params": {"n": 16},
      "key": "5f1d…",               # the content-addressed cache key
      "cache": "hit" | "miss" | "off",
      "outcome": "ok" | "error" | "timeout" | "skipped",
      "error": "…",                 # present only when outcome != ok
      "wall_ms": 12.3,              # execution time (0.0 for cache hits)
      "result_bytes": 418,          # length of the result's canonical JSON
      "started_at": 1754…,          # epoch seconds the execution *started*
      "pid": 1234,                  # recording process id
      "attempt": 1,                 # 1-based execution attempt of this job
      "retries": 0,                 # the engine's max_retries budget
      "backend": "words"            # the active kernel backend (repro.backend)
    }

``outcome: "timeout"`` marks a job killed at its deadline;
``outcome: "skipped"`` marks a dependent that could not run because a
dependency timed out under ``on_timeout="skip"``.  A retried job records
every failed attempt (``outcome: "error"``) before its final record.

Summary schema (``kind: "run_summary"``)::

    {"kind": "run_summary", "run_id": …, "jobs": 11, "hits": 9,
     "misses": 2, "off": 0, "errors": 0, "timeouts": 0, "skipped": 0,
     "retried": 0, "wall_ms": 1834.2, "workers": 4}

``hits + misses + off == jobs`` always holds: ``off`` counts executions
that ran with caching disabled (they are *not* misses — there was no
cache to miss).  ``retried`` counts executions with ``attempt > 1``.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["RunRecord", "RunLog"]

_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT | getattr(os, "O_CLOEXEC", 0)


@dataclass(slots=True)
class RunRecord:
    """One executed (or cache-served) job attempt, as recorded in the run log."""

    run_id: str
    job: str
    params: dict[str, Any]
    key: str
    cache: str
    outcome: str
    wall_ms: float
    result_bytes: int
    started_at: float
    pid: int
    attempt: int = 1
    retries: int = 0
    error: str | None = None
    backend: str | None = None

    def to_json(self) -> dict[str, Any]:
        record = {
            "kind": "job",
            "run_id": self.run_id,
            "job": self.job,
            "params": self.params,
            "key": self.key,
            "cache": self.cache,
            "outcome": self.outcome,
            "wall_ms": self.wall_ms,
            "result_bytes": self.result_bytes,
            "started_at": self.started_at,
            "pid": self.pid,
            "attempt": self.attempt,
            "retries": self.retries,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.backend is not None:
            record["backend"] = self.backend
        return record


@dataclass(slots=True)
class RunLog:
    """An append-only JSONL sink for :class:`RunRecord` entries.

    ``path=None`` disables persistence but still accumulates records in
    memory (so callers can always report a summary).
    """

    path: Path | None
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    records: list[RunRecord] = field(default_factory=list)

    def record(self, record: RunRecord) -> dict[str, Any]:
        """Keep ``record`` and append it to the file; returns its JSON payload."""
        self.records.append(record)
        payload = record.to_json()
        self._append(payload)
        return payload

    def summarize(self, wall_ms: float, workers: int) -> dict[str, Any]:
        """Append and return the ``run_summary`` record for this run."""
        summary = {
            "kind": "run_summary",
            "run_id": self.run_id,
            "jobs": len(self.records),
            "hits": sum(1 for r in self.records if r.cache == "hit"),
            "misses": sum(1 for r in self.records if r.cache == "miss"),
            "off": sum(1 for r in self.records if r.cache == "off"),
            "errors": sum(1 for r in self.records if r.outcome == "error"),
            "timeouts": sum(1 for r in self.records if r.outcome == "timeout"),
            "skipped": sum(1 for r in self.records if r.outcome == "skipped"),
            "retried": sum(1 for r in self.records if r.attempt > 1),
            "wall_ms": round(wall_ms, 3),
            "workers": workers,
        }
        self._append(summary)
        return summary

    def _append(self, payload: dict[str, Any]) -> None:
        """Append ``payload`` as one line, in one ``write`` to an append-mode file.

        Every log of a process may share one file (the service's
        ``--run-log``); an ``O_APPEND`` write lands whole at the end, so
        records from concurrent runs never interleave within a line.
        """
        if self.path is None:
            return
        line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            fd = os.open(self.path, _APPEND_FLAGS, 0o666)
        except FileNotFoundError:  # the first record of a new log makes its directory
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, _APPEND_FLAGS, 0o666)
        try:
            data = memoryview(line.encode("utf-8"))
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
