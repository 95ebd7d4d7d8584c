"""The request broker: validate → rate-limit → coalesce → admit → execute.

The broker is the seam between the HTTP front end and the synchronous
:class:`~repro.engine.Engine`.  One engine instance is shared by all
clients.  :meth:`Broker.submit` runs on the thread that read the
request: a leader calls the engine's thread-safe entry point there,
with its own per-run :class:`~repro.serve.events.EventLog`, so a cold
request makes no hand-off between threads.  The shared bookkeeping — the
in-flight coalescing table, admission counting, counters, run history —
is guarded by locks.

The request pipeline, in order:

1. **rate limit** — the per-client token bucket (``429`` + Retry-After);
2. **validate** — job name against the registry (``404``), parameters
   against the job's declaration (``400``), *before* any work is queued;
3. **hot fast path** — a memory-resident cache entry is served directly
   (no engine run, no disk);
4. **coalesce** — an identical in-flight request is joined as a follower;
5. **admit** — distinct executions beyond ``queue_limit`` are refused
   with ``503`` + Retry-After;
6. **execute** — the leader runs ``engine.run_one`` on its own thread,
   once one of ``exec_workers`` execution slots is free; everyone
   waiting on the shared future gets the one outcome.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.engine import DiskCache, Engine, JobRegistry, default_registry
from repro.errors import EngineError, JobTimeoutError, UnknownJobError
from repro.serve.coalesce import Coalescer, Execution
from repro.serve.config import ServeConfig
from repro.serve.events import EventLog
from repro.serve.hot import HotLRU
from repro.serve.limits import RateLimiter

__all__ = ["Broker", "ServeHTTPError"]


class ServeHTTPError(Exception):
    """An error with an HTTP status, raised by the broker, mapped by the server."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class Broker:
    """Shared execution pipeline behind the HTTP front end."""

    def __init__(self, config: ServeConfig, registry: JobRegistry | None = None) -> None:
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        disk = None if config.no_cache else DiskCache(config.cache_dir)
        self.hot: HotLRU | None = (
            HotLRU(disk, config.hot_entries) if config.hot_entries > 0 else None
        )
        engine_cache = self.hot if self.hot is not None else disk
        self.engine = Engine(
            registry=self.registry,
            cache=engine_cache,
            jobs=config.jobs,
            timeout=config.timeout,
            on_timeout=config.on_timeout,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
        )
        self.limiter = RateLimiter(config.rate, config.burst, config.max_clients)
        self.coalescer = Coalescer()
        #: At most ``exec_workers`` engine runs at once; further leaders wait.
        self._slots = threading.BoundedSemaphore(config.exec_workers)
        self._run_log_path = (
            Path(config.run_log_path) if config.run_log_path is not None else None
        )
        if self._run_log_path is not None:
            self._run_log_path.parent.mkdir(parents=True, exist_ok=True)
        #: Guards the counters, the run history, and the coalesce-or-admit step.
        self._lock = threading.Lock()
        self._runs: OrderedDict[str, EventLog] = OrderedDict()
        self.started_at = time.monotonic()
        self.counters: dict[str, int] = {
            "requests": 0,
            "executed": 0,
            "coalesced": 0,
            "hot_served": 0,
            "errors": 0,
            "timeouts": 0,
            "rejected_rate": 0,
            "rejected_busy": 0,
            "bad_requests": 0,
        }

    def _count(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1

    # ------------------------------------------------------------------
    # The request pipeline
    # ------------------------------------------------------------------

    def submit(
        self, job_name: str, params: dict[str, Any], client_id: str
    ) -> dict[str, Any]:
        """Serve one job request; returns the JSON response payload.

        Runs on the caller's thread, which executes the job itself when
        it leads.  Raises :class:`ServeHTTPError` for every refusal
        (429/503) and failure (400/404/500/504).
        """
        self._count("requests")
        granted, retry_after = self.limiter.check(client_id)
        if not granted:
            self._count("rejected_rate")
            raise ServeHTTPError(
                429, f"rate limit exceeded for client {client_id!r}", retry_after
            )
        try:
            job = self.registry.get(job_name)
            resolved = job.resolve_params(params)
        except UnknownJobError as exc:
            self._count("bad_requests")
            raise ServeHTTPError(404, str(exc)) from exc
        except EngineError as exc:
            self._count("bad_requests")
            raise ServeHTTPError(400, str(exc)) from exc
        key = job.key(resolved)

        entry = self.hot.peek(job_name, key) if self.hot is not None else None
        if entry is not None:
            self._count("hot_served")
            return self._hot_payload(job_name, resolved, entry)

        log: EventLog | None = None
        with self._lock:
            execution = self.coalescer.get(job_name, key)
            if execution is not None:
                self.counters["coalesced"] += 1
            elif self.hot is not None and (
                # A leader that finished since the peek above stored its
                # result before it left the in-flight table.
                (entry := self.hot.peek(job_name, key)) is not None
            ):
                self.counters["hot_served"] += 1
            elif len(self.coalescer) >= self.config.queue_limit:
                self.counters["rejected_busy"] += 1
                raise ServeHTTPError(
                    503,
                    f"server busy: {len(self.coalescer)} executions in flight "
                    f"(queue_limit={self.config.queue_limit})",
                    retry_after=1.0,
                )
            else:
                log = EventLog(path=self._run_log_path)
                self._remember_run(log)
                execution = self.coalescer.begin(job_name, key, log.run_id)
        if entry is not None:
            return self._hot_payload(job_name, resolved, entry)
        if log is None:
            return {**execution.future.result(), "coalesced": True}
        self._execute(execution, job_name, resolved, log)
        return execution.future.result()

    @staticmethod
    def _hot_payload(
        job_name: str, resolved: dict[str, Any], entry: dict[str, Any]
    ) -> dict[str, Any]:
        return {
            "job": job_name,
            "params": resolved,
            "result": entry["result"],
            "cache": "hot",
            "coalesced": False,
            "run_id": None,
            "wall_ms": 0.0,
        }

    def _execute(
        self,
        execution: Execution,
        job_name: str,
        resolved: dict[str, Any],
        log: EventLog,
    ) -> None:
        """Leader body: one engine run, one shared outcome."""
        try:
            with self._slots:
                result = self.engine.run_one(job_name, resolved, run_log=log)
        except JobTimeoutError as exc:
            self._count("timeouts")
            log.finish_error(str(exc))
            self.coalescer.finish(
                execution, error=ServeHTTPError(504, f"job timed out: {exc}")
            )
        except Exception as exc:  # JobFailedError and anything unforeseen
            self._count("errors")
            log.finish_error(str(exc))
            self.coalescer.finish(
                execution, error=ServeHTTPError(500, f"job failed: {exc}")
            )
        else:
            self._count("executed")
            self.coalescer.finish(
                execution,
                result={
                    "job": job_name,
                    "params": resolved,
                    "result": result,
                    "cache": self._root_cache_state(log, job_name),
                    "coalesced": False,
                    "run_id": log.run_id,
                    "wall_ms": self._run_wall_ms(log),
                },
            )

    @staticmethod
    def _root_cache_state(log: EventLog, job_name: str) -> str:
        """The cache state of the root request's record (hit/miss/off)."""
        for record in reversed(log.records):
            if record.job == job_name:
                return record.cache
        return "miss"

    @staticmethod
    def _run_wall_ms(log: EventLog) -> float:
        for payload in reversed(log.events):
            if payload.get("kind") == "run_summary":
                return payload["wall_ms"]
        return 0.0

    # ------------------------------------------------------------------
    # Run history and stats
    # ------------------------------------------------------------------

    def _remember_run(self, log: EventLog) -> None:
        """Keep ``log`` addressable for ``/events``; call under ``_lock``."""
        self._runs[log.run_id] = log
        while len(self._runs) > self.config.run_history:
            self._runs.popitem(last=False)

    def get_run(self, run_id: str) -> EventLog | None:
        with self._lock:
            return self._runs.get(run_id)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counters = dict(self.counters)
            tracked_runs = len(self._runs)
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "counters": counters,
            "inflight": self.coalescer.inflight(),
            "coalescer": {
                "started": self.coalescer.started,
                "coalesced": self.coalescer.coalesced,
            },
            "hot": self.hot.stats(count_only=True) if self.hot is not None else None,
            "limits": self.limiter.stats(),
            "tracked_runs": tracked_runs,
            "engine": {
                "jobs": self.engine.jobs,
                "timeout": self.engine.timeout,
                "on_timeout": self.engine.on_timeout,
                "max_retries": self.engine.max_retries,
            },
        }
