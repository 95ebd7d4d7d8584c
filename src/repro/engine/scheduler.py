"""The DAG scheduler: expand, cache-check, fan out, record.

:class:`Engine` takes a batch of :class:`~repro.engine.registry.Request`
objects, expands their dependency closure into a DAG, and executes it:

* **serial** (``jobs=1``, the default and the fallback): dependencies-first
  in a deterministic topological order, in-process;
* **parallel** (``jobs=N``): independent jobs run concurrently on a
  ``ProcessPoolExecutor``; a job is submitted the moment its last
  dependency finishes.  Worker processes resolve job functions by module
  reference, so only plain data crosses the process boundary.

Before executing any job the engine consults the content-addressed disk
cache; hits are served in the parent without touching the pool.  Every
executed or cache-served job appends a structured record to the run log
(see :mod:`repro.engine.artifacts`).

Determinism: each job result gets exactly one canonical encoding
(:func:`~repro.engine.cache.encode_result`: sorted keys, no whitespace),
made where the job ran.  The recording process decodes that text once
for the value it stores, returns and hands to dependents; the cache
entry embeds the same text, and the run record's ``result_bytes`` is its
length.  A result therefore looks exactly the same whether it was
computed serially, computed in a worker, or read back from the cache,
which is what makes serial and parallel sweeps byte-identical.

Failure semantics
-----------------

* **Job errors.**  A job that raises is retried up to ``max_retries``
  times with exponential backoff (``retry_backoff * 2**(attempt - 1)``
  seconds between attempts); every execution appends its own run record
  carrying the 1-based ``attempt``.  Once the budget is exhausted the
  run aborts with :class:`~repro.errors.JobFailedError` (the original
  exception attached as ``__cause__``).  ``max_retries=0`` (the default)
  preserves fail-fast semantics.  The engine injects the reserved
  ``_attempt`` parameter into the dict a job function receives, so
  attempt-aware jobs (``debug.flaky``, ``debug.crash``) behave
  identically under serial and parallel retries; ``_attempt`` never
  participates in cache keys or run records.
* **Worker deaths** (``BrokenProcessPool``: a worker killed by a signal,
  the OOM killer, or ``os._exit``).  The broken pool is replaced with a
  fresh one and every job that was in flight is charged one attempt and
  retried under the same budget — the engine cannot attribute a worker
  death to a single job, so all of them pay.
* **Timeouts** (parallel mode only; a serial run executes in-process
  where Python offers no safe preemption).  *Every* scheduler iteration
  sweeps the running jobs against their deadlines — including
  iterations in which sibling jobs completed — so a hung job is killed
  within one tick of ``timeout`` even in a busy pool.  Under
  ``on_timeout="raise"`` (the default) the first overdue job records
  outcome ``"timeout"``, the pool is torn down, and the run aborts with
  :class:`~repro.errors.JobTimeoutError`.  Under ``on_timeout="skip"``
  only the worker running the overdue job is terminated: the job is
  recorded with outcome ``"timeout"``, its transitive dependents are
  recorded with outcome ``"skipped"``, and the run continues — in-flight
  siblings that the worker kill takes down with the pool are resubmitted
  *without* being charged an attempt, and completed siblings keep their
  results.  Skipped requests are simply absent from :meth:`Engine.run`'s
  result mapping.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import time
from collections import deque
from collections.abc import Iterable, Mapping
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import count
from queue import Empty
from typing import Any

from repro.backend import (
    _clear_context_backend,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.engine.artifacts import RunLog, RunRecord
from repro.engine.cache import DiskCache, encode_result
from repro.engine.jobs import default_registry
from repro.engine.keys import canonical_params
from repro.engine.registry import Job, JobRegistry, Request
from repro.errors import EngineError, JobFailedError, JobTimeoutError

__all__ = ["Engine", "in_worker"]

#: Set by :func:`_init_worker` inside pool processes; lets fault-injection
#: jobs refuse to ``os._exit`` the user's own interpreter.
_IN_WORKER = False

#: The worker-side handle of the parent's task-event queue (``None`` when
#: the engine runs without a timeout and never needs to attribute a pid).
_TASK_EVENTS: Any = None


def _init_worker(
    path_entries: list[str], task_events: Any = None, backend: str | None = None
) -> None:
    """Make the parent's import path (and event queue) available in workers.

    ``backend`` pins the worker's kernel backend (:mod:`repro.backend`) to
    the one the parent resolved, so a job computes with exactly the
    backend its run record claims — even when the parent was selected via
    a context override that a forked worker would not otherwise see.

    The pin *re-probes* availability in the worker: a build-dependent
    tier (the ``cext`` compiled artifact, an importable numpy) can exist
    in the parent but not in a worker's environment — e.g. a spawn
    context importing from a tree whose extension was never built.  A
    worker that cannot honour the pin downgrades to the best available
    tier instead of dying in its initializer (which would brick the
    whole pool); the run records of everything it executes carry the
    backend that *actually* ran, not the one the parent asked for.
    """
    global _IN_WORKER, _TASK_EVENTS
    _IN_WORKER = True
    _TASK_EVENTS = task_events
    _reset_inherited_signals()
    if backend is not None:
        try:
            set_backend(backend)
        except ValueError:
            # Pin to a concrete available tier (not None: the inherited
            # REPRO_BACKEND could name the same unavailable backend), and
            # drop the fork-inherited use_backend context, which outranks
            # the process pin and still names the unavailable backend.
            set_backend(resolve_backend(None))
            _clear_context_backend()
    for entry in reversed(path_entries):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _reset_inherited_signals() -> None:
    """Restore default signal handling in a freshly forked worker.

    A parent serving jobs (``repro serve`` on the main thread) installs
    Python-level SIGTERM/SIGINT handlers, and a parent may have set a
    wakeup fd; a forked worker inherits both.  Left in place,
    ``process.terminate()`` no longer kills the worker (the inherited
    handler swallows SIGTERM) and — worse — the handler acts on state
    *shared with the parent*: the server's listening socket, or the
    wakeup pipe a parent event loop reads as "I was signalled".  Workers
    must die on SIGTERM and never touch the parent's resources.
    """
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):  # non-main thread or unsupported platform
        pass


def in_worker() -> bool:
    """True inside an engine worker process (used by ``debug.crash``)."""
    return _IN_WORKER


def _call_job(
    fn,
    params: dict[str, Any],
    deps: list[Any],
    attempt: int = 1,
    task_id: int | None = None,
) -> tuple[str, str]:
    """Worker-side entry point: announce the pid, run the job, encode.

    The ``(pid, task_id)`` event lets the parent terminate exactly the
    worker running an overdue job; the reserved ``_attempt`` parameter
    lets attempt-aware jobs observe which retry they are.

    Returns ``(backend_name, encoded)``: the name of the backend that
    *actually* computed the result travels back with it, so the parent's
    run record stays truthful even when a worker's initializer downgraded
    an unavailable pinned backend.  ``encoded`` is the result's canonical
    JSON text; a job that returns data that is not JSON fails here, not
    at cache-write time.
    """
    if task_id is not None and _TASK_EVENTS is not None:
        try:
            _TASK_EVENTS.put((os.getpid(), task_id))
        except Exception:
            pass  # pid attribution is best effort, never a job failure
    call_params = dict(params)
    call_params["_attempt"] = attempt
    return get_backend().name, encode_result(fn(call_params, deps))


def _abort_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool without waiting for in-flight jobs.

    ``cancel_futures`` only drops *queued* work; a job already running
    (e.g. one that exceeded its timeout) would otherwise block the
    executor's exit indefinitely, so the worker processes are terminated.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        process.terminate()


def _kill_worker(pool: ProcessPoolExecutor, pid: int) -> bool:
    """Terminate the single worker ``pid``; the survivors keep running.

    The targeted successor of :func:`_abort_pool` for ``on_timeout="skip"``:
    only the process running the overdue job is killed.  (The executor
    still marks itself broken afterwards, so the caller is responsible
    for replacing the pool and resubmitting interrupted siblings.)
    Returns False when ``pid`` is not one of the pool's workers.
    """
    process = (getattr(pool, "_processes", None) or {}).get(pid)
    if process is None:
        return False
    process.terminate()
    return True


@dataclass(slots=True)
class _InFlight:
    """Parent-side bookkeeping for one submitted job execution.

    ``deadline`` stays ``inf`` until the worker's start event arrives —
    a job queued behind a full pool must not burn its timeout budget
    while waiting for a worker.
    """

    request: Request
    key: str
    attempt: int
    task_id: int
    generation: int
    started_monotonic: float
    started_epoch: float
    deadline: float = float("inf")


class Engine:
    """Executes job requests over a DAG, a process pool, and a disk cache.

    ``backend`` optionally pins the kernel backend (:mod:`repro.backend`)
    for every job the engine runs — serial jobs execute under a
    ``use_backend`` scope and pool workers are initialised with the same
    resolved backend; each run record carries the backend that actually
    ran.  ``backend=None`` (the default) follows the ambient selection
    (``REPRO_BACKEND`` or ``set_backend``).

    >>> engine = Engine(cache=None)
    >>> engine.run_one("debug.echo", {"value": 41})
    41
    """

    def __init__(
        self,
        registry: JobRegistry | None = None,
        cache: DiskCache | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        run_log: RunLog | None = None,
        on_timeout: str = "raise",
        max_retries: int = 0,
        retry_backoff: float = 0.1,
        backend: str | None = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        if backend is not None:
            try:
                resolve_backend(backend)
            except ValueError as exc:
                raise EngineError(str(exc)) from exc
        if on_timeout not in ("raise", "skip"):
            raise EngineError(
                f"on_timeout must be 'raise' or 'skip', got {on_timeout!r}"
            )
        if max_retries < 0:
            raise EngineError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise EngineError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.on_timeout = on_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.backend = backend
        self.run_log = run_log if run_log is not None else RunLog(path=None)
        self.last_summary: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_one(
        self,
        job: str,
        params: Mapping[str, Any] | None = None,
        *,
        run_log: RunLog | None = None,
    ) -> Any:
        """Run a single request (plus dependencies) and return its result.

        Raises :class:`~repro.errors.JobTimeoutError` when the request was
        timed out and dropped under ``on_timeout="skip"``.
        """
        request = Request.make(job, params)
        canonical = self._canonical(request)[0]
        results = self.run([request], run_log=run_log)
        if canonical not in results:
            raise JobTimeoutError(
                f"job {canonical.label()} timed out and was skipped "
                "(on_timeout='skip')"
            )
        return results[canonical]

    def run(
        self,
        requests: Iterable[Request],
        *,
        run_log: RunLog | None = None,
    ) -> dict[Request, Any]:
        """Execute all requests and their dependency closures.

        Returns a mapping from *canonicalised* request (defaults applied,
        parameters sorted) to its normalised result.  Under
        ``on_timeout="skip"`` requests that timed out (or depended on one
        that did) are absent from the mapping.

        ``run_log`` overrides the engine's log *for this run only*.  All
        other per-run state is local to the call, so one shared engine can
        serve concurrent ``run`` calls from multiple threads as long as
        each caller passes its own log (the serve broker does exactly
        that); without an override, concurrent callers interleave records
        in the engine-wide log.
        """
        log = run_log if run_log is not None else self.run_log
        started = time.monotonic()
        roots, order, dep_lists, jobs_by_request = self._expand(requests)
        results: dict[Request, Any] = {}
        with use_backend(self.backend):
            if self.jobs == 1 or not order:
                self._run_serial(order, dep_lists, jobs_by_request, results, log)
            else:
                self._run_parallel(order, dep_lists, jobs_by_request, results, log)
        wall_ms = (time.monotonic() - started) * 1000.0
        self.last_summary = log.summarize(wall_ms, self.jobs)
        return results

    def map(
        self,
        job: str,
        param_sets: Iterable[Mapping[str, Any] | None],
        *,
        run_log: RunLog | None = None,
    ) -> list[Any]:
        """Run one job over many parameter sets; results in input order.

        The stream-chunk fan-out primitive: ``extract`` (and any other
        shard-parallel workload) hands the scheduler a flat batch of
        same-job requests and gets results aligned with its inputs.
        Requests that were skipped under ``on_timeout="skip"`` come back
        as ``None``; duplicate parameter sets coalesce into one
        execution and share the result.
        """
        requests = [Request.make(job, params) for params in param_sets]
        canonical = [self._canonical(request)[0] for request in requests]
        results = self.run(requests, run_log=run_log)
        return [results.get(request) for request in canonical]

    # ------------------------------------------------------------------
    # DAG expansion
    # ------------------------------------------------------------------

    def _canonical(self, request: Request) -> tuple[Request, Job]:
        job = self.registry.get(request.job)
        resolved = job.resolve_params(request.params_dict())
        return Request(request.job, canonical_params(resolved)), job

    def _expand(
        self, requests: Iterable[Request]
    ) -> tuple[list[Request], list[Request], dict[Request, list[Request]], dict[Request, Job]]:
        """Expand the dependency closure iteratively (no recursion limit).

        Keeps the recursive version's postorder (dependencies precede
        dependents in ``order``) and its cycle-detection message, but uses
        an explicit frame stack so chains deeper than the interpreter's
        recursion limit expand fine.
        """
        dep_lists: dict[Request, list[Request]] = {}
        jobs_by_request: dict[Request, Job] = {}
        order: list[Request] = []
        roots: list[Request] = []
        visiting: list[Request] = []
        on_path: set[Request] = set()

        for top in requests:
            canonical, job = self._canonical(top)
            roots.append(canonical)
            if canonical in dep_lists:
                continue
            # One frame per open request: [request, job, declared, children, idx]
            visiting.append(canonical)
            on_path.add(canonical)
            stack: list[list[Any]] = [
                [canonical, job, job.deps(canonical.params_dict()), [], 0]
            ]
            while stack:
                frame = stack[-1]
                request, req_job, declared, children, idx = frame
                if idx < len(declared):
                    frame[4] = idx + 1
                    child, child_job = self._canonical(declared[idx])
                    if child in dep_lists:
                        children.append(child)
                        continue
                    if child in on_path:
                        cycle = (
                            " -> ".join(r.label() for r in visiting)
                            + f" -> {child.label()}"
                        )
                        raise EngineError(f"dependency cycle: {cycle}")
                    children.append(child)
                    visiting.append(child)
                    on_path.add(child)
                    stack.append(
                        [child, child_job, child_job.deps(child.params_dict()), [], 0]
                    )
                    continue
                stack.pop()
                visiting.pop()
                on_path.discard(request)
                dep_lists[request] = children
                jobs_by_request[request] = req_job
                order.append(request)  # postorder: dependencies precede dependents
        return roots, order, dep_lists, jobs_by_request

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _cache_lookup(self, job: Job, request: Request) -> tuple[str, dict[str, Any] | None]:
        """``(key, entry)``; the entry (``None`` on a miss) carries ``result``
        and ``result_bytes``, the length of the text the cache stored."""
        key = job.key(request.params_dict())
        if self.cache is None:
            return key, None
        return key, self.cache.get(job.name, key)

    def _record(
        self,
        request: Request,
        key: str,
        cache_state: str,
        outcome: str,
        wall_ms: float,
        result_bytes: int = 0,
        error: str | None = None,
        pid: int | None = None,
        started_epoch: float | None = None,
        attempt: int = 1,
        log: RunLog | None = None,
        backend: str | None = None,
    ) -> None:
        # ``backend`` is the name the worker sent back when the job ran in
        # a pool (the worker may have downgraded an unavailable pin); the
        # parent's active backend otherwise (cache hits, serial runs,
        # errors raised before the worker could send a name back).
        log = log if log is not None else self.run_log
        log.record(
            RunRecord(
                run_id=log.run_id,
                job=request.job,
                params=request.params_dict(),
                key=key,
                cache=cache_state,
                outcome=outcome,
                wall_ms=round(wall_ms, 3),
                result_bytes=result_bytes,
                started_at=started_epoch if started_epoch is not None else time.time(),
                pid=pid if pid is not None else os.getpid(),
                attempt=attempt,
                retries=self.max_retries,
                error=error,
                backend=backend if backend is not None else get_backend().name,
            )
        )

    def _store(
        self, job: Job, request: Request, key: str, result: Any, encoded: str
    ) -> None:
        if self.cache is not None:
            self.cache.put(
                job.name, key, request.params_dict(), job.fingerprint(), result, encoded
            )

    def _backoff(self, attempt: int) -> float:
        """Seconds to wait before re-running a job that failed ``attempt``."""
        return self.retry_backoff * (2 ** (attempt - 1))

    def _run_serial(
        self,
        order: list[Request],
        dep_lists: dict[Request, list[Request]],
        jobs_by_request: dict[Request, Job],
        results: dict[Request, Any],
        log: RunLog,
    ) -> None:
        for request in order:
            job = jobs_by_request[request]
            key, entry = self._cache_lookup(job, request)
            if entry is not None:
                results[request] = entry["result"]
                self._record(request, key, "hit", "ok", 0.0, entry["result_bytes"], log=log)
                continue
            deps = [results[dep] for dep in dep_lists[request]]
            attempt = 1
            while True:
                started = time.monotonic()
                started_epoch = time.time()
                try:
                    ran_backend, encoded = _call_job(
                        job.fn, request.params_dict(), deps, attempt
                    )
                except Exception as exc:
                    wall_ms = (time.monotonic() - started) * 1000.0
                    self._record(
                        request,
                        key,
                        self._miss_state(),
                        "error",
                        wall_ms,
                        error=str(exc),
                        started_epoch=started_epoch,
                        attempt=attempt,
                        log=log,
                    )
                    if attempt <= self.max_retries:
                        time.sleep(self._backoff(attempt))
                        attempt += 1
                        continue
                    raise JobFailedError(
                        f"job {request.label()} failed: {exc}", attempts=attempt
                    ) from exc
                wall_ms = (time.monotonic() - started) * 1000.0
                result = json.loads(encoded)
                results[request] = result
                self._store(job, request, key, result, encoded)
                self._record(
                    request,
                    key,
                    self._miss_state(),
                    "ok",
                    wall_ms,
                    len(encoded),
                    started_epoch=started_epoch,
                    attempt=attempt,
                    log=log,
                    backend=ran_backend,
                )
                break

    def _miss_state(self) -> str:
        return "miss" if self.cache is not None else "off"

    def _task_event_queue(self) -> Any:
        """The ``(pid, task_id)`` queue workers announce task starts on.

        Only needed to attribute a pid to an overdue job, so it is not
        created (and workers skip the per-task put) when no timeout is set.
        """
        if self.timeout is None:
            return None
        return multiprocessing.get_context().Queue()

    def _new_pool(self, task_events: Any) -> ProcessPoolExecutor:
        # Pin workers to the backend the parent resolved (env, engine
        # parameter, or context override) so records match reality.
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_init_worker,
            initargs=(list(sys.path), task_events, get_backend().name),
        )

    def _run_parallel(
        self,
        order: list[Request],
        dep_lists: dict[Request, list[Request]],
        jobs_by_request: dict[Request, Job],
        results: dict[Request, Any],
        log: RunLog,
    ) -> None:
        pending_deps: dict[Request, set[Request]] = {
            request: set(deps) for request, deps in dep_lists.items()
        }
        dependents: dict[Request, list[Request]] = {request: [] for request in order}
        for request, deps in dep_lists.items():
            for dep in set(deps):
                dependents[dep].append(request)

        ready: deque[tuple[Request, int]] = deque(
            (request, 1) for request in order if not pending_deps[request]
        )
        running: dict[Future, _InFlight] = {}
        retry_at: list[tuple[float, Request, int]] = []
        skipped: set[Request] = set()
        keys: dict[Request, str] = {}
        pid_to_task: dict[int, int] = {}
        task_to_future: dict[int, Future] = {}
        task_ids = count()
        task_events = self._task_event_queue()
        pool = self._new_pool(task_events)
        generation = 0
        # How often to wake and drain start events while a timeout is armed;
        # bounds how late a deadline can be armed or enforced.
        poll = (
            None
            if self.timeout is None
            else max(0.01, min(0.25, self.timeout / 4.0))
        )

        def settled() -> int:
            return len(results) + len(skipped)

        def drain_events() -> None:
            """Absorb worker start events: map pids and arm deadlines."""
            if task_events is None:
                return
            now = time.monotonic()
            while True:
                try:
                    pid, task_id = task_events.get_nowait()
                except Empty:
                    return
                pid_to_task[pid] = task_id
                future = task_to_future.get(task_id)
                info = running.get(future) if future is not None else None
                if info is not None and info.deadline == float("inf"):
                    info.deadline = now + self.timeout

        def replace_pool() -> None:
            nonlocal pool, generation
            pool = self._new_pool(task_events)
            generation += 1
            pid_to_task.clear()

        def mark_done(request: Request) -> None:
            for dependent in dependents[request]:
                pending_deps[dependent].discard(request)
                if not pending_deps[dependent] and dependent not in results:
                    ready.append((dependent, 1))

        def mark_skipped(origin: Request) -> None:
            """Skip ``origin`` and cascade to its transitive dependents."""
            skipped.add(origin)
            stack = list(dependents[origin])
            while stack:
                dependent = stack.pop()
                if dependent in skipped or dependent in results:
                    continue
                skipped.add(dependent)
                self._record(
                    dependent,
                    jobs_by_request[dependent].key(dependent.params_dict()),
                    self._miss_state(),
                    "skipped",
                    0.0,
                    error=f"dependency {origin.label()} timed out",
                    log=log,
                )
                stack.extend(dependents[dependent])

        def submit(request: Request, attempt: int) -> None:
            job = jobs_by_request[request]
            if attempt == 1 and request not in keys:
                key, entry = self._cache_lookup(job, request)
                keys[request] = key
                if entry is not None:
                    results[request] = entry["result"]
                    self._record(
                        request, key, "hit", "ok", 0.0, entry["result_bytes"], log=log
                    )
                    mark_done(request)
                    return
            key = keys[request]
            deps = [results[dep] for dep in dep_lists[request]]
            task_id = next(task_ids)
            future = pool.submit(
                _call_job,
                job.fn,
                request.params_dict(),
                deps,
                attempt,
                task_id if task_events is not None else None,
            )
            running[future] = _InFlight(
                request=request,
                key=key,
                attempt=attempt,
                task_id=task_id,
                generation=generation,
                started_monotonic=time.monotonic(),
                started_epoch=time.time(),
            )
            task_to_future[task_id] = future

        def finish(future: Future, info: _InFlight) -> None:
            task_to_future.pop(info.task_id, None)
            job = jobs_by_request[info.request]
            wall_ms = (time.monotonic() - info.started_monotonic) * 1000.0
            try:
                ran_backend, encoded = future.result()
            except BrokenProcessPool as exc:
                self._record(
                    info.request,
                    info.key,
                    self._miss_state(),
                    "error",
                    wall_ms,
                    error=f"worker died: {exc}",
                    started_epoch=info.started_epoch,
                    attempt=info.attempt,
                    log=log,
                )
                if info.attempt > self.max_retries:
                    _abort_pool(pool)
                    raise JobFailedError(
                        f"job {info.request.label()} failed in worker after "
                        f"{info.attempt} attempt(s): worker died ({exc})",
                        attempts=info.attempt,
                    ) from exc
                if info.generation == generation:
                    _abort_pool(pool)
                    replace_pool()
                retry_at.append(
                    (
                        time.monotonic() + self._backoff(info.attempt),
                        info.request,
                        info.attempt + 1,
                    )
                )
            except Exception as exc:
                self._record(
                    info.request,
                    info.key,
                    self._miss_state(),
                    "error",
                    wall_ms,
                    error=str(exc),
                    started_epoch=info.started_epoch,
                    attempt=info.attempt,
                    log=log,
                )
                if info.attempt > self.max_retries:
                    _abort_pool(pool)
                    raise JobFailedError(
                        f"job {info.request.label()} failed in worker: {exc}",
                        attempts=info.attempt,
                    ) from exc
                retry_at.append(
                    (
                        time.monotonic() + self._backoff(info.attempt),
                        info.request,
                        info.attempt + 1,
                    )
                )
            else:
                result = json.loads(encoded)
                results[info.request] = result
                self._store(job, info.request, info.key, result, encoded)
                self._record(
                    info.request,
                    info.key,
                    self._miss_state(),
                    "ok",
                    wall_ms,
                    len(encoded),
                    started_epoch=info.started_epoch,
                    attempt=info.attempt,
                    log=log,
                    backend=ran_backend,
                )
                mark_done(info.request)

        def sweep_deadlines(now: float) -> None:
            """Time out every overdue job.  Runs on *every* loop iteration.

            (The historical bug: this sweep only ran when ``wait()``
            returned an empty ``done`` set, so a hung job was never timed
            out while sibling jobs kept completing.)
            """
            overdue = [
                future
                for future, info in running.items()
                if now > info.deadline and not future.done()
            ]
            if not overdue:
                return
            if self.on_timeout == "raise":
                info = running[overdue[0]]
                self._record(
                    info.request,
                    info.key,
                    self._miss_state(),
                    "timeout",
                    (now - info.started_monotonic) * 1000.0,
                    error=f"exceeded {self.timeout}s",
                    started_epoch=info.started_epoch,
                    attempt=info.attempt,
                    log=log,
                )
                _abort_pool(pool)
                raise JobTimeoutError(
                    f"job {info.request.label()} exceeded the per-job timeout "
                    f"of {self.timeout}s"
                )
            drain_events()
            must_replace = False
            for future in overdue:
                info = running.pop(future)
                self._record(
                    info.request,
                    info.key,
                    self._miss_state(),
                    "timeout",
                    (now - info.started_monotonic) * 1000.0,
                    error=f"exceeded {self.timeout}s (worker killed, on_timeout='skip')",
                    started_epoch=info.started_epoch,
                    attempt=info.attempt,
                    log=log,
                )
                mark_skipped(info.request)
                if future.cancel():
                    continue  # still queued: nothing is running it
                pid = next(
                    (p for p, t in pid_to_task.items() if t == info.task_id), None
                )
                if pid is None or not _kill_worker(pool, pid):
                    _abort_pool(pool)  # untracked worker: replace the pool wholesale
                must_replace = True
            if not must_replace:
                return
            # Killing a worker breaks the executor, which takes the
            # in-flight siblings down with it.  Salvage the ones that
            # finished in the window; resubmit the rest with their attempt
            # unchanged — the engine interrupted them, they did not fail.
            for future in list(running):
                info = running.pop(future)
                if future.done() and not future.cancelled():
                    exc = future.exception()
                    if exc is None or not isinstance(exc, BrokenProcessPool):
                        finish(future, info)
                        continue
                ready.append((info.request, info.attempt))
            pool.shutdown(wait=False, cancel_futures=True)
            replace_pool()

        try:
            while settled() < len(order):
                while ready:
                    request, attempt = ready.popleft()
                    if request in results or request in skipped:
                        continue
                    submit(request, attempt)
                if settled() >= len(order):
                    break
                now = time.monotonic()
                due = [item for item in retry_at if item[0] <= now]
                if due:
                    retry_at[:] = [item for item in retry_at if item[0] > now]
                    for _, request, attempt in due:
                        ready.append((request, attempt))
                    continue
                if not running:
                    if retry_at:
                        time.sleep(max(0.0, min(t for t, _, _ in retry_at) - now))
                        continue
                    unfinished = [
                        r.label()
                        for r in order
                        if r not in results and r not in skipped
                    ]
                    raise EngineError(
                        f"scheduler stalled with unfinished jobs: {unfinished}"
                    )
                drain_events()
                tick = min(info.deadline for info in running.values())
                tick = min(
                    tick, min((t for t, _, _ in retry_at), default=float("inf"))
                )
                wait_for = None
                if tick != float("inf"):
                    wait_for = max(0.0, tick - now) + 0.01
                if poll is not None:
                    # Keep draining start events so deadlines get armed even
                    # while no sibling completes and no deadline is near.
                    wait_for = poll if wait_for is None else min(wait_for, poll)
                done, _ = wait(running, timeout=wait_for, return_when=FIRST_COMPLETED)
                for future in done:
                    info = running.pop(future, None)
                    if info is not None:
                        finish(future, info)
                sweep_deadlines(time.monotonic())
        except BaseException:
            _abort_pool(pool)
            raise
        else:
            pool.shutdown(wait=True, cancel_futures=True)
        finally:
            if task_events is not None:
                task_events.close()
