"""Shared pieces of the benchmark: paths, statistics, tracing, provenance.

Nothing here imports the program under test at module load; the
workload modules import ``repro`` once ``run.py`` has put ``src`` on the
path, so a checkout without ``src/repro`` fails before any result line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Index (ascending order) of the highest sample with 10 samples beyond it."""
    return max(0, n - 11)


def tail_percentile(n: int) -> float:
    """The percentile :func:`tail_rank` picks for ``n`` samples."""
    return 100.0 * max(0, n - 10) / n if n else 0.0


def p50_and_tail(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    return statistics.median(ordered), ordered[tail_rank(len(ordered))]


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Outcome of one measured pass
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one pass over a workload's fixed work produced.

    ``latencies_ms`` holds one entry per attempted op, failed ones
    included (a failed op still took time); ``failures`` names each
    failed op or check.  ``layers`` is filled by traced passes only.

    When the work repeats a set of distinct ops, ``op_keys`` names the
    distinct op each latency repeats, and the timings are taken over each
    op's best repetition (see :meth:`timing`).  ``setup_s`` holds every
    set-up the run made; the metric is the best of them, for the same
    reason.  An ``open_loop`` workload's throughput is its goodput over
    the timed wall time, whatever its latencies.
    """

    latencies_ms: list[float]
    wall_s: float
    failed: int
    failures: list[str]
    peak_rss_mb: float
    setup_s: list[float] = field(default_factory=list)
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    op_keys: list[Any] | None = None
    open_loop: bool = False

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def timing(self) -> tuple[list[float], float]:
        """The latency samples the percentiles use, and the seconds the
        throughput is counted over.

        Distinct ops: every latency, and the timed wall time.  Repeated
        ops: each distinct op's least latency, and (closed loop) the time
        the whole work takes with every op at its least latency.  The host
        runs at two speeds in phases of seconds to minutes; a repeated
        op's best time is its cost at the fast speed.
        """
        if self.op_keys is None:
            return self.latencies_ms, self.wall_s
        best: dict[Any, float] = {}
        for key, ms in zip(self.op_keys, self.latencies_ms):
            best[key] = min(best.get(key, ms), ms)
        if self.open_loop:
            return list(best.values()), self.wall_s
        return list(best.values()), sum(best[key] for key in self.op_keys) / 1e3

    def end_to_end(self) -> dict[str, float]:
        samples, busy_s = self.timing()
        p50, tail = p50_and_tail(samples)
        return {
            "setup_s": min(self.setup_s) if self.setup_s else float("nan"),
            "ops_per_s": (self.attempted - self.failed) / busy_s,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def all_samples(self) -> dict[str, float]:
        """Throughput over the timed wall time and percentiles over every
        latency, reported beside best-of-repeats timings for reference."""
        p50, tail = p50_and_tail(self.latencies_ms)
        return {
            "ops_per_s": (self.attempted - self.failed) / self.wall_s,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
        }


# ----------------------------------------------------------------------
# Tracing: spans around calls into the program, recorded from outside it
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder with per-name call counts and self time.

    Every span has a name, start and end (``perf_counter_ns``), the id of
    the span open when it started (its parent, ``-1`` at top level) and
    the op id current at the time.  Aggregates are kept for every span;
    individual spans are stored up to ``MAX_SPANS`` so a run with millions
    of kernel calls keeps bounded memory (``dropped`` counts the rest).
    Self time is a span's duration minus the time its child spans cover.
    """

    MAX_SPANS = 200_000

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.dropped = 0
        self.op_id = -1
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]
        self._next_id = 0
        #: Wrappers installed; 0 means the pass ran only untraced code.
        self.wrapped = 0

    def begin(self) -> None:
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def end(self, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, start, child = self._stack.pop()
        parent = -1
        if self._stack:
            self._stack[-1][2] += end - start
            parent = self._stack[-1][0]
        self._record(name, span_id, parent, start, end, child)

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a finished top-level span timed elsewhere (client-side spans)."""
        self._record(name, self._next_id, -1, start, end, 0)
        self._next_id += 1

    def _record(
        self, name: str, span_id: int, parent: int, start: int, end: int, child: int
    ) -> None:
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((name, span_id, parent, self.op_id, start, end))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.wrapped += 1

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name)

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper for the rest of the process."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def busy_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.calls)
        body = {
            **header,
            "span_fields": ["name", "id", "parent", "op", "start_ns", "end_ns"],
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped,
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "busy_s": self.total_ns[name] / 1e9,
                    "self_s": self.self_ns[name] / 1e9,
                }
                for name in names
            },
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: int, work: dict) -> dict:
    from repro.backend import backend_info

    # Only a checkout that is itself a git work tree has a sha of its own;
    # asking git from a plain copy could report an enclosing repository.
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "backend": backend_info(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work": work,
    }
