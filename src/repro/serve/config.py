"""Configuration for the job service (:mod:`repro.serve`).

One frozen-ish dataclass carries every tunable of the server stack —
network endpoint, engine execution policy, hot-cache size, admission and
rate limits, and drain behaviour — so tests and the CLI construct servers
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import EngineError

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Every knob of a :class:`~repro.serve.server.ReproServer`.

    Engine policy (``jobs``/``timeout``/``on_timeout``/``max_retries``/
    ``retry_backoff``) is passed straight to the shared
    :class:`~repro.engine.Engine`.  Note the engine's documented
    limitation: per-job timeouts are enforced only in parallel mode, so a
    server that should honour ``timeout`` needs ``jobs >= 2``.

    ``rate``/``burst`` configure the per-client token bucket (``rate=None``
    disables rate limiting); ``queue_limit`` bounds concurrently admitted
    *distinct* executions (coalesced followers ride for free);
    ``exec_workers`` is the most executions running at once — each runs
    on the connection thread that read its request, and an admitted
    leader beyond the bound waits for a free slot.
    """

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = bind an ephemeral port (read it back after start)

    # --- engine policy -------------------------------------------------
    cache_dir: str | Path | None = None
    no_cache: bool = False
    jobs: int = 1
    timeout: float | None = None
    on_timeout: str = "raise"
    max_retries: int = 0
    retry_backoff: float = 0.1
    run_log_path: str | Path | None = None  #: JSONL sink shared by all runs

    # --- hot LRU -------------------------------------------------------
    hot_entries: int = 1024  #: 0 disables the in-memory layer

    # --- admission / rate limiting ------------------------------------
    queue_limit: int = 64
    exec_workers: int = 8
    rate: float | None = None  #: tokens/second per client (None = unlimited)
    burst: int = 20  #: token-bucket capacity per client
    max_clients: int = 1024  #: distinct client buckets kept (LRU evicted)

    # --- streaming / lifecycle ----------------------------------------
    keepalive_idle_s: float = 30.0  #: idle keep-alive connections are closed
    stream_timeout_s: float = 60.0  #: cap on one /runs/<id>/events stream
    drain_grace_s: float = 30.0  #: graceful-shutdown budget for in-flight work
    run_history: int = 256  #: finished runs kept addressable for /events
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise EngineError(f"port must be in [0, 65535], got {self.port}")
        if self.jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {self.jobs}")
        if self.on_timeout not in ("raise", "skip"):
            raise EngineError(
                f"on_timeout must be 'raise' or 'skip', got {self.on_timeout!r}"
            )
        if self.queue_limit < 1:
            raise EngineError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.exec_workers < 1:
            raise EngineError(f"exec_workers must be >= 1, got {self.exec_workers}")
        if self.burst < 1:
            raise EngineError(f"burst must be >= 1, got {self.burst}")
        if self.rate is not None and self.rate <= 0:
            raise EngineError(f"rate must be > 0 or None, got {self.rate}")
        if self.hot_entries < 0:
            raise EngineError(f"hot_entries must be >= 0, got {self.hot_entries}")
