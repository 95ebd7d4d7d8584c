"""repro.serve — the multi-tenant job service over the engine.

The engine (registry + DAG scheduler + content-addressed cache) executes
one request batch per process; this subsystem turns it into a
long-running service surface:

* a **thread-per-connection HTTP/1.1 server** with JSON request/response
  bodies and chunked-JSONL event streams (:mod:`repro.serve.server`) —
  stdlib only; a cold job runs on the thread that read its request;
* a **request broker** that validates against the registry, rate-limits
  per client, coalesces identical in-flight requests into one execution,
  and drives a shared thread-safe :class:`~repro.engine.Engine`
  (:mod:`repro.serve.broker`, :mod:`repro.serve.coalesce`,
  :mod:`repro.serve.limits`);
* a **shared hot LRU** in front of the disk cache so repeat hits never
  touch disk (:mod:`repro.serve.hot`);
* **run-log event streaming** per execution (:mod:`repro.serve.events`);
* **clients** and the ``debug.storm`` load harness
  (:mod:`repro.serve.client`, :mod:`repro.serve.storm`).

Quickstart::

    from repro.serve import ReproServer, ServeConfig, ServeClient

    server = ReproServer(ServeConfig(no_cache=True)).start()
    client = ServeClient(server.config.host, server.port)
    print(client.run("certificate", {"n": 64}).data["result"]["margin"])
    server.stop()

``python -m repro serve`` is a thin front end over exactly this API;
see docs/SERVE.md.
"""

from repro.serve.broker import Broker, ServeHTTPError
from repro.serve.client import AsyncServeClient, ServeClient, ServeResult
from repro.serve.coalesce import Coalescer, Execution
from repro.serve.config import ServeConfig
from repro.serve.events import EventLog
from repro.serve.hot import HotLRU
from repro.serve.limits import RateLimiter, TokenBucket
from repro.serve.server import ReproServer
from repro.serve.storm import run_storm

__all__ = [
    "ServeConfig",
    "ReproServer",
    "Broker",
    "ServeHTTPError",
    "Coalescer",
    "Execution",
    "EventLog",
    "HotLRU",
    "RateLimiter",
    "TokenBucket",
    "ServeClient",
    "AsyncServeClient",
    "ServeResult",
    "run_storm",
]
