"""``serve-mixed``: open-loop traffic against ``python -m repro serve``.

The server runs as its own process with its default engine (``--jobs 1``)
and a fresh ``--cache-dir`` under ``perfbench/out``.  One generator
process sends a seeded schedule at a fixed rate over at most two
keep-alive connections (one thread each; a request goes out on whichever
connection is free once it is due).  A run replays the schedule in
``ROUNDS`` rounds, each against a freshly started server, and takes each
request's best round.  The schedule mixes

* hot repeats of keys warmed at set-up, answered from the hot LRU, and
* cold requests with fresh parameters for ``comm.cover.solve``,
  ``extract.scan``, ``automata.count``, ``certificate`` and
  ``sizes.row``, a few of them sent as simultaneous identical pairs so
  the coalescer has work.

Rate and cold share keep the server mostly idle, which keeps the median
request out of the queue.  Every latency is measured from the request's
due time, so a stalled generator or server shows up in the next
requests, and the generator's own lateness is reported.  The server is
observed from outside only: client timings, the payload's ``wall_ms``
and ``cache``, ``/stats`` deltas and ``/proc/<pid>``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from itertools import combinations
from typing import Any

from common import OUT, ROOT, SRC, Outcome, Tracer, p50_and_tail

RATE = 10.0  #: requests due per second
COLD_SHARE = 0.85
PAIR_EVERY = 10  #: every PAIR_EVERY-th cold request of a family goes out as a pair
CONNECTIONS = 2
LATENCY_LIMIT_MS = 1000.0
#: A run replays its schedule this many times, each time against a freshly
#: started server, and a request's latency is its best replay: the host
#: runs at two speeds in phases of seconds to minutes (``README.md``).
ROUNDS = 4
#: Every round starts a server; ``setup_s`` is the best start.
SETUP_REPS = ROUNDS
NODE_BUDGET = 200_000
STAT_COUNTERS = (
    "requests",
    "hot_served",
    "executed",
    "coalesced",
    "errors",
    "rejected_busy",
    "rejected_rate",
)
COLD_JOBS = ("comm.cover.solve", "extract.scan", "automata.count", "certificate", "sizes.row")
#: Cold requests per family in each cycle of 20, sent in seeded order.  The
#: ~13 ms extract scans are the largest group, so the median request is a
#: cold scan rather than a point on the boundary between two families.
#: Most of a cold scan's time is the server generating its 500 seeded
#: documents (``StreamSpec``), not the DFA scan, which is already compiled.
COLD_CYCLE = (
    ["extract.scan"] * 8
    + ["comm.cover.solve"] * 3
    + ["automata.count"] * 3
    + ["certificate"] * 3
    + ["sizes.row"] * 3
)
_SCAN = {"c": 4, "w": 2, "columns": [1, 3], "relation": "match"}
HOT_KEYS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("certificate", {"n": 64}),
    ("certificate", {"n": 1024}),
    ("sizes.row", {"n": 64}),
    ("sizes.row", {"n": 512}),
    ("comm.cover.solve", {"matrix": "intersection:4", "mode": "disjoint"}),
    ("comm.cover.solve", {"matrix": "intersection:5", "mode": "disjoint"}),
    ("comm.cover.solve", {"matrix": "disjointness:3", "mode": "cover"}),
    ("automata.count", {"n": 4, "length": 16}),
    ("automata.count", {"n": 5, "length": 24}),
    ("extract.scan", {**_SCAN, "n_docs": 300, "seed": 1}),
    ("extract.scan", {**_SCAN, "n_docs": 400, "seed": 2, "collect_ids": True}),
)


def _random_matrix(rng: random.Random) -> list[list[int]]:
    rows, cols = rng.randint(4, 5), rng.randint(4, 6)
    density = rng.uniform(0.35, 0.55)
    return [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


#: The cold families whose cost grows with one integer parameter
#: (``automata.count`` length, ``certificate`` and ``sizes.row`` n), and
#: its range.  A run takes evenly spaced values across the range in
#: seeded order, so every seed asks for the same work.
LADDERS = {
    "automata.count": (16, 160),
    "certificate": (4000, 5000),
    "sizes.row": (1000, 1400),
}


def _ladders(cold_requests: int, rng: random.Random) -> dict[str, list[int]]:
    """Per family in ``LADDERS``, its parameter values for one run, shuffled."""
    cycles = cold_requests // len(COLD_CYCLE)
    out = {}
    for job, (lo, hi) in LADDERS.items():
        count = cycles * COLD_CYCLE.count(job)
        values = sorted({lo + (hi - lo) * i // max(1, count - 1) for i in range(count)})
        rng.shuffle(values)
        out[job] = values
    return out


def _cold_params(
    job: str, rng: random.Random, used: set[str], ladders: dict[str, list[int]]
) -> dict[str, Any]:
    """Fresh parameters for one cold request (never repeated within a run)."""
    for _ in range(10_000):
        if job == "automata.count":
            params: dict[str, Any] = {"n": 8, "length": ladders[job].pop()}
        elif job in ladders:
            params = {"n": ladders[job].pop()}
        elif job == "comm.cover.solve":
            params = {
                "matrix": _random_matrix(rng),
                "mode": rng.choice(("disjoint", "cover")),
                "node_budget": NODE_BUDGET,
            }
        else:
            params = {**_SCAN, "n_docs": 500, "seed": rng.randrange(1 << 30)}
        key = json.dumps([job, params], sort_keys=True)
        if key not in used:
            used.add(key)
            return params
    raise ValueError(f"no fresh {job} parameters left; the run is too long for this mix")


def plan(seed: int, seconds: int) -> dict[str, Any]:
    """The request schedule: ``(due_s, kind, job, params)`` in due order."""
    rng = random.Random(seed)
    slots = round(RATE * seconds / ROUNDS)
    # Whole cycles of COLD_CYCLE, so every seed has the same family counts.
    cycles = round(COLD_SHARE * slots / len(COLD_CYCLE))
    cold_slots = set(rng.sample(range(slots), cycles * len(COLD_CYCLE)))
    # Every hot key gets the same number of requests (give or take one),
    # in seeded order.
    n_hot = slots - len(cold_slots)
    hot_order = (list(range(len(HOT_KEYS))) * (n_hot // len(HOT_KEYS) + 1))[:n_hot]
    rng.shuffle(hot_order)
    used: set[str] = set(json.dumps([job, params], sort_keys=True) for job, params in HOT_KEYS)
    families = list(COLD_CYCLE)
    ladders = _ladders(len(cold_slots), rng)
    schedule: list[tuple[float, str, str, dict[str, Any]]] = []
    cold_count = 0
    per_family: dict[str, int] = {}
    pairs = 0
    for slot in range(slots):
        due = slot / RATE
        if slot in cold_slots:
            if cold_count % len(families) == 0:
                rng.shuffle(families)
            job = families[cold_count % len(families)]
            params = _cold_params(job, rng, used, ladders)
            cold_count += 1
            per_family[job] = per_family.get(job, 0) + 1
            copies = 2 if per_family[job] % PAIR_EVERY == 0 else 1
            pairs += copies - 1
            schedule += [(due, "cold", job, params)] * copies
        else:
            job, params = HOT_KEYS[hot_order.pop()]
            schedule.append((due, "hot", job, params))
    work = {
        "requests": len(schedule),
        "rounds": ROUNDS,
        "rate_per_s": RATE,
        "cold_share": COLD_SHARE,
        "cold_requests": sum(1 for s in schedule if s[1] == "cold"),
        "pairs": pairs,
        "connections": CONNECTIONS,
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "hot_keys": len(HOT_KEYS),
        "server": "python -m repro serve --jobs 1",
    }
    return {"schedule": schedule, "work": work}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` child with its own cache directory."""

    def __init__(self, tag: str) -> None:
        self.workdir = OUT / f"serve-{os.getpid()}-{tag}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.port = _free_port()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self._log = open(self.workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                str(self.port),
                "--jobs",
                "1",
                "--cache-dir",
                str(self.workdir / "cache"),
            ],
            cwd=ROOT,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                conn = self.connect()
                conn.request("GET", "/health")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server did not become healthy")

    def get_json(self, path: str) -> Any:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def cpu_ticks(self) -> int:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    conn = self.connect()
                    conn.request("POST", "/shutdown")
                    conn.getresponse().read()
                    conn.close()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._log.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def _post(conn: http.client.HTTPConnection, job: str, params: dict, client: str) -> tuple[int, Any]:
    body = json.dumps({"job": job, "params": params}).encode()
    conn.request(
        "POST",
        "/run",
        body=body,
        headers={"Content-Type": "application/json", "X-Client-Id": client},
    )
    response = conn.getresponse()
    raw = response.read()
    return response.status, json.loads(raw) if raw.strip() else None


def _start(tag: str) -> tuple[Server, dict[tuple[str, str], Any], float]:
    """Start a server, wait for ``/health``, warm every hot key; time it all."""
    start = time.perf_counter()
    server = Server(tag)
    try:
        server.wait_healthy()
        warm: dict[tuple[str, str], Any] = {}
        conn = server.connect()
        for job, params in HOT_KEYS:
            status, data = _post(conn, job, params, "warm-up")
            if status != 200:
                raise RuntimeError(f"warm-up {job} answered {status}: {data}")
            warm[(job, json.dumps(params, sort_keys=True))] = data["result"]
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, warm, time.perf_counter() - start


# ----------------------------------------------------------------------
# Correctness of payloads, checked after the timed region
# ----------------------------------------------------------------------


def _subsets(p: int) -> list[frozenset[int]]:
    items = range(1, p + 1)
    subs = [frozenset(c) for k in range(p + 1) for c in combinations(items, k)]
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def _family_matrix(kind: str, p: int) -> list[list[int]]:
    """The named family ``kind:p`` as an entry grid, rows and columns in
    the order the program documents: subsets of [p] by size, then content."""
    subs = _subsets(p)
    test = {
        "intersection": lambda x, y: bool(x & y),
        "disjointness": lambda x, y: not (x & y),
        "equality": lambda x, y: x == y,
    }[kind]
    return [[1 if test(x, y) else 0 for y in subs] for x in subs]


def _check_cover(matrix: list[list[int]], mode: str, result: dict[str, Any]) -> str | None:
    """This module's own verification of a claimed optimal cover."""
    ones = {(i, j) for i, row in enumerate(matrix) for j, v in enumerate(row) if v}
    covered: set[tuple[int, int]] = set()
    area = 0
    for rows, cols in result["cover"]:
        if not rows or not cols:
            return "empty rectangle"
        cells = {(i, j) for i in rows for j in cols}
        if not cells <= ones:
            return "rectangle covers a 0-entry"
        covered |= cells
        area += len(cells)
    if covered != ones:
        return "cover misses 1-entries"
    if mode == "disjoint" and area != len(ones):
        return "rectangles overlap in disjoint mode"
    size, bound = result["size"], result["lower_bound"]
    if not (result["optimal"] and size == bound == len(result["cover"])):
        return f"not certified: size {size}, lower bound {bound}"
    return None


def _check(job: str, params: dict[str, Any], result: Any) -> str | None:
    """Check one payload against the harness's own evaluation of the request."""
    if job == "comm.cover.solve":
        matrix = params["matrix"]
        if isinstance(matrix, str):
            kind, _, p = matrix.partition(":")
            matrix = _family_matrix(kind, int(p))
        return _check_cover(matrix, params["mode"], result)
    if job == "extract.scan":
        from repro.extract import StreamSpec, fold_checksum, relation_pairs
        from repro.spanners.csv_match import is_column_related

        spec = StreamSpec.from_params(params)
        pairs = relation_pairs(spec.relation, spec.w)
        matches = checksum = 0
        for index, doc in enumerate(spec.iter_documents()):
            if is_column_related(doc, spec.c, spec.w, spec.columns, pairs):
                matches += 1
                checksum = fold_checksum(checksum, index)
        got = (result["docs"], result["matches"], result["checksum"])
        want = (spec.n_docs, matches, checksum)
        return None if got == want else f"scan {got} != predicate {want}"
    from repro.engine.jobs import REGISTRY

    spec = REGISTRY.get(job)
    expected = json.loads(json.dumps(spec.fn(spec.resolve_params(params), [])))
    return None if result == expected else "payload differs from library evaluation"


def _digest_fields(job: str, result: Any) -> Any:
    """The implementation-independent part of a payload (for the pinned digest)."""
    if job == "comm.cover.solve":
        return result["size"]
    if job == "extract.scan":
        return [result["docs"], result["matches"], result["checksum"]]
    if job == "automata.count":
        return [result["match_count_checksum"], result["unique_count"]]
    if job == "certificate":
        return result["margin"]
    return result["ucfg_bound"]


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


def _send_all(server: Server, schedule: list) -> tuple[list[dict[str, Any]], int]:
    """Drive the schedule open-loop; returns one record per request."""
    records: list[dict[str, Any] | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    clock = time.perf_counter_ns
    t0 = clock() + 50_000_000  # first request due 50 ms from now

    def worker(k: int) -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                due_s, kind, job, params = schedule[index]
                due = t0 + int(due_s * 1e9)
                wait = (due - clock()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                try:
                    status, data = _post(conn, job, params, f"gen{k}")
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, data = -1, {"error": str(exc)}
                    conn.close()
                    conn = server.connect()
                done = clock()
                records[index] = {
                    "kind": kind,
                    "job": job,
                    "due": due,
                    "sent": sent,
                    "done": done,
                    "status": status,
                    "data": data,
                }
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if any(r is None for r in records):
        raise RuntimeError("a generator connection stopped before the schedule ended")
    return records, t0


def _round(schedule: list, tag: str) -> dict[str, Any]:
    """Start a fresh server, replay the schedule against it, stop it."""
    server, warm, setup_s = _start(tag)
    try:
        stats_before = server.get_json("/stats")["counters"]
        ticks_before = server.cpu_ticks()
        records, t0 = _send_all(server, schedule)
        wall_end = max(r["done"] for r in records)
        ticks = server.cpu_ticks() - ticks_before
        stats_after = server.get_json("/stats")["counters"]
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "records": records,
        "warm": warm,
        "setup_s": setup_s,
        "wall_s": (wall_end - t0) / 1e9,
        "ticks": ticks,
        "stats": {c: stats_after.get(c, 0) - stats_before.get(c, 0) for c in STAT_COUNTERS},
        "peak_rss_mb": peak_rss,
    }


def _check_round(
    schedule: list, rnd: dict[str, Any], label: str, failures: list[str]
) -> tuple[set[int], list[Any]]:
    """Check one round's answers; the indices that failed, and the digest items."""
    warm = rnd["warm"]
    # A wrong warm-up payload fails every hot request that repeats it.
    wrong_warm: set[tuple[str, str]] = set()
    for job, params in HOT_KEYS:
        key = (job, json.dumps(params, sort_keys=True))
        problem = _check(job, params, warm[key])
        if problem is not None:
            wrong_warm.add(key)
            failures.append(f"{label} warm-up {job} {params}: {problem}")
    bad: set[int] = set()
    digest_items = []
    for index, record in enumerate(rnd["records"]):
        due_s, kind, job, params = schedule[index]
        latency = (record["done"] - record["due"]) / 1e6
        if record["status"] != 200:
            bad.add(index)
            failures.append(f"{label} #{index} {job}: status {record['status']}: {record['data']}")
            digest_items.append(None)
            continue
        if latency > LATENCY_LIMIT_MS:
            bad.add(index)
            failures.append(f"{label} #{index} {job}: {latency:.1f} ms, over the latency limit")
        result = record["data"]["result"]
        if kind == "hot":
            key = (job, json.dumps(params, sort_keys=True))
            if result != warm[key] or key in wrong_warm:
                bad.add(index)
                failures.append(f"{label} #{index} {job}: hot payload is not a correct warm-up payload")
        else:
            problem = _check(job, params, result)
            if problem is not None:
                bad.add(index)
                failures.append(f"{label} #{index} {job}: {problem}")
        digest_items.append([job, _digest_fields(job, result)])
    return bad, digest_items


def run(plan_: dict[str, Any], tracer: Tracer | None, setup_reps: int) -> Outcome:
    """``ROUNDS`` replays of the schedule, each against a freshly started server.

    A fresh server starts from the same state every time (empty caches,
    nothing memoised), so each round does the same work and a request's
    best round is its latency.  With ``setup_reps`` 0 the starts are not
    reported.  The server is never wrapped, so ``tracer`` only collects
    the client-side spans and the per-layer numbers of this same pass.
    """
    schedule = plan_["schedule"]
    rounds = [_round(schedule, str(r)) for r in range(ROUNDS)]

    failures: list[str] = []
    failed = 0
    first_items: list[Any] = []
    for r, rnd in enumerate(rounds):
        bad, items = _check_round(schedule, rnd, f"round {r}", failures)
        if r == 0:
            first_items = items
        for index, (item, first) in enumerate(zip(items, first_items)):
            if index not in bad and item != first:
                bad.add(index)
                failures.append(f"round {r} #{index}: answer differs from round 0")
        failed += len(bad)
    digest = hashlib.sha256(json.dumps(first_items).encode()).hexdigest()[:16]

    outcome = Outcome(
        latencies_ms=[(rec["done"] - rec["due"]) / 1e6 for rnd in rounds for rec in rnd["records"]],
        wall_s=sum(rnd["wall_s"] for rnd in rounds),
        failed=failed,
        failures=failures,
        peak_rss_mb=max(rnd["peak_rss_mb"] for rnd in rounds),
        setup_s=[rnd["setup_s"] for rnd in rounds] if setup_reps else [],
        digest=digest,
        op_keys=[index for _ in rounds for index in range(len(schedule))],
        open_loop=True,
    )
    if tracer is not None:
        for r, rnd in enumerate(rounds):
            for index, record in enumerate(rnd["records"]):
                tracer.op_id = r * len(schedule) + index
                tracer.add_span(f"serve.{record['kind']}", record["due"], record["done"])
                tracer.add_span("gen.lag", record["due"], record["sent"])
        best, _ = outcome.timing()
        outcome.layers = _layers(schedule, rounds, best)
    return outcome


def _layers(schedule: list, rounds: list[dict[str, Any]], best: list[float]) -> dict[str, float]:
    """Per-layer numbers: latencies at each request's best round, like the
    end-to-end ones; counts, server times and lag over every round."""
    hot = [lat for (_, kind, _, _), lat in zip(schedule, best) if kind == "hot"]
    cold = [lat for (_, kind, _, _), lat in zip(schedule, best) if kind == "cold"]
    records = [record for rnd in rounds for record in rnd["records"]]
    hot_records = [r for r in records if r["kind"] == "hot"]
    hot_hits = sum(1 for r in hot_records if r["status"] == 200 and r["data"]["cache"] == "hot")
    lags = sorted((r["sent"] - r["due"]) / 1e6 for r in records)
    executed = [
        r
        for r in records
        if r["kind"] == "cold"
        and r["status"] == 200
        and r["data"]["cache"] == "miss"
        and not r["data"]["coalesced"]
    ]
    wall_s = sum(rnd["wall_s"] for rnd in rounds)
    ticks = sum(rnd["ticks"] for rnd in rounds)
    cold_p50, cold_tail = p50_and_tail(cold)
    layers: dict[str, float] = {
        "serve.hot.latency_p50_ms": statistics.median(hot),
        "serve.hot_hit_share": hot_hits / len(hot_records),
        "serve.cold.latency_p50_ms": cold_p50,
        "serve.cold.latency_tail_ms": cold_tail,
        "serve.overhead_ms_p50": statistics.median(
            (r["done"] - r["sent"]) / 1e6 - r["data"]["wall_ms"] for r in executed
        ),
        "server.cpu_busy_share": ticks / os.sysconf("SC_CLK_TCK") / wall_s,
        "gen.lag_p99_ms": lags[min(len(lags) - 1, int(0.99 * len(lags)))],
        "gen.lag_max_ms": lags[-1],
    }
    for job in COLD_JOBS:
        walls = [r["data"]["wall_ms"] for r in executed if r["job"] == job]
        layers[f"engine.wall_ms_p50.{job}"] = statistics.median(walls) if walls else 0.0
    for counter in STAT_COUNTERS:
        layers[f"serve.stats.{counter}"] = sum(rnd["stats"][counter] for rnd in rounds)
    return layers
