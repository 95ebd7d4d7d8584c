"""``extract-scan``: a standing query set scanning document batches, in-process.

Set-up compiles a few column-relation queries that share ``c`` and ``w``
(2 to 5 columns, ``match`` and ``leq``) into packed DFAs through
``repro.extract.scanner_for_spec``.  The timed loop then scans every
pre-generated batch with every query through ``StreamScanner``, in
several passes; one op is one (batch, query) scan, fed in one to three
chunks cut at seeded offsets so documents straddle chunk boundaries.
Every distinct op repeats once per pass, and the timings use each one's
best repetition (``common.Outcome.timing``).

Batch sizes are a seeded permutation of a fixed ladder, so every seed
scans the same number of documents; the documents themselves, the op
order and the chunk cuts come from the seed.  Documents are
generated here, before any timing (generation costs far more than
scanning), and every op's match count and checksum are checked after
the loop against ``repro.spanners.csv_match.is_column_related`` folded
with ``fold_checksum``.

Set-up is probed ``SETUP_REPS`` times, each time in a fresh interpreter,
one probe before each of as many equal segments of the op list, and
``setup_s`` is the best probe.  Run as a script, this module performs
one set-up probe: it compiles the query set in this fresh interpreter
and prints the seconds it took.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import ROOT, SRC, Outcome, Tracer, peak_rss_mb_self

C, W = 5, 2
#: The standing query set: (relation, columns).  Fixed, because scan and
#: compile cost depend on where the columns sit, not only on how many.
QUERIES = (
    ("match", (1, 3)),
    ("leq", (2, 5)),
    ("leq", (1, 3, 4)),
    ("match", (1, 2, 3, 4, 5)),
)
N_BATCHES = 28
MIN_DOCS, MAX_DOCS = 250, 12_000
PASSES_PER_SECOND = 3
#: Set-up probes per run, spread over the run (each takes about a second).
SETUP_REPS = 16

_TO_AB = str.maketrans("01", "ab")


def batch_sizes() -> list[int]:
    """The fixed size ladder (geometric from MIN_DOCS to MAX_DOCS)."""
    ratio = (MAX_DOCS / MIN_DOCS) ** (1 / (N_BATCHES - 1))
    return [round(MIN_DOCS * ratio**k) for k in range(N_BATCHES)]


def plan(seed: int, seconds: int) -> dict[str, Any]:
    rng = random.Random(seed)
    doc_len = 2 * C * W
    sizes = batch_sizes()
    rng.shuffle(sizes)
    batches = []
    for size in sizes:
        bits = format(rng.getrandbits(size * doc_len), f"0{size * doc_len}b")
        text = bits.translate(_TO_AB)
        cuts = sorted(rng.sample(range(1, len(text)), rng.randint(0, 2)))
        bounds = [0, *cuts, len(text)]
        batches.append([text[a:b] for a, b in zip(bounds, bounds[1:])])
    queries = list(QUERIES)
    passes = PASSES_PER_SECOND * seconds
    pairs = [(b, q) for b in range(len(batches)) for q in range(len(queries))]
    ops = []
    for _ in range(passes):
        rng.shuffle(pairs)
        ops += pairs
    work = {
        "ops": len(ops),
        "passes": passes,
        "c": C,
        "w": W,
        "queries": [[relation, list(cols)] for relation, cols in queries],
        "batches": len(batches),
        "docs_per_pass": sum(sizes),
    }
    return {"batches": batches, "queries": queries, "ops": ops, "work": work}


def _spec(relation: str, columns: tuple[int, ...]) -> Any:
    from repro.extract import StreamSpec

    return StreamSpec(c=C, w=W, columns=columns, relation=relation, n_docs=0)


def setup_probe() -> float:
    """Compile the query set, timed in a fresh interpreter."""
    from repro.extract import scanner_for_spec

    specs = [_spec(relation, cols) for relation, cols in QUERIES]
    start = time.perf_counter()
    for spec in specs:
        scanner_for_spec(spec)
    return time.perf_counter() - start


def probe_setup() -> float:
    """Run :func:`setup_probe` in a fresh interpreter and wait for it.

    Ops are not timed while it runs, so no other process runs while they are.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def patch_backend(tracer: Tracer) -> None:
    """Trace every ``repro.backend.Backend`` protocol method of the active backend."""
    from repro.backend import Backend, get_backend

    backend = get_backend()
    for name, value in vars(Backend).items():
        if not name.startswith("_") and callable(value):
            tracer.patch(backend, name, f"backend.{name}")


def backend_layers(
    tracer: Tracer, op_span: str, before: dict[str, int], after: dict[str, int]
) -> dict[str, float]:
    """``backend.<p>.calls``/``busy_s`` per traced primitive, plus the
    backend's self time inside ops as a share of the ops' total time.

    ``before``/``after`` are snapshots of ``tracer.self_ns`` taken around
    the timed loop, so the share counts only kernel time spent inside ops.
    """
    out: dict[str, float] = {}
    for name in tracer.calls:
        if name.startswith("backend."):
            out[f"{name}.calls"] = tracer.calls[name]
            out[f"{name}.busy_s"] = tracer.busy_s(name)
    backend_self_ns = sum(
        ns - before.get(name, 0) for name, ns in after.items() if name.startswith("backend.")
    )
    op_total = tracer.busy_s(op_span)
    out["backend.busy_share"] = backend_self_ns / 1e9 / op_total if op_total else 0.0
    return out


def expected_result(docs: str, relation: str, columns: tuple[int, ...]) -> tuple[int, int, int]:
    """(docs, matches, checksum) from the per-document predicate."""
    from repro.extract import fold_checksum, relation_pairs
    from repro.spanners.csv_match import is_column_related

    pairs = relation_pairs(relation, W)
    doc_len = 2 * C * W
    matches = checksum = 0
    n_docs = len(docs) // doc_len
    for index in range(n_docs):
        doc = docs[index * doc_len : (index + 1) * doc_len]
        if is_column_related(doc, C, W, columns, pairs):
            matches += 1
            checksum = fold_checksum(checksum, index)
    return n_docs, matches, checksum


def run(plan_: dict[str, Any], tracer: Tracer | None, setup_reps: int) -> Outcome:
    """One pass: the timed scans, with ``setup_reps`` set-up probes between
    equal segments of them.

    The traced pass needs no probe: it times the compile itself, as spans.
    """
    import repro.extract.compile as compile_mod
    from repro.extract import StreamScanner

    compile_fn = compile_mod.scanner_for_spec
    if tracer is not None:
        patch_backend(tracer)
        tracer.patch(compile_mod, "packed_determinise", "automata.packed_determinise")
        tracer.patch(compile_mod, "packed_minimise", "automata.packed_minimise")
        tracer.patch(StreamScanner, "feed", "extract.feed")
        compile_fn = tracer.wrap("extract.scanner_for_spec", compile_fn)
    compiled = [compile_fn(_spec(relation, cols)) for relation, cols in plan_["queries"]]
    scanners = [StreamScanner(c) for c in compiled]
    batches = plan_["batches"]
    ops = plan_["ops"]
    results: list[tuple[int, int, int] | str] = []
    latencies: list[float] = []
    probe_before = {len(ops) * k // setup_reps for k in range(setup_reps)}
    setup_s: list[float] = []
    probing_ns = 0
    clock = time.perf_counter_ns
    before = dict(tracer.self_ns) if tracer is not None else {}
    wall_start = clock()
    for op_id, (b, q) in enumerate(ops):
        if op_id in probe_before:
            probe_start = clock()
            setup_s.append(probe_setup())
            probing_ns += clock() - probe_start
        if tracer is not None:
            tracer.op_id = op_id
            tracer.begin()
        scanner = scanners[q]
        start = clock()
        try:
            state = scanner.new_state()
            for chunk in batches[b]:
                scanner.feed(state, chunk)
            out = scanner.finish(state)
            result: tuple[int, int, int] | str = (out["docs"], out["matches"], out["checksum"])
        except Exception as exc:  # a crashed scan is a failed op, not a crashed run
            result = f"{type(exc).__name__}: {exc}"
        latencies.append((clock() - start) / 1e6)
        if tracer is not None:
            tracer.end("op.extract-scan")
        results.append(result)
    wall_s = (clock() - wall_start - probing_ns) / 1e9
    after = dict(tracer.self_ns) if tracer is not None else {}

    expected: dict[tuple[int, int], tuple[int, int, int]] = {}
    failures: list[str] = []
    failed = 0
    for (b, q), result in zip(ops, results):
        if (b, q) not in expected:
            relation, cols = plan_["queries"][q]
            expected[(b, q)] = expected_result("".join(batches[b]), relation, cols)
        if result != expected[(b, q)]:
            failed += 1
            failures.append(f"batch {b} query {q}: got {result}, expected {expected[(b, q)]}")
    digest = hashlib.sha256(json.dumps(sorted(expected.items())).encode()).hexdigest()[:16]

    outcome = Outcome(
        latencies_ms=latencies,
        wall_s=wall_s,
        failed=failed,
        failures=failures,
        peak_rss_mb=peak_rss_mb_self(),
        setup_s=setup_s,
        digest=digest,
        op_keys=ops,
    )
    if tracer is not None:
        layers: dict[str, float] = {
            "extract.scanner_for_spec.busy_s": tracer.busy_s("extract.scanner_for_spec"),
            "automata.packed_determinise.busy_s": tracer.busy_s("automata.packed_determinise"),
            "automata.packed_minimise.busy_s": tracer.busy_s("automata.packed_minimise"),
            "extract.compile.det_states": sum(c.det_states for c in compiled),
            "extract.compile.min_states": sum(c.n_states for c in compiled),
            "extract.feed.calls": tracer.calls.get("extract.feed", 0),
            "extract.feed.busy_s": tracer.busy_s("extract.feed"),
            "extract.docs_scanned": sum(r[0] for r in results if isinstance(r, tuple)),
            "extract.matches": sum(r[1] for r in results if isinstance(r, tuple)),
        }
        layers.update(backend_layers(tracer, "op.extract-scan", before, after))
        outcome.layers = layers
    return outcome


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps({"setup_s": setup_probe()}))
