"""Command-line interface: ``python -m repro <command>``.

A thin front end over the library for quick exploration::

    python -m repro sizes --max-exp 10       # the Theorem 1 size table
    python -m repro certificate 1024         # the Theorem 12 certificate
    python -m repro grammar 12               # print the Θ(log n) grammar
    python -m repro cover 3                  # Proposition 7 on the uCFG
    python -m repro lemma18 3                # exhaustive Lemma 18 check
    python -m repro member babaab 3          # membership in L_n
    python -m repro zoo --max-n 4            # the representation zoo

and over the execution engine (parallel workers + disk cache;
see docs/ENGINE.md)::

    python -m repro run certificate -p n=1024 --jobs 2    # any declared job
    python -m repro run --list                            # list the registry
    python -m repro sweep sizes --max-exp 12 --jobs 4     # fan out + cache
    python -m repro sweep zoo --max-n 4 --jobs 4
    python -m repro cache stats                           # inspect / clear
    python -m repro serve --port 8321                     # the job service
    python -m repro backends                              # kernel backends
    python -m repro bench backends                        # their timings

Every engine command takes ``--backend {auto,reference,words,numpy,cext}``
to pin the kernel backend (see docs/BACKENDS.md); the default follows
``REPRO_BACKEND`` and falls back to auto-detection.

The table-producing commands (``sizes``, ``zoo``, ``sweep``) all route
through the engine, so repeated invocations are served from the cache;
pass ``--no-cache`` to force recomputation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.cover import balanced_rectangle_cover
from repro.errors import ReproError
from repro.core.discrepancy import verify_lemma18
from repro.core.lower_bound import certificate
from repro.languages.ln import is_in_ln, match_positions
from repro.languages.small_grammar import small_ln_grammar
from repro.languages.unambiguous_grammar import example4_ucfg
from repro.util.tables import Table, format_int

__all__ = ["main", "build_parser"]

#: The source checkout: ``src/repro/cli.py`` sits two levels below it.
_SOURCE_ROOT = Path(__file__).resolve().parents[2]


def _build_engine(args: argparse.Namespace):
    """Construct an :class:`~repro.engine.Engine` from the shared CLI flags."""
    from repro.engine import DiskCache, Engine, RunLog

    cache = None if args.no_cache else DiskCache(args.cache_dir)
    log_path = cache.root / "runs.jsonl" if cache is not None else None
    return Engine(
        cache=cache,
        jobs=args.jobs,
        timeout=args.timeout,
        on_timeout=args.on_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        backend=getattr(args, "backend", None),
        run_log=RunLog(path=log_path),
    )


def _report_engine(engine) -> None:
    """Print the run summary: cache traffic on stdout, timing on stderr.

    Wall time and worker count vary run to run, so they go to stderr —
    stdout stays byte-identical between serial and parallel invocations.
    """
    summary = engine.last_summary
    if summary is None:
        return
    line = (
        f"engine: {summary['jobs']} jobs, {summary['hits']} cache hits, "
        f"{summary['misses']} misses"
    )
    if summary.get("off"):
        line += f", {summary['off']} uncached"
    for counter in ("retried", "timeouts", "skipped"):
        if summary.get(counter):
            line += f", {summary[counter]} {counter}"
    print(line)
    print(
        f"engine: wall {summary['wall_ms']:.0f} ms on {summary['workers']} worker(s)",
        file=sys.stderr,
    )


def _backend_choices() -> tuple[str, ...]:
    """``auto`` plus every *registered* backend name.

    Derived from the registry (not hardcoded) so a new tier — like the
    optional ``cext`` build — is selectable the moment it registers;
    an unavailable choice still fails with the backend's own reason.
    """
    from repro.backend import backend_names

    return ("auto", *backend_names())


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial, default)"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="cache directory (default ~/.cache/repro)"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="compute everything, store nothing"
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    parser.add_argument(
        "--on-timeout",
        choices=("raise", "skip"),
        default="raise",
        help="on a job timeout: abort the run (raise, default) or kill only "
        "that job and continue with the survivors (skip)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retries per job after a failure or worker death (default 0)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        help="base of the exponential retry backoff in seconds (default 0.1)",
    )
    parser.add_argument(
        "--backend",
        choices=_backend_choices(),
        default=None,
        help="kernel backend for every job in this run (default: "
        "REPRO_BACKEND or auto; see `python -m repro backends`)",
    )


def _sizes_table(rows: list[dict]) -> Table:
    table = Table(
        ["n", "CFG size", "CFG/log2(n)", "NFA states", "uCFG constr.", "uCFG lower bd"],
        title="Theorem 1: representation sizes for L_n",
    )
    for row in rows:
        table.add_row(
            [
                row["n"],
                row["cfg_size"],
                row["cfg_per_log2"],
                row["nfa_states"],
                row["ucfg_constr"],
                row["ucfg_bound"],
            ]
        )
    return table


def _cmd_sizes(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    result = engine.run_one("sizes.table", {"max_exp": args.max_exp})
    _sizes_table(result["rows"]).print()
    _report_engine(engine)
    return 0


def _cmd_certificate(args: argparse.Namespace) -> int:
    cert = certificate(args.n)  # verified once, when it was built
    if args.json:
        import json

        print(json.dumps(cert.to_dict(), indent=2, default=str))
        return 0
    print(f"Lower-bound certificate for L_{args.n} (m = {cert.m}):")
    print(f"  |𝓛|            = {format_int(cert.size_script_l)}")
    print(f"  |A|            = {format_int(cert.size_a)}")
    print(f"  |B|            = {format_int(cert.size_b)}")
    print(f"  |B \\ L_n|      = {format_int(cert.size_b_minus_ln)}")
    print(f"  margin         = {format_int(cert.margin)}")
    print(f"  margin > 2^(7m/2): {cert.lemma18_threshold_holds}")
    print(f"  fixed-partition cover bound : {format_int(cert.fixed_partition_bound)}")
    print(f"  multipartition cover bound  : {format_int(cert.cover_bound)}")
    print(f"  uCFG size bound (CNF)       : {format_int(cert.ucfg_cnf_bound)}")
    print(f"  uCFG size bound (any form)  : {format_int(cert.ucfg_bound)}")
    return 0


def _cmd_grammar(args: argparse.Namespace) -> int:
    grammar = small_ln_grammar(args.n)
    print(f"# Appendix A grammar for L_{args.n}  (size {grammar.size})")
    print(grammar.pretty())
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    if args.n > 4:
        print("cover: n > 4 is infeasible (the uCFG explodes); use n <= 4", file=sys.stderr)
        return 2
    grammar = example4_ucfg(args.n)
    cover = balanced_rectangle_cover(grammar)
    print(
        f"Proposition 7 on the Example 4 uCFG for L_{args.n}: "
        f"{cover.n_rectangles} rectangles (bound {cover.proposition7_bound}), "
        f"disjoint: {cover.disjoint}"
    )
    table = Table(["nonterminal", "n1/n2/n3", "|L1|", "|L2|", "words"])
    for step in cover.steps:
        rect = step.rectangle
        table.add_row(
            [
                str(step.nonterminal),
                f"{rect.n1}/{rect.n2}/{rect.n3}",
                len(rect.outer),
                len(rect.inner),
                rect.n_words,
            ]
        )
    table.print()
    return 0


def _cmd_lemma18(args: argparse.Namespace) -> int:
    if args.m > 5:
        print("lemma18: m > 5 enumerates over 16^m members; use m <= 5", file=sys.stderr)
        return 2
    results = verify_lemma18(args.m)
    print(f"Lemma 18 for m = {args.m} (n = {4 * args.m}), all exhaustively verified:")
    for name, (enumerated, formula) in results.items():
        print(f"  {name:12s} = {enumerated} (formula {formula})")
    return 0


def _zoo_table(rows: list[dict]) -> Table:
    table = Table(
        ["n", "|L_n|", "CFG", "NFA", "exact NFA", "min DFA", "uCFG"],
        title="Exact sizes of every representation of L_n",
    )
    for row in rows:
        table.add_row(
            [
                row["n"],
                row["count_ln"],
                row["cfg"],
                row["nfa"],
                row["exact_nfa"],
                row["min_dfa"],
                row["ucfg"],
            ]
        )
    return table


def _cmd_zoo(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    result = engine.run_one("zoo.table", {"max_n": args.max_n})
    _zoo_table(result["rows"]).print()
    _report_engine(engine)
    return 0


def _parse_param(item: str) -> tuple[str, object]:
    """Parse one ``-p name=value`` item; values try int, float, bool,
    JSON list (``columns=[1,2]``), then fall back to str."""
    name, sep, raw = item.partition("=")
    if not sep or not name:
        raise ValueError(f"parameter {item!r} is not of the form name=value")
    for caster in (int, float):
        try:
            return name, caster(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return name, raw.lower() == "true"
    if raw.startswith("["):
        try:
            return name, json.loads(raw)
        except json.JSONDecodeError:
            pass
    return name, raw


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.engine import default_registry

    registry = default_registry()
    if args.list or args.job is None:
        for name in registry.names():
            job = registry.get(name)
            params = ", ".join(job.param_names) or "-"
            print(f"{name:16s} ({params:14s}) {job.description}")
        return 0
    params = dict(_parse_param(item) for item in args.param)
    engine = _build_engine(args)
    result = engine.run_one(args.job, params)
    print(json.dumps(result, indent=2, sort_keys=True))
    _report_engine(engine)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    if args.target == "sizes":
        result = engine.run_one("sizes.table", {"max_exp": args.max_exp})
        _sizes_table(result["rows"]).print()
    else:
        result = engine.run_one("zoo.table", {"max_n": args.max_n})
        _zoo_table(result["rows"]).print()
    _report_engine(engine)
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.backend import BACKEND_CLASSES, get_backend, numpy_version

    active = get_backend().name
    table = Table(
        ["backend", "available", "active", "description"],
        title="Kernel backends (select with --backend or REPRO_BACKEND)",
    )
    reasons: list[tuple[str, str]] = []
    for name, cls in BACKEND_CLASSES.items():
        available = cls.available()
        table.add_row(
            [
                name,
                "yes" if available else "no",
                "*" if name == active else "",
                cls.describe(),
            ]
        )
        if not available:
            reason = cls.unavailable_reason()
            reasons.append((name, reason or "availability probe failed"))
    table.print()
    for name, reason in reasons:
        print(f"{name}: unavailable — {reason}", file=sys.stderr)
    version = numpy_version()
    if version is not None:
        print(f"numpy: {version}", file=sys.stderr)
    return 0


def _bench_backends_table(result: dict) -> Table:
    names = result["backends"]
    table = Table(
        ["op"] + [f"{name} s" for name in names] + ["best speedup"],
        title="Kernel backends: same seeded workload, bit-exact cross-check",
    )
    for row in result["rows"]:
        cells: list[str] = [row["op"]]
        best = None
        for name in names:
            cell = row["backends"][name]
            text = f"{cell['seconds']:.4f}"
            if cell["kernel"] != name:
                text += f" (={cell['kernel']})"
            cells.append(text)
            if name != "reference" and cell["kernel"] == name:
                speedup = cell["speedup"]
                if best is None or speedup > best[0]:
                    best = (speedup, name)
        cells.append(f"{best[0]:.2f}x ({best[1]})" if best else "-")
        table.add_row(cells)
    return table


def _git(*args: str) -> str | None:
    """``git <args>`` in the source checkout; ``None`` if git fails."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", *args], cwd=_SOURCE_ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cmd_bench_backends(args: argparse.Namespace) -> int:
    # Benchmarks time code, so cached timings from an earlier run would be
    # stale; always recompute.
    args.no_cache = True
    engine = _build_engine(args)
    result = engine.run_one(
        "backends.bench", {"repeats": args.repeats, "seed": args.seed}
    )
    _bench_backends_table(result).print()
    if args.out:
        import platform
        import time

        from repro.backend import backend_info

        # Only a checkout that is itself a git work tree has a sha of its
        # own; asking git from an installed copy could report an
        # enclosing repository.
        sha = _git("rev-parse", "HEAD") if (_SOURCE_ROOT / ".git").exists() else None
        status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
        artifact = {
            "kind": "backends_bench",
            "generated_at": time.time(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            # The backend the measured code actually ran on.
            "backend": backend_info(args.backend),
            "git_sha": sha,
            "git_dirty": None if status is None else bool(status),
            **result,
        }
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        print(f"bench: wrote {path}", file=sys.stderr)
    _report_engine(engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer, ServeConfig

    if args.backend is not None:
        # The service executes engine runs on connection threads; pin the
        # whole process rather than one run scope.
        from repro.backend import set_backend

        set_backend(args.backend)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        jobs=args.jobs,
        timeout=args.timeout,
        on_timeout=args.on_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        run_log_path=args.run_log,
        hot_entries=args.hot_entries,
        queue_limit=args.queue_limit,
        exec_workers=args.exec_workers,
        rate=args.rate,
        burst=args.burst,
    )
    server = ReproServer(config)
    print(f"serve: listening on http://{config.host}:{config.port or '<ephemeral>'}",
          file=sys.stderr)
    try:
        server.run_blocking()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import DiskCache

    cache = DiskCache(args.cache_dir)
    if args.action == "path":
        print(cache.root)
    elif args.action == "clear":
        removed = cache.clear()
        print(f"cache: removed {removed} entries from {cache.root}")
    else:
        stats = cache.stats()
        del stats["session_hits"], stats["session_misses"]
        print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    word, n = args.word, args.n
    if len(word) != 2 * n:
        print(f"member: word has length {len(word)}, L_{n} needs {2 * n}", file=sys.stderr)
        return 2
    member = is_in_ln(word, n)
    print(f"{word!r} ∈ L_{n}: {member}")
    if member:
        positions = match_positions(word, n)
        print(f"matching positions (0-based k with w[k] = w[k+n] = 'a'): {positions}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Explore the uCFG lower-bound reproduction from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sizes = sub.add_parser("sizes", help="the Theorem 1 size table")
    sizes.add_argument("--max-exp", type=int, default=10, help="largest n = 2^k (default 10)")
    _add_engine_options(sizes)
    sizes.set_defaults(func=_cmd_sizes)

    cert = sub.add_parser("certificate", help="the Theorem 12 certificate for one n")
    cert.add_argument("n", type=int)
    cert.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    cert.set_defaults(func=_cmd_certificate)

    grammar = sub.add_parser("grammar", help="print the Θ(log n) CFG for L_n")
    grammar.add_argument("n", type=int)
    grammar.set_defaults(func=_cmd_grammar)

    cover = sub.add_parser("cover", help="run Proposition 7 on the Example 4 uCFG")
    cover.add_argument("n", type=int)
    cover.set_defaults(func=_cmd_cover)

    lemma = sub.add_parser("lemma18", help="exhaustively verify Lemma 18 for one m")
    lemma.add_argument("m", type=int)
    lemma.set_defaults(func=_cmd_lemma18)

    zoo = sub.add_parser("zoo", help="every representation of L_n, exact sizes")
    zoo.add_argument("--max-n", type=int, default=4, help="largest n (2..5)")
    _add_engine_options(zoo)
    zoo.set_defaults(func=_cmd_zoo)

    member = sub.add_parser("member", help="test membership of a word in L_n")
    member.add_argument("word")
    member.add_argument("n", type=int)
    member.set_defaults(func=_cmd_member)

    backends = sub.add_parser(
        "backends", help="list the kernel backends and which one is active"
    )
    backends.set_defaults(func=_cmd_backends)

    run = sub.add_parser("run", help="run any declared engine job (see --list)")
    run.add_argument("job", nargs="?", help="job name, e.g. certificate or sizes.row")
    run.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="job parameter (repeatable)",
    )
    run.add_argument("--list", action="store_true", help="list all declared jobs")
    _add_engine_options(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="fan a parameter sweep out across workers, cached"
    )
    sweep_sub = sweep.add_subparsers(dest="target", required=True)
    sweep_sizes = sweep_sub.add_parser("sizes", help="the Theorem 1 size table")
    sweep_sizes.add_argument(
        "--max-exp", type=int, default=10, help="largest n = 2^k (default 10)"
    )
    _add_engine_options(sweep_sizes)
    sweep_sizes.set_defaults(func=_cmd_sweep, target="sizes")
    sweep_zoo = sweep_sub.add_parser("zoo", help="the representation zoo")
    sweep_zoo.add_argument("--max-n", type=int, default=4, help="largest n (2..5)")
    _add_engine_options(sweep_zoo)
    sweep_zoo.set_defaults(func=_cmd_sweep, target="zoo")

    bench = sub.add_parser("bench", help="time the kernel backends")
    bench_sub = bench.add_subparsers(dest="target", required=True)
    bench_backends = bench_sub.add_parser(
        "backends", help="time every kernel backend on each primitive family, bit-exact"
    )
    bench_backends.add_argument(
        "--repeats", type=int, default=5, help="timing runs per cell, min kept (default 5)"
    )
    bench_backends.add_argument("--seed", type=int, default=0, help="workload seed")
    bench_backends.add_argument(
        "--out", default=None, metavar="PATH", help="also write BENCH_backends.json here"
    )
    _add_engine_options(bench_backends)
    bench_backends.set_defaults(func=_cmd_bench_backends)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant job service (see docs/SERVE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="listen port, 0 = ephemeral (default 8321)"
    )
    serve.add_argument(
        "--hot-entries",
        type=int,
        default=1024,
        help="in-memory hot-LRU capacity, 0 disables (default 1024)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client sustained requests/second (default: unlimited)",
    )
    serve.add_argument(
        "--burst", type=float, default=20, help="per-client burst allowance (default 20)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max distinct in-flight executions before 503 (default 64)",
    )
    serve.add_argument(
        "--exec-workers",
        type=int,
        default=8,
        help="engine runs at once; more cold requests wait (default 8)",
    )
    serve.add_argument(
        "--run-log", default=None, metavar="PATH", help="append run records here (JSONL)"
    )
    _add_engine_options(serve)
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument(
        "action",
        nargs="?",
        default="stats",
        choices=("stats", "clear", "path"),
        help="what to do (default: stats)",
    )
    cache.add_argument(
        "--cache-dir", default=None, help="cache directory (default ~/.cache/repro)"
    )
    cache.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
