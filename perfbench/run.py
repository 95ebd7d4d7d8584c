#!/usr/bin/env python3
"""Benchmark entry point: one workload per run, or the steadiness check.

    python3 perfbench/run.py --workload extract-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steady --repeats 10 --seed-base 100

A run builds its inputs from ``--seed``, measures the workload's fixed
amount of work (scaled by ``--seconds``), checks every output, prints
the metrics with their units, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` measures a traced pass, reports
every per-layer metric, writes the spans to ``perfbench/out``, and, when
the pass installed wrappers in this process, measures the same work
untraced in a fresh process for the tracing overhead.  The exit code is
non-zero when any check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import extract_scan  # noqa: E402
import serve_mixed  # noqa: E402
from common import OUT, ROOT, SRC, Tracer, provenance, tail_percentile  # noqa: E402

WORKLOADS = {"extract-scan": extract_scan, "serve-mixed": serve_mixed}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, workload whose traced run measures it,
# end-to-end metric it should move).  On the other workload's traced run
# the metric reads 0: that workload bypasses the layer.
def _kernel(primitive: str, moves: str) -> dict[str, tuple[str, str, str]]:
    return {
        f"backend.{primitive}.calls": ("count", "extract-scan", moves),
        f"backend.{primitive}.busy_s": ("s", "extract-scan", moves),
    }


LAYERS: dict[str, tuple[str, str, str]] = {
    "extract.scanner_for_spec.busy_s": ("s", "extract-scan", "setup_s"),
    "automata.packed_determinise.busy_s": ("s", "extract-scan", "setup_s"),
    "automata.packed_minimise.busy_s": ("s", "extract-scan", "setup_s"),
    "extract.compile.det_states": ("count", "extract-scan", "setup_s"),
    "extract.compile.min_states": ("count", "extract-scan", "setup_s"),
    **_kernel("make_step_fn", "setup_s"),
    **_kernel("fold_rows", "setup_s"),
    **_kernel("hopcroft_split", "setup_s"),
    **_kernel("popcount", "ops_per_s"),
    **_kernel("bit_indices", "ops_per_s"),
    "backend.busy_share": ("ratio", "extract-scan", "ops_per_s"),
    "extract.feed.calls": ("count", "extract-scan", "ops_per_s,latency_p50_ms"),
    "extract.feed.busy_s": ("s", "extract-scan", "ops_per_s,latency_p50_ms"),
    "extract.docs_scanned": ("count", "extract-scan", "ops_per_s,latency_p50_ms"),
    "extract.matches": ("count", "extract-scan", "ops_per_s,latency_p50_ms"),
    "serve.hot.latency_p50_ms": ("ms", "serve-mixed", "latency_p50_ms"),
    "serve.hot_hit_share": ("ratio", "serve-mixed", "latency_p50_ms"),
    "serve.cold.latency_p50_ms": ("ms", "serve-mixed", "latency_p50_ms"),
    "serve.cold.latency_tail_ms": ("ms", "serve-mixed", "latency_tail_ms"),
    **{
        f"engine.wall_ms_p50.{job}": (
            "ms",
            "serve-mixed",
            "latency_p50_ms,latency_tail_ms" if job == "extract.scan" else "latency_tail_ms",
        )
        for job in serve_mixed.COLD_JOBS
    },
    "serve.overhead_ms_p50": ("ms", "serve-mixed", "latency_p50_ms"),
    **{
        f"serve.stats.{c}": ("count", "serve-mixed", "ops_per_s")
        for c in serve_mixed.STAT_COUNTERS
    },
    "server.cpu_busy_share": ("ratio", "serve-mixed", "latency_tail_ms"),
    "gen.lag_p99_ms": ("ms", "serve-mixed", "latency_tail_ms"),
    "gen.lag_max_ms": ("ms", "serve-mixed", "latency_tail_ms"),
    "trace.overhead.ops_per_s_share": ("ratio", "all", "ops_per_s"),
    "trace.overhead.latency_p50_share": ("ratio", "all", "latency_p50_ms"),
}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(workload: str, seed: int, seconds: int, *extra: str) -> dict:
    """Run this script for one workload in a fresh process; its last JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing: {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return result


def _digest_ok(workload: str, seed: int, seconds: int, digest: str) -> bool | None:
    """Compare with the digest pinned for one seed and run length, if this is it."""
    pinned = json.loads((HERE / "expected.json").read_text())
    if (seed, seconds) != (pinned["seed"], pinned["seconds"]):
        return None
    return pinned["digests"].get(workload) == digest


def measure(args: argparse.Namespace) -> int:
    module = WORKLOADS[args.workload]
    plan = module.plan(args.seed, args.seconds)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, plan["work"])
    if args.trace:
        tracer = Tracer()
        outcome = module.run(plan, tracer, setup_reps=0)
        layers = dict(outcome.layers)
        overhead_ops = overhead_p50 = 0.0  # a pass that wrapped nothing ran untraced code
        if tracer.wrapped:
            traced = outcome.end_to_end()
            base = _child(args.workload, args.seed, args.seconds, "--skip-setup")["metrics"]
            overhead_ops = base["ops_per_s"]["value"] / traced["ops_per_s"] - 1
            overhead_p50 = traced["latency_p50_ms"] / base["latency_p50_ms"]["value"] - 1
        layers["trace.overhead.ops_per_s_share"] = overhead_ops
        layers["trace.overhead.latency_p50_share"] = overhead_p50
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _, _) in LAYERS.items()
        }
        span_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
        tracer.write(span_path, {"provenance": prov})
        print(f"spans: {span_path.relative_to(ROOT)} ({len(tracer.spans)} kept, "
              f"{tracer.dropped} beyond the cap)")
    else:
        outcome = module.run(plan, None, setup_reps=0 if args.skip_setup else module.SETUP_REPS)
        values = outcome.end_to_end()
        if args.skip_setup:
            values.pop("setup_s")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
            if name in values
        }

    digest_ok = _digest_ok(args.workload, args.seed, args.seconds, outcome.digest)
    samples, _ = outcome.timing()
    prov["timing_samples"] = len(samples)
    prov["tail_percentile"] = tail_percentile(len(samples))
    if outcome.op_keys is not None:
        prov["all_samples"] = outcome.all_samples()
    prov["digest"] = {"value": outcome.digest, "pinned_match": digest_ok}
    correct = outcome.failed == 0 and digest_ok is not False
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if digest_ok is False:
        print(f"FAILED digest {outcome.digest} differs from perfbench/expected.json",
              file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in metrics.items():
        where = ""
        if args.trace:
            _, workload, moves = LAYERS[name]
            where = f"  [{workload} -> {moves}]"
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{where}")
    print(f"{args.workload} attempted = {outcome.attempted}, failed = {outcome.failed}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov, "failures": outcome.failures}, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


def steady(args: argparse.Namespace) -> int:
    """Rerun the workloads, alternating their order, and print each spread."""
    bench = _benchmark_json()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    failures = 0
    for rep in range(args.repeats):
        order = list(WORKLOADS) if rep % 2 == 0 else list(WORKLOADS)[::-1]
        for workload in order:
            seed = args.seed_base + rep
            started = time.monotonic()
            result = _child(workload, seed, args.seconds)
            failures += int(not result["correct"] or result["returncode"] != 0)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {rep} {workload} seed {seed}: {time.monotonic() - started:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    report = {}
    for workload, per_metric in values.items():
        for name, series in per_metric.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            bound = bounds.get(name)
            verdict = (
                "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            )
            report[f"{workload}/{name}"] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "verdict": verdict, "values": series,
            }
            print(f"{workload:13s} {name:16s} median {q2:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bound} {verdict}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{int(time.time())}.json"
    path.write_text(json.dumps({"seconds": args.seconds, "seed_base": args.seed_base,
                                "repeats": args.repeats, "report": report}, indent=1))
    print(f"steadiness report: {path.relative_to(ROOT)}; failed runs: {failures}")
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="rerun workloads on successive seeds and report spreads")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--skip-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = int(_benchmark_json()["run_seconds"])
    if args.steady:
        return steady(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
