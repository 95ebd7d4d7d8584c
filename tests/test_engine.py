"""Tests for the repro.engine subsystem (registry, cache, scheduler, CLI)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import (
    DiskCache,
    Engine,
    JobRegistry,
    NullCache,
    Request,
    RunLog,
    cache_key,
    code_fingerprint,
    default_registry,
)
from repro.errors import EngineError, JobFailedError, JobTimeoutError, UnknownJobError
from repro.util.canonical import canonical_digest, canonical_encode

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(code: str, **env_extra: str) -> str:
    env = dict(os.environ, PYTHONPATH=REPO_SRC, **env_extra)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestCanonicalEncoding:
    def test_dict_order_invariance(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_set_order_invariance(self):
        assert canonical_encode({3, 1, 2}) == canonical_encode({2, 3, 1})

    def test_injective_on_composites(self):
        assert canonical_encode(("a", "b")) != canonical_encode(("a,b",))
        assert canonical_encode([1, 2]) != canonical_encode((1, 2))
        assert canonical_encode(1) != canonical_encode(True)

    def test_rejects_unsupported(self):
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_digest_shape(self):
        assert len(canonical_digest({"n": 16})) == 64


class TestKeyStability:
    """Cache keys must not depend on the hash seed of the producing process."""

    def test_cache_key_stable_across_hash_seeds(self):
        code = (
            "from repro.engine import cache_key;"
            "print(cache_key('certificate', {'n': 16}, ('repro.core.lower_bound',)))"
        )
        key_a = _run_python(code, PYTHONHASHSEED="1")
        key_b = _run_python(code, PYTHONHASHSEED="31337")
        assert key_a == key_b == cache_key(
            "certificate", {"n": 16}, ("repro.core.lower_bound",)
        )

    def test_cfg_to_key_stable_across_hash_seeds(self):
        code = (
            "from repro.languages.small_grammar import small_ln_grammar;"
            "print(small_ln_grammar(12).to_key())"
        )
        assert _run_python(code, PYTHONHASHSEED="1") == _run_python(
            code, PYTHONHASHSEED="31337"
        )

    def test_nfa_to_key_stable_across_hash_seeds(self):
        code = (
            "from repro.languages.nfa_ln import ln_nfa_exact;"
            "print(ln_nfa_exact(4).to_key())"
        )
        assert _run_python(code, PYTHONHASHSEED="1") == _run_python(
            code, PYTHONHASHSEED="31337"
        )

    def test_certificate_to_key_stable(self):
        from repro.core.lower_bound import certificate

        assert certificate(16).to_key() == certificate(16).to_key()

    def test_cfg_key_tracks_equality(self):
        from repro.grammars.cfg import CFG

        g = CFG("ab", ["S"], [("S", ("a", "S", "b")), ("S", ())], "S")
        h = CFG("ab", ["S"], [("S", ()), ("S", ("a", "S", "b"))], "S")
        other = CFG("ab", ["S"], [("S", ("a",))], "S")
        assert g.to_key() == h.to_key()
        assert g.to_key() != other.to_key()

    def test_key_changes_with_params(self):
        assert cache_key("certificate", {"n": 16}) != cache_key(
            "certificate", {"n": 32}
        )

    def test_list_and_tuple_params_share_a_key(self):
        """Raw JSON lists and the engine's canonical tuples are one key."""
        listed = cache_key("extract.scan", {"columns": [1, 3], "w": 2})
        assert listed == cache_key("extract.scan", {"w": 2, "columns": (1, 3)})
        nested = cache_key("comm.cover.solve", {"matrix": [[1, 0], [0, 1]]})
        assert nested == cache_key("comm.cover.solve", {"matrix": ((1, 0), (0, 1))})
        assert listed != cache_key("extract.scan", {"columns": [1, 4], "w": 2})

    def test_fingerprint_changes_with_module_set(self):
        assert code_fingerprint(("repro.core.lower_bound",)) != code_fingerprint(
            ("repro.core.discrepancy",)
        )


class TestDiskCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "0" * 64
        assert cache.get("certificate", key) is None
        cache.put("certificate", key, {"n": 16}, "fp", {"margin": 16640})
        entry = cache.get("certificate", key)
        assert entry["result"] == {"margin": 16640}
        assert entry["params"] == {"n": 16}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "1" * 64
        cache.put("job", key, {}, "fp", 1)
        path = next((tmp_path / "v1" / "job").glob("*.json"))
        path.write_text("{not json")
        assert cache.get("job", key) is None

    def test_stats_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", "0" * 64, {}, "fp", 1)
        cache.put("b", "1" * 64, {}, "fp", 2)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert set(stats["jobs"]) == {"a", "b"}
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_stats_count_only_skips_size_walk(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", "0" * 64, {}, "fp", 1)
        cache.put("b", "1" * 64, {}, "fp", 2)
        full = cache.stats()
        cheap = cache.stats(count_only=True)
        assert cheap["entries"] == full["entries"] == 2
        assert set(cheap["jobs"]) == set(full["jobs"])
        assert full["bytes"] > 0
        assert cheap["bytes"] is None  # the stat() pass was skipped
        assert all(job["bytes"] is None for job in cheap["jobs"].values())

    def test_null_cache_stats_shape_matches(self, tmp_path):
        disk_keys = set(DiskCache(tmp_path).stats())
        null = NullCache()
        for count_only in (False, True):
            stats = null.stats(count_only=count_only)
            assert set(stats) == disk_keys
            assert stats["entries"] == 0

    def test_truncated_entry_recomputed_by_engine(self, tmp_path):
        """A half-written entry (e.g. interrupted writer) is a miss, the
        engine recomputes, and the recompute repairs the entry."""
        cache_dir = tmp_path / "cache"
        Engine(cache=DiskCache(cache_dir)).run_one("certificate", {"n": 16})
        (entry,) = (cache_dir / "v1" / "certificate").glob("*.json")
        entry.write_text(entry.read_text()[:10])
        log = RunLog(path=None)
        engine = Engine(cache=DiskCache(cache_dir), run_log=log)
        assert engine.run_one("certificate", {"n": 16})["margin"] == 16640
        assert [r.cache for r in log.records] == ["miss"]
        repaired = RunLog(path=None)
        Engine(cache=DiskCache(cache_dir), run_log=repaired).run_one(
            "certificate", {"n": 16}
        )
        assert [r.cache for r in repaired.records] == ["hit"]

    def test_unwritable_cache_degrades_to_recomputation(self, tmp_path):
        """put() must never fail the computation: with a path that cannot
        exist (a regular file where a directory is needed) writes are
        swallowed and every lookup stays a miss."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = DiskCache(blocker / "cache")
        cache.put("job", "0" * 64, {}, "fp", 1)  # must not raise
        assert cache.get("job", "0" * 64) is None
        log = RunLog(path=None)
        engine = Engine(cache=cache, run_log=log)
        assert engine.run_one("certificate", {"n": 16})["margin"] == 16640
        assert [r.cache for r in log.records] == ["miss"]
        assert cache.stats()["entries"] == 0

    def test_null_cache_counts_misses_under_parallel_runs(self):
        cache = NullCache()
        engine = Engine(cache=cache, jobs=2)
        engine.run([Request.make("sizes.table", {"max_exp": 4})])
        summary = engine.last_summary
        assert summary["misses"] == summary["jobs"] > 0
        assert summary["hits"] == 0 and summary["off"] == 0
        assert cache.misses == summary["jobs"]
        assert cache.stats()["entries"] == 0

    def test_engine_hit_miss_accounting(self, tmp_path):
        first = Engine(cache=DiskCache(tmp_path))
        first.run([Request.make("sizes.table", {"max_exp": 4})])
        assert first.last_summary["misses"] == 4
        assert first.last_summary["hits"] == 0
        second = Engine(cache=DiskCache(tmp_path))
        second.run([Request.make("sizes.table", {"max_exp": 4})])
        assert second.last_summary["hits"] == 4
        assert second.last_summary["misses"] == 0


class TestDagScheduling:
    def _chain_registry(self, trace: list[str]) -> JobRegistry:
        registry = JobRegistry()

        @registry.job("leaf", params=("name",))
        def leaf(params, deps):
            trace.append(params["name"])
            return params["name"]

        @registry.job(
            "mid",
            params=("name",),
            deps=lambda p: [
                Request.make("leaf", {"name": "x"}),
                Request.make("leaf", {"name": "y"}),
            ],
        )
        def mid(params, deps):
            trace.append(params["name"])
            return [params["name"], deps]

        @registry.job(
            "top",
            params=(),
            deps=lambda p: [
                Request.make("mid", {"name": "m1"}),
                Request.make("mid", {"name": "m2"}),
            ],
        )
        def top(params, deps):
            trace.append("top")
            return deps

        return registry

    def test_dependencies_execute_before_dependents(self):
        trace: list[str] = []
        engine = Engine(registry=self._chain_registry(trace), cache=None)
        result = engine.run_one("top")
        assert trace.index("x") < trace.index("m1")
        assert trace.index("y") < trace.index("m1")
        assert trace.index("m2") < trace.index("top")
        assert result == [["m1", ["x", "y"]], ["m2", ["x", "y"]]]

    def test_shared_dependencies_run_once(self):
        trace: list[str] = []
        engine = Engine(registry=self._chain_registry(trace), cache=None)
        engine.run_one("top")
        # The diamond: both mid jobs share the leaves; each leaf runs once.
        assert sorted(trace) == ["m1", "m2", "top", "x", "y"]
        assert engine.last_summary["jobs"] == 5

    def test_deep_chain_expands_beyond_recursion_limit(self):
        registry = JobRegistry()

        @registry.job(
            "chain",
            params=("i",),
            deps=lambda p: (
                [] if p["i"] == 0 else [Request.make("chain", {"i": p["i"] - 1})]
            ),
        )
        def chain(params, deps):
            return (deps[0] if deps else 0) + 1

        depth = 5000
        assert depth > sys.getrecursionlimit()
        engine = Engine(registry=registry, cache=None)
        assert engine.run_one("chain", {"i": depth}) == depth + 1
        assert engine.last_summary["jobs"] == depth + 1

    def test_cycle_detection(self):
        registry = JobRegistry()

        @registry.job("a", deps=lambda p: [Request.make("b")])
        def job_a(params, deps):
            return None

        @registry.job("b", deps=lambda p: [Request.make("a")])
        def job_b(params, deps):
            return None

        with pytest.raises(EngineError, match="cycle"):
            Engine(registry=registry, cache=None).run_one("a")

    def test_unknown_job(self):
        with pytest.raises(UnknownJobError):
            Engine(cache=None).run_one("no.such.job")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(EngineError, match="does not accept"):
            Engine(cache=None).run_one("certificate", {"bogus": 1})

    def test_serial_and_parallel_results_identical(self, tmp_path):
        request = Request.make("sizes.table", {"max_exp": 5})
        serial = Engine(cache=DiskCache(tmp_path / "s"), jobs=1).run([request])
        parallel = Engine(cache=DiskCache(tmp_path / "p"), jobs=2).run([request])
        assert serial == parallel


class TestFailurePropagation:
    def test_serial_failure(self):
        with pytest.raises(JobFailedError, match="boom") as excinfo:
            Engine(cache=None).run_one("debug.fail", {"message": "boom"})
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_worker_failure(self):
        with pytest.raises(JobFailedError, match="boom"):
            Engine(cache=None, jobs=2).run_one("debug.fail", {"message": "boom"})

    def test_worker_timeout(self):
        with pytest.raises(JobTimeoutError):
            Engine(cache=None, jobs=2, timeout=0.2).run_one(
                "debug.sleep", {"seconds": 30}
            )

    def test_failure_recorded_in_run_log(self, tmp_path):
        log = RunLog(path=tmp_path / "runs.jsonl")
        with pytest.raises(JobFailedError):
            Engine(cache=None, run_log=log).run_one("debug.fail", {})
        lines = [
            json.loads(line)
            for line in (tmp_path / "runs.jsonl").read_text().splitlines()
        ]
        assert any(
            line["kind"] == "job" and line["outcome"] == "error" for line in lines
        )


class TestRunArtifacts:
    def test_jsonl_schema(self, tmp_path):
        log = RunLog(path=tmp_path / "runs.jsonl")
        engine = Engine(cache=DiskCache(tmp_path / "cache"), run_log=log)
        engine.run([Request.make("certificate", {"n": 16})])
        lines = [
            json.loads(line)
            for line in (tmp_path / "runs.jsonl").read_text().splitlines()
        ]
        jobs = [line for line in lines if line["kind"] == "job"]
        summaries = [line for line in lines if line["kind"] == "run_summary"]
        assert len(jobs) == 1 and len(summaries) == 1
        (record,) = jobs
        assert record["job"] == "certificate"
        assert record["params"] == {"n": 16}
        assert record["cache"] == "miss"
        assert record["outcome"] == "ok"
        assert len(record["key"]) == 64
        assert record["result_bytes"] > 0
        assert summaries[0]["jobs"] == 1 and summaries[0]["misses"] == 1

    def test_started_at_marks_execution_start(self):
        """Regression: started_at used to be stamped when the record was
        written (after the job finished), making wall-clock reconstruction
        from artifacts wrong."""
        for jobs in (1, 2):
            log = RunLog(path=None)
            engine = Engine(cache=None, jobs=jobs, run_log=log)
            t0 = time.time()
            engine.run_one("debug.sleep", {"seconds": 0.25})
            (record,) = log.records
            assert record.started_at - t0 < 0.15, (
                f"started_at stamped at record time, not job start (jobs={jobs})"
            )
            assert record.started_at >= t0 - 0.01

    def test_summary_separates_uncached_from_misses(self):
        """cache=None runs are 'off', not misses; hits+misses+off == jobs."""
        engine = Engine(cache=None)
        engine.run([Request.make("sizes.table", {"max_exp": 4})])
        summary = engine.last_summary
        assert summary["off"] == summary["jobs"] > 0
        assert summary["misses"] == 0 and summary["hits"] == 0
        assert (
            summary["hits"] + summary["misses"] + summary["off"]
            == summary["jobs"]
        )

    def test_cache_hit_recorded(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Engine(cache=DiskCache(cache_dir)).run_one("certificate", {"n": 16})
        log = RunLog(path=tmp_path / "runs.jsonl")
        engine = Engine(cache=DiskCache(cache_dir), run_log=log)
        engine.run_one("certificate", {"n": 16})
        record = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[0])
        assert record["cache"] == "hit" and record["wall_ms"] == 0.0


class TestBuiltinJobs:
    def test_registry_contents(self):
        names = default_registry().names()
        for expected in (
            "sizes.row",
            "sizes.table",
            "certificate",
            "cover",
            "lemma18",
            "rank",
            "zoo.row",
            "zoo.table",
        ):
            assert expected in names

    def test_certificate_job_matches_library(self):
        from repro.core.lower_bound import certificate

        result = Engine(cache=None).run_one("certificate", {"n": 16})
        assert result["margin"] == certificate(16).margin

    def test_lemma18_job(self):
        result = Engine(cache=None).run_one("lemma18", {"m": 2})
        for quantity in result["quantities"].values():
            assert quantity["enumerated"] == quantity["formula"]

    def test_cover_job(self):
        result = Engine(cache=None).run_one("cover", {"n": 2})
        assert result["disjoint"] is True
        assert result["n_rectangles"] <= result["proposition7_bound"]

    def test_rank_job(self):
        result = Engine(cache=None).run_one("rank", {"p": 3})
        assert result["rank_q"] == 2**3 - 1


class TestMemoizedConstructors:
    def test_small_ln_grammar_memoized(self):
        from repro.languages.small_grammar import small_ln_grammar

        assert small_ln_grammar(9) is small_ln_grammar(9)
        assert small_ln_grammar(9) == small_ln_grammar(9)

    def test_ln_match_nfa_memoized(self):
        from repro.languages.nfa_ln import ln_match_nfa

        assert ln_match_nfa(7) is ln_match_nfa(7)
        assert ln_match_nfa(7).n_states == 9

    def test_example4_size_memoized(self):
        from repro.languages.unambiguous_grammar import example4_size, example4_ucfg

        assert example4_size(64) == example4_size(64)
        assert example4_size(3) == example4_ucfg(3).size

    def test_certificate_memoized(self):
        from repro.core.lower_bound import certificate

        assert certificate(20) is certificate(20)


class TestEngineCli:
    def _repro(self, *argv: str, cache_dir: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_CACHE_DIR=cache_dir)
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_run_with_two_workers(self, tmp_path):
        result = self._repro(
            "run", "certificate", "-p", "n=16", "--jobs", "2", cache_dir=str(tmp_path)
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout[: result.stdout.rindex("}") + 1])
        assert payload["margin"] == 16640

    def test_sweep_sizes_caches(self, tmp_path):
        first = self._repro(
            "sweep", "sizes", "--max-exp", "5", "--jobs", "2", cache_dir=str(tmp_path)
        )
        assert first.returncode == 0, first.stderr
        assert "0 cache hits" in first.stdout
        second = self._repro(
            "sweep", "sizes", "--max-exp", "5", "--jobs", "2", cache_dir=str(tmp_path)
        )
        assert "5 cache hits, 0 misses" in second.stdout
        # The tables themselves are byte-identical across runs and modes.
        serial = self._repro(
            "sweep", "sizes", "--max-exp", "5", "--jobs", "1", cache_dir=str(tmp_path)
        )
        assert serial.stdout == second.stdout

    def test_run_list(self, tmp_path):
        result = self._repro("run", "--list", cache_dir=str(tmp_path))
        assert result.returncode == 0
        assert "certificate" in result.stdout and "sizes.table" in result.stdout

    def test_cache_stats_and_clear(self, tmp_path):
        self._repro("run", "certificate", "-p", "n=16", cache_dir=str(tmp_path))
        stats = self._repro("cache", "stats", cache_dir=str(tmp_path))
        assert json.loads(stats.stdout)["entries"] == 1
        cleared = self._repro("cache", "clear", cache_dir=str(tmp_path))
        assert "removed 1" in cleared.stdout

    def test_parser_accepts_failure_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run",
                "debug.echo",
                "--on-timeout",
                "skip",
                "--max-retries",
                "2",
                "--retry-backoff",
                "0.05",
            ]
        )
        assert args.on_timeout == "skip"
        assert args.max_retries == 2
        assert args.retry_backoff == 0.05

    def test_run_retries_flaky_job(self, tmp_path):
        result = self._repro(
            "run",
            "debug.flaky",
            "-p",
            "fails=1",
            "--jobs",
            "2",
            "--max-retries",
            "2",
            "--retry-backoff",
            "0.01",
            cache_dir=str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout[: result.stdout.rindex("}") + 1])
        assert payload["succeeded_on_attempt"] == 2

    def test_bad_job_name_fails_cleanly(self, tmp_path):
        result = self._repro("run", "nope", cache_dir=str(tmp_path))
        assert result.returncode == 2
        assert "unknown job" in result.stderr
