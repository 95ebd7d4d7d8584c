"""Tests for the repro.engine subsystem (registry, cache, scheduler, CLI)."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import threading
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
from repro.engine.artifacts import RunRecord
from repro.engine.cache import encode_result
from repro.errors import (
    EngineError,
    JobFailedError,
    JobTimeoutError,
    ReproError,
    UnknownJobError,
)
from repro.util.canonical import DECIMAL_MAX_BITS, canonical_digest, canonical_encode

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

    def test_small_ints_keep_their_decimal_encoding(self):
        # Cache keys are digests of this encoding: pinning it pins them.
        assert canonical_encode((0, -7, 2**64)) == "t3:i0,i-7,i18446744073709551616"
        assert canonical_encode({"n": 16}) == "d1:s1:n=i16;"
        top = 2**DECIMAL_MAX_BITS - 1
        assert canonical_encode(top) == f"i{top}"
        assert canonical_encode(-top) == f"i{-top}"

    def test_huge_ints_are_hex(self):
        assert canonical_encode(2**DECIMAL_MAX_BITS) == "h1" + "0" * (DECIMAL_MAX_BITS // 4)
        assert canonical_encode(-(2**DECIMAL_MAX_BITS)) == "h-1" + "0" * (DECIMAL_MAX_BITS // 4)

    def test_injective_across_the_hex_threshold(self):
        edge = 2**DECIMAL_MAX_BITS
        values = {
            sign * (base + delta)
            for sign in (1, -1)
            for base in (edge >> 1, edge, edge << 1)
            for delta in (-1, 0, 1)
        }
        encodings = {canonical_encode(value) for value in values}
        assert len(encodings) == len(values)
        # A tag never collides with a composite's separators.
        assert canonical_encode((edge, 1)) != canonical_encode((edge + 1,))

    def test_encoding_ignores_the_digit_limit(self):
        values = [2**DECIMAL_MAX_BITS - 1, 2**DECIMAL_MAX_BITS, 10**5000, -(10**5000)]
        default = [canonical_encode(v) for v in values]
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)  # the lowest limit Python allows
            assert [canonical_encode(v) for v in values] == default
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("n", [14_400, 20_000])
    def test_certificate_to_key_past_the_digit_limit(self, n):
        from repro.core.lower_bound import certificate

        key = certificate(n).to_key()
        assert key == certificate(n).to_key()
        assert key != certificate(n + 4).to_key()


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
        cache.put("certificate", key, {"n": 16}, "fp", {"margin": 16640}, '{"margin":16640}')
        entry = cache.get("certificate", key)
        assert entry["result"] == {"margin": 16640}
        assert entry["params"] == {"n": 16}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "1" * 64
        cache.put("job", key, {}, "fp", 1, "1")
        path = next((tmp_path / "v1" / "job").glob("*.json"))
        path.write_text("{not json")
        assert cache.get("job", key) is None

    def test_stats_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", "0" * 64, {}, "fp", 1, "1")
        cache.put("b", "1" * 64, {}, "fp", 2, "2")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert set(stats["jobs"]) == {"a", "b"}
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_stats_count_only_skips_size_walk(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", "0" * 64, {}, "fp", 1, "1")
        cache.put("b", "1" * 64, {}, "fp", 2, "2")
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
        cache.put("job", "0" * 64, {}, "fp", 1, "1")  # must not raise
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

    @pytest.mark.parametrize(
        "error, backend", [(None, None), ("boom", None), (None, "words"), ("boom", "words")]
    )
    def test_record_json_matches_asdict(self, error, backend):
        from dataclasses import asdict

        record = RunRecord(
            run_id="r1",
            job="certificate",
            params={"n": 16, "columns": (1, 3)},
            key="k" * 64,
            cache="miss",
            outcome="ok" if error is None else "error",
            wall_ms=1.5,
            result_bytes=418,
            started_at=1754.25,
            pid=42,
            attempt=2,
            retries=3,
            error=error,
            backend=backend,
        )
        expected = {"kind": "job", **asdict(record)}
        for optional in ("error", "backend"):
            if expected[optional] is None:
                del expected[optional]
        payload = record.to_json()
        assert payload == expected
        assert list(payload) == list(expected)

    def test_cache_hit_recorded(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Engine(cache=DiskCache(cache_dir)).run_one("certificate", {"n": 16})
        log = RunLog(path=tmp_path / "runs.jsonl")
        engine = Engine(cache=DiskCache(cache_dir), run_log=log)
        engine.run_one("certificate", {"n": 16})
        record = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[0])
        assert record["cache"] == "hit" and record["wall_ms"] == 0.0


def _odd_result(params, deps):
    """A result in every shape the JSON round-trip rewrites."""
    return {
        "huge": 3**900,
        "negative": -(2**200),
        "text": "Ünïcødé ∑ 𝓛 \u0000 \"quoted\"",
        "floats": [0.1, -0.0, 1e300, 2.5e-8, float("nan")],
        "pair": (1, ("a", 2.0)),
        "by_int": {10: "ten", 2: "two", -1: "minus one", 0: "zero"},
        "by_float": {1.5: "x", 10.25: "y"},
        "by_flag": {True: 1, False: 0},
        "by_number_text": {"10": 1, "9": 2},
        "nested": [{3: [1, 2]}, {"b": {}, "a": []}],
        "seed": params["seed"],
    }


_ODD_REGISTRY = JobRegistry()
_ODD_REGISTRY.job("odd", params=("seed",))(_odd_result)


class TestResultEncoding:
    """Each result is encoded once; files and ``result_bytes`` keep their bytes."""

    @staticmethod
    def _legacy_file(job, params, fingerprint, raw):
        # Reference: round-trip the result through JSON, then encode the
        # whole entry at once.
        result = json.loads(json.dumps(raw, sort_keys=True))
        entry = {
            "format": "v1",
            "job": job,
            "params": params,
            "fingerprint": fingerprint,
            "result": result,
        }
        return (
            json.dumps(entry, sort_keys=True, separators=(",", ":")),
            len(json.dumps(result, sort_keys=True, separators=(",", ":"))),
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_entry_files_and_result_bytes(self, tmp_path, jobs):
        log = RunLog(path=None)
        engine = Engine(
            registry=_ODD_REGISTRY, cache=DiskCache(tmp_path), jobs=jobs, run_log=log
        )
        results = engine.run([Request.make("odd", {"seed": s}) for s in (1, 2)])
        files = sorted((tmp_path / "v1" / "odd").glob("*.json"))
        assert len(files) == 2 and len(log.records) == 2
        records = {record.params["seed"]: record for record in log.records}
        for path in files:
            text = path.read_text(encoding="utf-8")
            entry = json.loads(text)
            seed = entry["params"]["seed"]
            raw = _odd_result({"seed": seed}, [])
            legacy_text, legacy_bytes = self._legacy_file(
                "odd", {"seed": seed}, entry["fingerprint"], raw
            )
            assert text == legacy_text
            assert text == json.dumps(entry, sort_keys=True, separators=(",", ":"))
            assert records[seed].result_bytes == legacy_bytes
            returned = results[Request.make("odd", {"seed": seed})]
            assert json.dumps(returned, sort_keys=True) == json.dumps(
                entry["result"], sort_keys=True
            )

    def test_hit_reports_the_miss_size(self, tmp_path):
        sizes = []
        for _ in range(2):
            log = RunLog(path=None)
            Engine(registry=_ODD_REGISTRY, cache=DiskCache(tmp_path), run_log=log).run_one(
                "odd", {"seed": 3}
            )
            sizes.append((log.records[0].cache, log.records[0].result_bytes))
        assert sizes[0][0] == "miss" and sizes[1][0] == "hit"
        assert sizes[0][1] == sizes[1][1] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "registry, job, params",
        [(None, "certificate", {"n": 4096}), (_ODD_REGISTRY, "odd", {"seed": 5})],
        ids=["certificate-4096", "int-keys-non-ascii"],
    )
    def test_hits_report_the_miss_size_without_encoding(
        self, tmp_path, monkeypatch, jobs, registry, job, params
    ):
        from repro.engine import cache as cache_module
        from repro.engine import scheduler
        from repro.serve.hot import HotLRU

        def run(cache):
            log = RunLog(path=None)
            result = Engine(registry=registry, cache=cache, jobs=jobs, run_log=log).run_one(
                job, params
            )
            (record,) = log.records
            return record.cache, record.result_bytes, result

        hot = HotLRU(DiskCache(tmp_path), max_entries=4)
        state, size, result = run(hot)
        assert state == "miss" and size == len(cache_module.encode_result(result))
        calls = []
        real_encode = cache_module.encode_result

        def counting_encode(value):
            calls.append(value)
            return real_encode(value)

        monkeypatch.setattr(scheduler, "encode_result", counting_encode)
        monkeypatch.setattr(cache_module, "encode_result", counting_encode)
        assert run(hot)[:2] == ("hit", size)  # hot hit
        assert run(HotLRU(DiskCache(tmp_path), max_entries=4))[:2] == ("hit", size)
        assert run(DiskCache(tmp_path))[:2] == ("hit", size)  # disk hit
        assert calls == []

    def test_job_directory_is_recreated(self, tmp_path):
        import shutil

        cache = DiskCache(tmp_path)
        cache.put("job", "0" * 64, {}, "fp", 1, "1")
        shutil.rmtree(tmp_path / "v1")
        cache.put("job", "1" * 64, {}, "fp", 2, "2")
        assert cache.get("job", "1" * 64)["result"] == 2

    def test_non_json_result_fails_at_the_job(self):
        registry = JobRegistry()
        registry.job("bad", params=())(lambda params, deps: {"x": object()})
        with pytest.raises(JobFailedError, match="not JSON serializable"):
            Engine(registry=registry, cache=None).run_one("bad")


class TestCacheWrites:
    """Entries are written through a ``mkstemp`` temp file, then renamed."""

    def test_entry_is_mode_0600(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("job", "0" * 64, {}, "fp", 1, "1")
        (entry,) = (tmp_path / "v1" / "job").iterdir()
        assert entry.name == "0" * 64 + ".json"
        assert stat.S_IMODE(entry.stat().st_mode) == 0o600

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, failing):
        cache = DiskCache(tmp_path)
        cache.put("job", "0" * 64, {}, "fp", 1, "1")

        def refuse(*args):
            raise OSError(f"{failing} refused")

        monkeypatch.setattr(os, failing, refuse)
        cache.put("job", "1" * 64, {}, "fp", 2, "2")  # swallowed: degrade, never fail
        monkeypatch.undo()
        assert [p.name for p in (tmp_path / "v1" / "job").iterdir()] == ["0" * 64 + ".json"]

    def test_threads_writing_one_key_leave_one_valid_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = {"margin": 16640, "text": "Ünïcødé", "by_int": {10: "ten", 2: "two"}}
        encoded = encode_result(result)
        barrier = threading.Barrier(8)

        def write():
            barrier.wait(timeout=10)
            for _ in range(25):
                cache.put("job", "0" * 64, {"n": 16}, "fp", result, encoded)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert [p.name for p in (tmp_path / "v1" / "job").iterdir()] == ["0" * 64 + ".json"]
        entry = cache.get("job", "0" * 64)
        assert entry["result"] == json.loads(encoded)
        assert entry["result_bytes"] == len(encoded)


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

    def test_sizes_row_builds_no_nfa(self):
        from repro.languages.nfa_ln import ln_match_nfa

        before = ln_match_nfa.cache_info()
        row = Engine(cache=None).run_one("sizes.row", {"n": 1237})
        assert row["nfa_states"] == 1239
        assert ln_match_nfa.cache_info() == before


_SCAN = {"c": 2, "w": 1, "columns": [1, 2], "n_docs": 4}
#: Every non-debug job: parameters it needs beyond its integer ones, and
#: its integer parameters (each valid as 1 unless given here).
_INT_PARAMS = {
    "sizes.row": ({}, ("n",)),
    "sizes.table": ({}, ("max_exp",)),
    "certificate": ({}, ("n",)),
    "grammar": ({}, ("n",)),
    "cover": ({}, ("n",)),
    "lemma18": ({}, ("m",)),
    "discrepancy.partition": ({"m": 1, "lo": 0, "hi": 1}, ("m", "lo", "hi")),
    "discrepancy": ({}, ("m",)),
    "rank": ({}, ("p",)),
    "comm.cover.solve": ({"matrix": "intersection:2"}, ("node_budget",)),
    "example3": ({}, ("k",)),
    "zoo.row": ({}, ("n",)),
    "zoo.table": ({}, ("max_n",)),
    "automata.determinise": ({}, ("n",)),
    "automata.ambiguity": ({}, ("n",)),
    "automata.count": ({"n": 2, "length": 4}, ("n", "length")),
    "backends.bench": ({}, ("repeats", "seed")),
    "member": ({"word": "abab"}, ("n",)),
    "extract.stream": (_SCAN, ("c", "w", "n_docs", "seed", "lo", "hi", "chunk_chars")),
    "extract.scan": (_SCAN, ("c", "w", "n_docs", "seed", "lo", "hi", "chunk_chars")),
    "extract.verify": (_SCAN, ("c", "w", "n_docs", "seed", "lo", "hi", "chunk_chars")),
    "extract.aggregate": (_SCAN, ("c", "w", "shards", "chunk_chars", "verify_docs")),
}


class TestIntegerParams:
    def test_table_covers_every_job(self):
        names = {n for n in default_registry().names() if not n.startswith("debug.")}
        assert names == set(_INT_PARAMS)

    @pytest.mark.parametrize("bad", [True, 4.0, "4"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize(
        "job, name",
        [(job, name) for job, (_, names) in _INT_PARAMS.items() for name in names],
    )
    def test_non_int_is_refused_by_name(self, job, name, bad):
        base, names = _INT_PARAMS[job]
        params = {**dict.fromkeys(names, 1), **base, name: bad}
        with pytest.raises(ReproError, match=f"{name} must be an int"):
            Engine(cache=None).run_one(job, params)


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

    def test_non_utf8_entry_is_recomputed(self, tmp_path):
        """An entry that is not UTF-8 is a miss: the run recomputes it,
        exits 0 and rewrites the entry."""
        argv = ("run", "certificate", "-p", "n=64", "--cache-dir", str(tmp_path))
        assert self._repro(*argv, cache_dir=str(tmp_path)).returncode == 0
        (entry,) = (tmp_path / "v1" / "certificate").glob("*.json")
        expected = json.loads(entry.read_text(encoding="utf-8"))["result"]
        entry.write_bytes(b"\xff\xfe{bad")
        again = self._repro(*argv, cache_dir=str(tmp_path))
        assert again.returncode == 0, again.stderr
        assert "0 cache hits, 1 misses" in again.stdout
        assert json.loads(entry.read_text(encoding="utf-8"))["result"] == expected

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
