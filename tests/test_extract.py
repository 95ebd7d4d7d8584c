"""The streaming extraction pipeline: chunk-boundary exactness, oracles,
compile invariants, stream specs, and the ``extract.*`` job family.

The load-bearing suite is ``TestChunkBoundaries``: for every chunk size
in a window around the document length, the chunked scan must reproduce
the single-chunk scan and both oracles bit-exactly — matches straddling
a boundary at every possible offset are exercised by construction.  CI
runs this file under both the ``reference`` and ``words`` backends.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.backend import available_backends, get_backend, use_backend
from repro.errors import JobFailedError, ReproError
from repro.extract import (
    StreamScanner,
    StreamSpec,
    batched_oracle_scan,
    compile_scanner,
    naive_cfg_scan,
    relation_pairs,
    scan_stream,
    scanner_for_spec,
    semantic_scan,
)
from repro.extract import spec as spec_module
from repro.extract.compile import column_relation_nfa
from repro.spanners import (
    column_match_cfg,
    column_relation_cfg,
    decode_ln_word,
    document_word,
    encode_ln_word,
    is_column_related,
    split_document,
)
from repro.words.alphabet import AB
from repro.words.ops import all_words
from tests.legacy_extract import legacy_document

SPEC = StreamSpec(c=3, w=1, columns=(1, 3), n_docs=40, seed=5, match_bias=0.3)


# ----------------------------------------------------------------------
# Stream specs
# ----------------------------------------------------------------------


class TestStreamSpec:
    def test_documents_are_deterministic_and_shard_independent(self):
        spec = StreamSpec(c=4, w=2, columns=(1, 4), n_docs=30, seed=3)
        full = list(spec.iter_documents())
        assert full == list(spec.iter_documents())
        # Any shard regenerates exactly its slice of the full stream.
        assert list(spec.iter_documents(10, 25)) == full[10:25]
        assert all(len(doc) == spec.doc_len for doc in full)

    def test_chunks_reassemble_the_stream(self):
        text = SPEC.text()
        for chunk_chars in (1, 7, SPEC.doc_len, len(text), len(text) + 10):
            chunks = list(SPEC.iter_chunks(chunk_chars))
            assert "".join(chunks) == text
            assert all(len(chunk) <= chunk_chars for chunk in chunks)

    def test_seed_and_params_change_the_stream(self):
        base = SPEC.text()
        assert StreamSpec(**{**SPEC.to_params(), "seed": 6}).text() != base  # type: ignore[arg-type]
        assert SPEC.to_key() != StreamSpec(**{**SPEC.to_params(), "seed": 6}).to_key()  # type: ignore[arg-type]

    def test_params_round_trip(self):
        assert StreamSpec.from_params(SPEC.to_params()) == SPEC

    def test_match_bias_plants_matches(self):
        rich = StreamSpec(c=8, w=2, columns=(1,), n_docs=200, seed=0, match_bias=0.9)
        poor = StreamSpec(c=8, w=2, columns=(1,), n_docs=200, seed=0, match_bias=0.0)
        assert semantic_scan(rich)["matches"] > semantic_scan(poor)["matches"]

    def test_validation(self):
        with pytest.raises(ReproError):
            StreamSpec(c=2, w=1, columns=())
        with pytest.raises(ReproError):
            StreamSpec(c=2, w=1, columns=(3,))
        with pytest.raises(ReproError):
            StreamSpec(c=2, w=1, columns=(1,), relation="similar")
        with pytest.raises(ReproError):
            StreamSpec(c=2, w=1, columns=(1,), match_bias=1.5)
        with pytest.raises(ReproError):
            SPEC.resolve_range(10, 5)

    def test_validation_requires_real_numbers(self):
        for field in ("c", "w", "n_docs", "seed"):
            with pytest.raises(ReproError, match=field):
                StreamSpec(**{**SPEC.to_params(), field: True})  # type: ignore[arg-type]
        with pytest.raises(ReproError, match="columns"):
            StreamSpec(c=2, w=1, columns=(True,))
        with pytest.raises(ReproError, match="match_bias"):
            StreamSpec(c=2, w=1, columns=(1,), match_bias="0.5")  # type: ignore[arg-type]

    def test_relation_pair_budget(self):
        """A relation past ``MAX_RELATION_PAIRS`` is refused with a typed
        error naming the relation, ``w`` and the count, before any pair
        is built; the widest relations within the budget still build."""
        for relation, w, count in (("match", 17, 2**17), ("leq", 9, 2**8 * (2**9 + 1))):
            with pytest.raises(ReproError, match=f"'{relation}' at w={w} has {count} pairs"):
                relation_pairs(relation, w)
        with pytest.raises(ReproError, match="'match' at w=40"):
            StreamSpec(c=1, w=40, columns=(1,))
        with pytest.raises(ReproError, match="'leq' at w=100"):
            StreamSpec.from_params({"c": 100, "w": 100, "columns": [1], "relation": "leq"})
        assert len(relation_pairs("match", 16)) == spec_module.MAX_RELATION_PAIRS
        assert len(relation_pairs("leq", 8)) == 2**7 * (2**8 + 1)

    def test_shard_ranges_partition(self):
        for shards in (1, 3, 7, 40, 100):
            ranges = SPEC.shard_ranges(shards)
            assert ranges[0][0] == 0 and ranges[-1][1] == SPEC.n_docs
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    @staticmethod
    def _assert_matches_frozen_generator(spec: StreamSpec, rng: random.Random) -> None:
        want = [legacy_document(spec, index) for index in range(spec.n_docs)]
        text = "".join(want)
        assert [spec.document(index) for index in range(spec.n_docs)] == want
        lo = rng.randint(0, spec.n_docs)
        hi = rng.randint(lo, spec.n_docs)
        assert list(spec.iter_documents(lo, hi)) == want[lo:hi]
        assert spec.text() == text
        for chunk_chars in (1, spec.doc_len - 1 or 1, rng.randint(1, 3 * spec.doc_len + 1)):
            chunks = list(spec.iter_chunks(chunk_chars))
            assert "".join(chunks) == text
            assert all(len(chunk) == chunk_chars for chunk in chunks[:-1])

    def test_decoder_matches_frozen_generator(self):
        """The block decoder reproduces the per-character generator exactly."""
        rng = random.Random(1601)
        for trial in range(320):
            c, w = rng.randint(1, 6), rng.randint(1, 3)
            columns = tuple(rng.sample(range(1, c + 1), rng.randint(1, c)))
            # Every tenth spec spans several decoder blocks of documents.
            n_docs = rng.randint(257, 600) if trial % 10 == 0 else rng.randint(0, 60)
            spec = StreamSpec(
                c=c,
                w=w,
                columns=columns,
                relation=rng.choice(("match", "leq")),
                n_docs=n_docs,
                seed=rng.randrange(-3, 1 << 62),
                match_bias=rng.choice((0.0, 0.25, 1.0, rng.random())),
            )
            self._assert_matches_frozen_generator(spec, rng)

    def test_decoder_draws_further_blocks(self, monkeypatch):
        """With one word per draw, every document runs out of its block in
        the body, in ``random()`` and in the planted choices."""
        monkeypatch.setattr(spec_module, "_block_words", lambda doc_len: 1)
        rng = random.Random(1602)
        for relation, match_bias in (("match", 1.0), ("leq", 1.0), ("leq", 0.5), ("match", 0.0)):
            for c, w in ((1, 1), (3, 2), (5, 3)):
                spec = StreamSpec(
                    c=c, w=w, columns=tuple(range(1, c + 1)), relation=relation,
                    n_docs=40, seed=rng.randrange(1 << 30), match_bias=match_bias,
                )
                self._assert_matches_frozen_generator(spec, rng)

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                StreamSpec(c=4, w=2, columns=(1, 3), n_docs=500, seed=1),
                "c13d9f048ed28437f21c534110821a8de5005c8d565107d98377236ee7674edc",
            ),
            (
                StreamSpec(
                    c=5, w=2, columns=(2, 5), relation="leq", n_docs=300, seed=9,
                    match_bias=0.6,
                ),
                "eb812334e223dce9ea73ddf3659e72b21cd0cc4a3d26004bcdcaecb8994f924c",
            ),
            (SPEC, "dab83b3d99ba8938cba1f04ab8ac19440b9edb2330316fee281ec50cc166b7e7"),
        ],
        ids=["c4-w2-match", "c5-w2-leq", "SPEC"],
    )
    def test_golden_stream_digests(self, spec, digest):
        """Pinned streams: any change to the generated text fails here, even
        one the frozen oracle would share (e.g. a change in ``random``)."""
        assert hashlib.sha256(spec.text().encode("ascii")).hexdigest() == digest


# ----------------------------------------------------------------------
# Compilation: the phase-layered minimal DFA
# ----------------------------------------------------------------------


class TestCompile:
    def test_scanner_agrees_with_brute_force_exhaustively(self):
        for c, w, cols, rel in (
            (2, 1, (1, 2), "match"),
            (3, 1, (1, 3), "match"),
            (2, 2, (1, 2), "match"),
            (2, 1, (1, 2), "leq"),
            (1, 2, (1,), "leq"),
        ):
            pairs = relation_pairs(rel, w)
            scanner = compile_scanner(c, w, cols, pairs)
            for word in all_words(AB, 2 * c * w):
                assert scanner.accepts(word) == is_column_related(
                    word, c, w, cols, pairs
                )

    def test_phase_layer_invariants(self):
        scanner = scanner_for_spec(SPEC)
        length = scanner.doc_len
        assert len(scanner.layers) == length + 1
        # Each non-sink state lives in exactly one layer.
        seen: set[int] = set()
        for layer in scanner.layers:
            assert not (seen & set(layer))
            seen.update(layer)
        assert scanner.sink not in seen
        # Accepting states only at the final phase; initial at phase 0.
        accepting = set(scanner.accepting)
        for layer in scanner.layers[:-1]:
            assert not (accepting & set(layer))
        assert scanner.layers[0] == (scanner.dfa.initial,)

    def test_sink_is_the_unique_dead_state(self):
        scanner = scanner_for_spec(SPEC)
        assert scanner.sink is not None
        # The sink never reaches acceptance: every word from it rejects.
        table_a, table_b = scanner.dfa.tables
        assert table_a[scanner.sink] == scanner.sink
        assert table_b[scanner.sink] == scanner.sink
        assert not (scanner.dfa.accepting_mask >> scanner.sink) & 1

    def test_compile_is_memoised_per_process(self):
        first = compile_scanner(2, 1, [1, 2], [("a", "a"), ("b", "b")])
        second = compile_scanner(2, 1, (2, 1, 1), (("b", "b"), ("a", "a")))
        assert first is second

    def test_cfg_constructors_are_memoised(self):
        assert column_match_cfg(3, 1, [1, 3]) is column_match_cfg(3, 1, (3, 1))
        assert column_relation_cfg(2, 1, [1], [("a", "b")]) is column_relation_cfg(
            2, 1, (1,), (("a", "b"),)
        )

    def test_nfa_size_formula(self):
        nfa = column_relation_nfa(3, 2, (1, 3), (("aa", "aa"), ("ab", "ba")))
        assert nfa.n_states == 2 * 2 * (2 * 3 * 2 + 1)

    def test_bad_constraints_raise(self):
        with pytest.raises(ReproError):
            column_relation_nfa(2, 1, (), (("a", "a"),))
        with pytest.raises(ReproError):
            column_relation_nfa(2, 1, (1,), ())
        with pytest.raises(ReproError):
            column_relation_nfa(2, 1, (1,), (("aa", "a"),))


# ----------------------------------------------------------------------
# Chunk-boundary correctness (the tentpole invariant)
# ----------------------------------------------------------------------


class TestChunkBoundaries:
    def _reference(self, spec: StreamSpec) -> dict:
        scanner = StreamScanner(scanner_for_spec(spec), collect_ids=True)
        return scanner.scan_chunks([spec.text()])

    def test_every_chunk_size_in_a_window(self):
        # Chunk sizes 1..2L+3 put a boundary at every offset inside some
        # document, so straddling matches are exercised at every phase.
        reference = self._reference(SPEC)
        assert reference["matches"] > 0
        for chunk_chars in range(1, 2 * SPEC.doc_len + 4):
            result = scan_stream(SPEC, chunk_chars=chunk_chars, collect_ids=True)
            assert result["match_ids"] == reference["match_ids"], chunk_chars
            assert result["checksum"] == reference["checksum"]
            assert result["docs"] == SPEC.n_docs

    def test_exact_and_one_byte_final_chunks(self):
        total = SPEC.total_chars
        reference = self._reference(SPEC)
        # chunk divides the stream exactly: empty remainder, no final runt.
        exact = scan_stream(SPEC, chunk_chars=total // 4, collect_ids=True)
        # chunk = total - 1: a one-byte final chunk.
        runt = scan_stream(SPEC, chunk_chars=total - 1, collect_ids=True)
        whole = scan_stream(SPEC, chunk_chars=total, collect_ids=True)
        for result in (exact, runt, whole):
            assert result["match_ids"] == reference["match_ids"]
            assert result["checksum"] == reference["checksum"]

    def test_empty_and_split_chunks_via_feed(self):
        scanner = StreamScanner(scanner_for_spec(SPEC), collect_ids=True)
        reference = self._reference(SPEC)
        text = SPEC.text()
        state = scanner.new_state()
        # Feed with empty chunks interleaved and a mid-document split.
        cut = SPEC.doc_len * 3 + 2
        for chunk in ("", text[:cut], "", text[cut:], ""):
            scanner.feed(state, chunk)
        assert scanner.finish(state) == reference

    def test_mid_document_end_of_stream_raises(self):
        scanner = StreamScanner(scanner_for_spec(SPEC))
        state = scanner.new_state()
        scanner.feed(state, SPEC.text()[:-1])
        with pytest.raises(ValueError, match="mid-document"):
            scanner.finish(state)

    def test_shards_compose(self):
        full = scan_stream(SPEC, chunk_chars=11, collect_ids=True)
        stitched: list[int] = []
        for lo, hi in SPEC.shard_ranges(5):
            part = scan_stream(SPEC, chunk_chars=11, lo=lo, hi=hi, collect_ids=True)
            stitched.extend(lo + i for i in part["match_ids"])
        assert stitched == full["match_ids"]


#: Chunks of 4-character documents that put one foreign character in the
#: head (finishing a carried document), the body (whole documents: once
#: in a phase column that also holds a ``b``, once alone, as in
#: ``"aaac" + "aaaa" * 3``) or the tail (starting a carried document),
#: with its offset in the last chunk.
FOREIGN_PLACEMENTS = {
    "head": (["ab", "a{}abab"], 1),
    "body-with-b": (["aaab" * 2 + "aaa{}" + "aaaa"], 11),
    "body": (["aaa{}" + "aaaa" * 3], 3),
    "tail": (["abab" * 2 + "a{}"], 9),
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("placement", sorted(FOREIGN_PLACEMENTS))
@pytest.mark.parametrize("char", ["c", "é"], ids=["ascii", "non-ascii"])
def test_foreign_characters_raise_a_typed_error(backend, placement, char):
    chunks, offset = FOREIGN_PLACEMENTS[placement]
    spec = StreamSpec(c=2, w=1, columns=(1, 2), n_docs=0)
    with use_backend(backend):
        scanner = StreamScanner(scanner_for_spec(spec))
    state = scanner.new_state()
    *head, last = [chunk.format(char) for chunk in chunks]
    for chunk in head:
        scanner.feed(state, chunk)
    with pytest.raises(ReproError, match=f"{char!r} at offset {offset}") as info:
        scanner.feed(state, last)
    assert (info.value.offset, info.value.char) == (offset, char)


# ----------------------------------------------------------------------
# Oracle agreement on randomized streams, under every backend
# ----------------------------------------------------------------------


SCENARIOS = [
    StreamSpec(c=3, w=1, columns=(1, 3), n_docs=120, seed=7, match_bias=0.3),
    StreamSpec(c=2, w=2, columns=(1, 2), n_docs=80, seed=8, match_bias=0.4, relation="leq"),
    StreamSpec(c=5, w=1, columns=(2, 4), n_docs=100, seed=9, match_bias=0.0),
]


class TestOracles:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: f"c{s.c}w{s.w}{s.relation}")
    def test_scanner_matches_all_oracles(self, backend, spec):
        with use_backend(backend):
            scanned = scan_stream(spec, chunk_chars=53, collect_ids=True)
        semantic = semantic_scan(spec)
        batched = batched_oracle_scan(spec)
        naive = naive_cfg_scan(spec, 0, 30)
        assert scanned["match_ids"] == semantic["match_ids"]
        assert scanned["checksum"] == semantic["checksum"]
        assert batched["match_ids"] == semantic["match_ids"]
        assert naive["match_ids"] == [i for i in semantic["match_ids"] if i < 30]

    def test_randomized_chunkings_property(self):
        rng = random.Random(0xE11)
        reference = scan_stream(SPEC, chunk_chars=SPEC.total_chars, collect_ids=True)
        scanner_src = scanner_for_spec(SPEC)
        text = SPEC.text()
        for _ in range(25):
            scanner = StreamScanner(scanner_src, collect_ids=True)
            state = scanner.new_state()
            pos = 0
            while pos < len(text):
                step = rng.randint(1, 3 * SPEC.doc_len)
                scanner.feed(state, text[pos : pos + step])
                pos += step
            result = scanner.finish(state)
            assert result["match_ids"] == reference["match_ids"]
            assert result["checksum"] == reference["checksum"]

    def test_backends_bit_exact_on_wide_chunks(self):
        # Chunks wider than 64 documents exercise multi-word masks.
        spec = StreamSpec(c=2, w=1, columns=(1, 2), n_docs=500, seed=4, match_bias=0.2)
        results = {}
        for backend in available_backends():
            with use_backend(backend):
                results[backend] = scan_stream(
                    spec, chunk_chars=spec.total_chars, collect_ids=True
                )
        reference = results.pop("reference")
        for backend, result in results.items():
            assert result == reference, backend


# ----------------------------------------------------------------------
# split_document / encode_ln_word round trips (edge cases)
# ----------------------------------------------------------------------


class TestRoundTrips:
    def test_split_document_round_trip_c1_w1(self):
        for word in all_words(AB, 2):
            row1, row2 = split_document(word, 1, 1)
            assert document_word(row1, row2, 1) == word

    def test_split_document_round_trip_general(self):
        for c, w in ((1, 1), (1, 3), (4, 1), (2, 2)):
            for _ in range(5):
                rng = random.Random(c * 100 + w)
                word = "".join(rng.choice("ab") for _ in range(2 * c * w))
                row1, row2 = split_document(word, c, w)
                assert document_word(row1, row2, w) == word

    def test_encode_ln_round_trip_n1(self):
        for word in all_words(AB, 2):
            assert decode_ln_word(encode_ln_word(word, 1), 1) == word

    def test_encode_ln_round_trip_random(self):
        rng = random.Random(42)
        for n in (2, 5):
            for _ in range(10):
                word = "".join(rng.choice("ab") for _ in range(2 * n))
                assert decode_ln_word(encode_ln_word(word, n), n) == word

    def test_decode_rejects_off_image_documents(self):
        with pytest.raises(ReproError):
            decode_ln_word("ba", 1)  # "ba" is not an encoded column


# ----------------------------------------------------------------------
# The extract.* job family and the engine fan-out
# ----------------------------------------------------------------------


def _engine(jobs: int = 1):
    from repro.engine.jobs import default_registry
    from repro.engine.scheduler import Engine

    return Engine(registry=default_registry(), cache=None, jobs=jobs)


JOB_SPEC = {
    "c": 3,
    "w": 1,
    "columns": [1, 3],
    "n_docs": 120,
    "seed": 5,
    "match_bias": 0.3,
}


class TestExtractJobs:
    def test_scan_job_matches_direct_scan(self):
        direct = scan_stream(StreamSpec.from_params(JOB_SPEC), chunk_chars=64)
        result = _engine().run_one("extract.scan", {**JOB_SPEC, "chunk_chars": 64})
        assert result["matches"] == direct["matches"]
        assert result["checksum"] == direct["checksum"]

    def test_scan_job_timing_fields_are_opt_in(self):
        plain = _engine().run_one("extract.scan", JOB_SPEC)
        timed = _engine().run_one("extract.scan", {**JOB_SPEC, "timing": True})
        assert "scan_s" not in plain and "compile_s" not in plain
        assert timed["scan_s"] >= 0 and timed["compile_s"] >= 0

    def test_stream_job_digest_matches_hashlib(self):
        spec = StreamSpec.from_params(JOB_SPEC)
        result = _engine().run_one("extract.stream", {**JOB_SPEC, "chunk_chars": 17})
        expected = hashlib.sha256(spec.text().encode("ascii")).hexdigest()
        assert result["sha256"] == expected
        assert result["chars"] == spec.total_chars

    def test_verify_job_agrees(self):
        result = _engine().run_one("extract.verify", {**JOB_SPEC, "hi": 40})
        assert result["agree"] is True
        assert result["oracles"] == ["semantic", "cfg_batched"]

    def test_aggregate_serial_equals_parallel(self):
        params = {**JOB_SPEC, "shards": 4, "verify_docs": 30}
        serial = _engine(jobs=1).run_one("extract.aggregate", params)
        parallel = _engine(jobs=2).run_one("extract.aggregate", params)
        assert serial == parallel
        assert serial["verified"] is True
        assert serial["docs"] == JOB_SPEC["n_docs"]
        assert [shard["lo"] for shard in serial["shards"]] == [0, 30, 60, 90]

    def test_aggregate_totals_match_single_scan(self):
        aggregate = _engine().run_one("extract.aggregate", {**JOB_SPEC, "shards": 5})
        single = scan_stream(StreamSpec.from_params(JOB_SPEC))
        assert aggregate["matches"] == single["matches"]

    def test_engine_map_preserves_order_and_coalesces(self):
        engine = _engine()
        param_sets = [
            {**JOB_SPEC, "lo": 60, "hi": 120},
            {**JOB_SPEC, "lo": 0, "hi": 60},
            {**JOB_SPEC, "lo": 60, "hi": 120},  # duplicate coalesces
        ]
        results = engine.map("extract.scan", param_sets)
        assert [r["lo"] for r in results] == [60, 0, 60]
        assert results[0] == results[2]

    @pytest.mark.parametrize(
        "field, value",
        [("columns", [1.5]), ("seed", 1.7), ("columns", 3), ("n_docs", "ten")],
        ids=["fractional-column", "fractional-seed", "scalar-columns", "text-n_docs"],
    )
    def test_scan_job_rejects_malformed_stream_params(self, field, value):
        """A typed error naming the field, never a truncated stream or a
        bare ``TypeError``/``ValueError``."""
        with pytest.raises(JobFailedError) as info:
            _engine().run_one("extract.scan", {**JOB_SPEC, field: value})
        cause = info.value.__cause__
        assert isinstance(cause, ReproError) and field in str(cause)

    def test_storm_extract_kind_is_well_formed(self):
        from repro.engine.jobs import default_registry
        from repro.serve.storm import STORM_MIX, _make_request

        assert any(kind == "extract" for kind, _ in STORM_MIX)
        job, params = _make_request("extract", random.Random(0), 3)
        assert job == "extract.scan"
        # The registry accepts the params (raises on unknown/missing).
        resolved = default_registry().get(job).resolve_params(params)
        assert resolved["n_docs"] <= 256  # storm-sized, sub-timeout


# ----------------------------------------------------------------------
# Backend routing plumbing
# ----------------------------------------------------------------------


class TestBackendRouting:
    def test_scan_uses_the_ambient_backend(self):
        # Selection is honoured: the scan inside use_backend sees it.
        with use_backend("words"):
            assert get_backend().name == "words"
            result = scan_stream(SPEC, chunk_chars=29)
        assert result["matches"] == scan_stream(SPEC, chunk_chars=29)["matches"]

    def test_backend_is_resolved_when_the_scanner_is_built(self):
        compiled = scanner_for_spec(SPEC)
        with use_backend("reference"):
            scanner = StreamScanner(compiled)
            # Scanners of one compiled query share one body kernel.
            assert StreamScanner(compiled)._scan_body is scanner._scan_body
        with use_backend("words"):
            result = scanner.scan_chunks([SPEC.text()])
            assert get_backend().name == "words"
        assert scanner._backend.name == "reference"
        assert result == StreamScanner(compiled).scan_chunks([SPEC.text()])
