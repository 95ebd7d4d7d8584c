"""E11 — the introduction's CSV extraction scenario.

Rows: the column-match CFG size as the selected column set ``S`` grows
(linear), brute-force language verification at small scale, the ``L_n``
reduction checked exhaustively, and the transferred uCFG lower bound
(exponential in ``|S|``).

Membership checks route through the streaming extraction pipeline's
compiled packed scanner (docs/EXTRACT.md), with the legacy per-document
``is_column_match`` asserted word by word as the parity check, and
``test_e11_streaming_pipeline_parity`` asserts the chunked pipeline
agrees with it on a randomized stream.
"""

from __future__ import annotations

from repro.extract import StreamSpec, compile_scanner, scan_stream
from repro.extract.spec import relation_pairs
from repro.grammars.ambiguity import is_unambiguous
from repro.grammars.language import language
from repro.languages.ln import is_in_ln
from repro.spanners import (
    column_match_cfg,
    encode_ln_word,
    is_column_match,
    transferred_ucfg_lower_bound,
)
from repro.util.tables import Table, format_int
from repro.words.alphabet import AB
from repro.words.ops import all_words


def _match_checker(c: int, w: int, cols: list[int]):
    """Membership in M(c, w, S) through the compiled scanner."""
    scanner = compile_scanner(c, w, cols, relation_pairs("match", w))

    def check(word: str) -> bool:
        member = scanner.accepts(word)
        # Legacy parity: the brute-force path must agree word by word.
        assert member == is_column_match(word, c, w, cols)
        return member

    return check


def _size_sweep() -> Table:
    table = Table(
        ["columns c", "|S|", "width w", "CFG size", "verified"],
        title="E11a: column-match CFG size is linear in |S|",
    )
    for s_count in (1, 2, 4, 8, 16, 32, 64):
        grammar = column_match_cfg(64, 2, list(range(1, s_count + 1)))
        table.add_row([64, s_count, 2, grammar.size, "-"])
    for c, w, cols in ((2, 1, [1, 2]), (3, 1, [1, 3]), (2, 2, [1, 2])):
        grammar = column_match_cfg(c, w, cols)
        check = _match_checker(c, w, cols)
        expected = {word for word in all_words(AB, 2 * c * w) if check(word)}
        assert language(grammar) == expected
        table.add_row([c, len(cols), w, grammar.size, "exhaustive"])
    return table


def test_e11_size_table(benchmark, report):
    table = benchmark.pedantic(_size_sweep, rounds=1, iterations=1)
    sizes = [
        column_match_cfg(64, 2, list(range(1, s + 1))).size for s in (16, 32, 64)
    ]
    increments = [b - a for a, b in zip(sizes, sizes[1:])]
    per_column = [inc / 16 for inc in increments]  # 16 and 32 new columns
    per_column[1] /= 2
    note = (
        f"Per-column cost {per_column} stays bounded (fillers contribute a\n"
        "fluctuating popcount term): the grammar is linear in |S| plus a\n"
        "log-size filler core."
    )
    report(table, note)
    # Linear growth: doubling the new columns roughly doubles the increment.
    assert 1.5 <= increments[1] / increments[0] <= 2.5
    assert max(per_column) <= 30


def test_e11_ambiguity(benchmark):
    def check() -> tuple[bool, bool]:
        single = is_unambiguous(column_match_cfg(2, 1, [1]))
        double = is_unambiguous(column_match_cfg(2, 1, [1, 2]))
        return single, double

    single, double = benchmark.pedantic(check, rounds=1, iterations=1)
    assert single and not double


def test_e11_reduction_table(benchmark, report):
    def build() -> Table:
        table = Table(
            ["n = |S|", "reduction verified", "uCFG lower bound (match lang.)"],
            title="E11b: the L_n reduction and the transferred bound",
        )
        for n in (1, 2, 3):
            check = _match_checker(n, 2, list(range(1, n + 1)))
            agree = all(
                is_in_ln(w, n) == check(encode_ln_word(w, n))
                for w in all_words(AB, 2 * n)
            )
            assert agree
            table.add_row([n, "exhaustive", format_int(transferred_ucfg_lower_bound(n))])
        for n in (256, 1024, 4096, 16384):
            table.add_row([n, "-", format_int(transferred_ucfg_lower_bound(n))])
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    note = (
        "Any unambiguous grammar for 'rows agree on a column of S' is\n"
        "exponentially large in |S| — the introduction's claim, with the\n"
        "constants inherited from Theorem 12 via the width-2 encoding."
    )
    report(table, note)


def test_e11_grammar_build_speed(benchmark):
    grammar = benchmark(column_match_cfg, 256, 2, list(range(1, 65)))
    assert grammar.size > 0


def test_e11_streaming_pipeline_parity(benchmark):
    """The chunked pipeline's match set equals the legacy per-doc check."""
    spec = StreamSpec(
        c=4, w=2, columns=(1, 2, 3), n_docs=400, seed=11, match_bias=0.3
    )
    result = benchmark.pedantic(
        lambda: scan_stream(spec, chunk_chars=97, collect_ids=True),
        rounds=1,
        iterations=1,
    )
    legacy = [
        index
        for index, doc in enumerate(spec.iter_documents())
        if is_column_match(doc, spec.c, spec.w, spec.columns)
    ]
    assert result["match_ids"] == legacy
    assert result["matches"] == len(legacy)
