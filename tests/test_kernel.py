"""Unit tests for the semiring chart-parsing kernel."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import (
    InfiniteLanguageError,
    LanguageTooLargeError,
    MixedLengthLanguageError,
    NotInChomskyNormalFormError,
)
from repro.grammars.analysis import trim, uniform_lengths
from repro.grammars.cfg import CFG, grammar_from_mapping
from repro.grammars.cnf import to_cnf
from repro.kernel import (
    BOOLEAN,
    COUNTING,
    EMPTY_FOREST,
    FOREST,
    SPECTRUM,
    BatchedRecognizer,
    CNFChart,
    EarleySemiringChart,
    GenericChart,
    MinLengthSemiring,
    PrefixDP,
    WordCountSemiring,
    fold_grammar,
    path_value,
    path_values_up_to,
    recognise_cnf,
    symbol_min_lengths,
    uniform_symbol_lengths,
)
from repro.languages.ln import is_in_ln, iter_ln
from repro.languages.small_grammar import small_ln_grammar


def ambiguous_cnf() -> CFG:
    # S -> SS | a : the Catalan-number grammar, maximally ambiguous.
    return CFG("a", ["S"], [("S", ("S", "S")), ("S", ("a",))], "S")


def balanced_grammar() -> CFG:
    return grammar_from_mapping("ab", {"S": ["aSb", ""]}, "S")


CATALAN = [1, 1, 2, 5, 14, 42, 132]


class TestSemiringLaws:
    @pytest.mark.parametrize("sr", [BOOLEAN, COUNTING, SPECTRUM])
    @pytest.mark.parametrize(
        "values",
        [
            (False, True, True),
            (0, 3, 7),
            ({}, {1: 2}, {0: 1, 2: 3}),
        ],
    )
    def test_identities_and_associativity(self, sr, values):
        for v in values:
            if type(v) is not type(sr.zero):
                pytest.skip("value set belongs to another semiring")
        a, b, c = values
        assert sr.add(sr.zero, a) == a
        assert sr.mul(sr.one, a) == a
        assert sr.mul(a, sr.one) == a
        assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
        assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
        assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))

    @pytest.mark.parametrize(
        "values",
        [
            ({"a": 1}, {"b": 2, "ab": 1}, {"": 1, "a": 3}),
            ({"": 2, "a": 1}, {"a": 1, "aa": 1}, {"b": 1, "": 1}),
            ({}, {"ba": 1}, {"": 1, "b": 1, "bb": 2}),
        ],
    )
    def test_word_count_laws(self, values):
        # Some factors have a word that prefixes another, so products
        # repeat words and their counts must add up.
        sr = WordCountSemiring(max_words=100)
        a, b, c = values
        assert sr.add(sr.zero, a) == a
        assert sr.mul(sr.one, a) == a == sr.mul(a, sr.one)
        assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
        assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
        assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
        assert sr.mul(sr.add(a, b), c) == sr.add(sr.mul(a, c), sr.mul(b, c))

    def test_word_count_product_matches_brute_force(self):
        rng = random.Random(5)
        sr = WordCountSemiring(max_words=10_000)
        for _ in range(200):
            a, b = (
                {"".join(rng.choice("ab") for _ in range(rng.randint(0, 3))): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 6))}
                for _ in range(2)
            )
            expected: dict[str, int] = {}
            for (u, c), (v, d) in itertools.product(a.items(), b.items()):
                expected[u + v] = expected.get(u + v, 0) + c * d
            assert sr.mul(a, b) == expected
            assert a == dict(a) and b == dict(b)  # arguments untouched

    def test_word_count_budget(self):
        sr = WordCountSemiring(max_words=5)
        distinct = {"a": 1, "b": 1}  # prefix-free: 2 x 3 words, refused up front
        with pytest.raises(LanguageTooLargeError):
            sr.mul(distinct, {"a": 1, "b": 1, "c": 1})
        repeating = {"": 1, "a": 1, "aa": 1}  # a^0..a^4: 5 words from 9 pairs
        assert sr.mul(repeating, repeating) == {"": 1, "a": 2, "aa": 3, "aaa": 2, "aaaa": 1}
        with pytest.raises(LanguageTooLargeError):
            sr.mul(repeating, {"": 1, "a": 1, "aa": 1, "aaa": 1})
        with pytest.raises(LanguageTooLargeError):
            sr.add({"a": 1, "b": 1, "c": 1}, {"d": 1, "e": 1, "f": 1})

    def test_boolean_absorbing(self):
        assert BOOLEAN.is_absorbing(True) and not BOOLEAN.is_absorbing(False)

    def test_counting_never_absorbing(self):
        assert not COUNTING.is_absorbing(10**100)


class TestCNFChart:
    def test_requires_cnf(self):
        with pytest.raises(NotInChomskyNormalFormError):
            CNFChart(balanced_grammar(), "ab", COUNTING)

    @pytest.mark.parametrize("length", range(1, 7))
    def test_counting_matches_catalan(self, length):
        chart = CNFChart(ambiguous_cnf(), "a" * length, COUNTING)
        assert chart.value() == CATALAN[length - 1]

    def test_forest_count_and_trees_agree(self):
        word = "aaaaa"
        counting = CNFChart(ambiguous_cnf(), word, COUNTING).value()
        forest = CNFChart(ambiguous_cnf(), word, FOREST).value()
        trees = list(forest.trees())
        assert forest.count() == counting == len(trees)
        assert len(set(trees)) == len(trees)
        assert all(tree.word == word for tree in trees)

    def test_rejected_word_is_zero_everywhere(self):
        assert CNFChart(ambiguous_cnf(), "b", COUNTING).value() == 0
        assert CNFChart(ambiguous_cnf(), "b", FOREST).value() is EMPTY_FOREST

    def test_empty_span_needs_epsilon_rule(self):
        g = CFG("a", ["S"], [("S", ()), ("S", ("a",))], "S")
        assert CNFChart(g, "", COUNTING).value() == 1
        assert CNFChart(ambiguous_cnf(), "", COUNTING).value() == 0


class TestBitsetRecognition:
    def test_agrees_with_counting(self):
        g = to_cnf(balanced_grammar())
        for word in ["", "ab", "aabb", "aaabbb", "aab", "ba", "abab"]:
            assert recognise_cnf(g, word) == (CNFChart(g, word, COUNTING).value() > 0)

    def test_symbol_argument(self):
        g = ambiguous_cnf()
        assert recognise_cnf(g, "aa", "S")
        with pytest.raises(KeyError):
            recognise_cnf(g, "aa", "missing")


class TestMinLengthSemiring:
    def test_decodes_shortest_derivation(self):
        g = ambiguous_cnf()
        sr = MinLengthSemiring(g)
        value = CNFChart(g, "aaa", sr).value()
        tree = sr.tree(value)
        assert tree.word == "aaa"
        # 2 applications of S->SS and 3 of S->a, for any tree shape.
        assert sr.cost(value) == 5

    def test_prefers_lexicographically_least_trace(self):
        # Two rules derive "ab" with equal cost; the first-declared wins.
        g = grammar_from_mapping("ab", {"S": ["aX", "Yb"], "X": ["b"], "Y": ["a"]}, "S")
        sr = MinLengthSemiring(g)
        value = GenericChart(g, "ab", sr).value()
        tree = sr.tree(value)
        assert tree.children is not None
        assert tree.children[1].symbol == "X"


class TestGenericChart:
    def test_counts_any_form(self):
        g = balanced_grammar()
        assert GenericChart(g, "aabb", COUNTING).value() == 1
        assert GenericChart(g, "aab", COUNTING).value() == 0

    def test_boolean_early_exit_same_answer(self):
        g = ambiguous_cnf()
        for length in range(1, 6):
            word = "a" * length
            assert GenericChart(g, word, BOOLEAN).value() is True

    def test_allowed_spans_restrict(self):
        g = ambiguous_cnf()
        chart = GenericChart(g, "aa", COUNTING, allowed_spans=set())
        assert chart.value() == 0

    def test_shared_min_lengths(self):
        g = balanced_grammar()
        tables = symbol_min_lengths(g)
        assert tables["S"] == 0
        assert GenericChart(g, "ab", COUNTING, min_lengths=tables).value() == 1


class TestEarleySemiringChart:
    def test_counts_match_generic(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "aXb", "aY"], "X": [""], "Y": ["b"]}, "S")
        chart = EarleySemiringChart(g, "ab", COUNTING)
        assert chart.accepts()
        assert chart.value() == GenericChart(g, "ab", COUNTING).value() == 3

    def test_rejects(self):
        chart = EarleySemiringChart(balanced_grammar(), "aab", COUNTING)
        assert not chart.accepts()
        assert chart.value() == 0

    def test_completed_spans_cover_parses(self):
        chart = EarleySemiringChart(balanced_grammar(), "aabb", COUNTING)
        spans = chart.completed_spans()
        assert ("S", 0, 4) in spans and ("S", 1, 3) in spans


class TestFold:
    def test_counting_fold(self):
        g = grammar_from_mapping("ab", {"S": ["AB"], "A": ["a", "b"], "B": ["a", "b"]}, "S")
        assert fold_grammar(g, COUNTING)["S"] == 4

    def test_spectrum_fold(self):
        g = grammar_from_mapping("ab", {"S": ["a", "AB"], "A": ["a"], "B": ["b"]}, "S")
        assert fold_grammar(g, SPECTRUM)["S"] == {1: 1, 2: 1}

    def test_cycle_raises(self):
        g = grammar_from_mapping("ab", {"S": ["aS", "a"]}, "S")
        with pytest.raises(InfiniteLanguageError):
            fold_grammar(g, COUNTING)

    def test_uniform_lengths_agree_with_analysis(self, uniform_corpus):
        for grammar in uniform_corpus.values():
            g = trim(grammar)
            assert uniform_symbol_lengths(g) == uniform_lengths(g)

    def test_uniform_lengths_mixed_raises(self):
        g = grammar_from_mapping("ab", {"S": ["a", "ab"]}, "S")
        with pytest.raises(MixedLengthLanguageError):
            uniform_symbol_lengths(g)


class TestBatchedRecognizer:
    def test_matches_per_word_bitset(self):
        g = to_cnf(balanced_grammar())
        words = ["", "ab", "ba", "aabb", "abab", "aaabbb", "aabbab", "b"]
        batch = BatchedRecognizer(g)
        assert batch.recognise_many(words) == {
            w: recognise_cnf(g, w) for w in words
        }

    def test_unsorted_feed_is_still_correct(self):
        g = to_cnf(balanced_grammar())
        batch = BatchedRecognizer(g)
        # Deliberately adversarial order: long, short, shared prefixes.
        for word in ["aaabbb", "ab", "aabb", "aa", "aaab", "aaabbb", ""]:
            assert batch.recognises(word) == recognise_cnf(g, word)

    def test_ln_sweeps_agree_with_membership(self):
        # The counting chart, the bitset chart and the batched filler all
        # decide L_n on the CNF of the Appendix A grammar: members, seeded
        # random words and one word that is never a member.
        for n in (2, 4, 8):
            g = to_cnf(small_ln_grammar(n))
            rng = random.Random(n)
            words = set(itertools.islice(iter_ln(n), 12))
            words |= {"".join(rng.choice("ab") for _ in range(2 * n)) for _ in range(12)}
            words.add("b" * (2 * n))
            batched = BatchedRecognizer(g).recognise_many(sorted(words))
            for word in words:
                expected = is_in_ln(word, n)
                assert (CNFChart(g, word, COUNTING).value() > 0) is expected, word
                assert recognise_cnf(g, word) is expected, word
                assert batched[word] is expected, word

    def test_prefix_reuse_keeps_cells(self):
        g = to_cnf(balanced_grammar())
        batch = BatchedRecognizer(g)
        batch.recognises("aabb")
        cells_before = dict(batch._cells)
        batch.recognises("aabbab")
        # Cells fully inside the shared 4-letter prefix must be identical.
        for span, mask in cells_before.items():
            if span[1] <= 4:
                assert batch._cells[span] == mask


class TestPaths:
    def test_path_value_counts_runs(self):
        succ = {0: [1, 1], 1: [0]}
        # Two parallel edges 0->1: 2 runs of length 1, 2 of length 3, ...
        assert path_value(lambda s: succ.get(s, []), [0], {1}, 1) == 2
        assert path_value(lambda s: succ.get(s, []), [0], {1}, 3) == 4

    def test_path_values_up_to(self):
        succ = {0: [0]}
        values = path_values_up_to(lambda s: succ.get(s, []), [0], {0}, 3)
        assert values == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            path_value(lambda s: [], [0], {0}, -1)


class TestPrefixDP:
    def test_counts_with_prefix(self):
        g = grammar_from_mapping("ab", {"S": ["AB"], "A": ["a", "b"], "B": ["a", "b"]}, "S")
        dp = PrefixDP(g)
        start = (g.start,)
        assert dp.value(start, "", 2) == 4
        assert dp.value(start, "a", 2) == 2
        assert dp.value(start, "ab", 2) == 1
        assert dp.value(start, "abc", 2) == 0
        assert dp.value(start, "", 3) == 0

    def test_boolean_projection(self):
        g = grammar_from_mapping("ab", {"S": ["AB"], "A": ["a", "b"], "B": ["a", "b"]}, "S")
        dp = PrefixDP(g, BOOLEAN)
        assert dp.value((g.start,), "b", 2) is True
        assert dp.value((g.start,), "b", 1) is False
