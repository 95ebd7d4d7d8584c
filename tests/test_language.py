"""Tests for repro.grammars.language: enumeration and exact counting."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import InfiniteLanguageError, LanguageTooLargeError
from repro.grammars.ambiguity import is_unambiguous
from repro.grammars.cfg import grammar_from_mapping
from repro.grammars.generic import GenericParser
from repro.grammars.language import (
    accepts_language,
    count_derivations,
    count_words,
    derivations_by_length,
    iter_language,
    language,
    languages_by_nonterminal,
    same_language,
    word_counts_by_nonterminal,
    words_by_length,
)


class TestLanguage:
    def test_flat_union(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "ba", "ab"]}, "S")
        assert language(g) == {"ab", "ba"}

    def test_concatenation(self):
        g = grammar_from_mapping("ab", {"S": ["XY"], "X": ["a", "b"], "Y": ["a", "b"]}, "S")
        assert language(g) == {"aa", "ab", "ba", "bb"}

    def test_epsilon_member(self):
        g = grammar_from_mapping("ab", {"S": ["", "a"]}, "S")
        assert language(g) == {"", "a"}

    def test_empty_language(self):
        g = grammar_from_mapping("ab", {"S": ["SX"], "X": ["a"]}, "S")
        assert language(g) == frozenset()

    def test_infinite_raises(self):
        g = grammar_from_mapping("ab", {"S": ["aS", "a"]}, "S")
        with pytest.raises(InfiniteLanguageError):
            language(g)

    def test_max_words_guard(self):
        g = grammar_from_mapping(
            "ab",
            {"S": ["XXX"], "X": ["a", "b"]},
            "S",
        )
        with pytest.raises(InfiniteLanguageError):
            language(g, max_words=3)
        assert len(language(g, max_words=8)) == 8  # a language that fits
        with pytest.raises(InfiniteLanguageError):
            language(g, max_words=7)

    def test_max_words_checked_while_the_set_grows(self):
        # Seed 984 has 430,479,505 derivations: building a whole
        # concatenation before checking the budget runs out of memory.
        pytest.importorskip("resource")
        code = textwrap.dedent(
            f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))
            from repro.errors import InfiniteLanguageError
            from repro.grammars.language import language
            from repro.grammars.random_grammars import GrammarShape, random_finite_grammar
            shape = GrammarShape(n_layers=4, nts_per_layer=1, rules_per_nt=2, max_body=4)
            try:
                language(random_finite_grammar(984, shape), max_words=100_000)
            except InfiniteLanguageError:
                print("typed error")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "typed error"

    def test_over_budget_raises_the_typed_subclass(self):
        g = grammar_from_mapping("ab", {"S": ["XXX"], "X": ["a", "b"]}, "S")
        with pytest.raises(LanguageTooLargeError, match="max_words=7"):
            language(g, max_words=7)
        # Products whose words repeat are checked as they grow.
        repeats = grammar_from_mapping("ab", {"S": ["XX"], "X": ["", "a", "aa", "aaa"]}, "S")
        assert len(language(repeats, max_words=7)) == 7
        with pytest.raises(LanguageTooLargeError):
            language(repeats, max_words=6)
        # An infinite language is still reported as infinite, not too large.
        with pytest.raises(InfiniteLanguageError) as info:
            language(grammar_from_mapping("ab", {"S": ["aS", "a"]}, "S"))
        assert not isinstance(info.value, LanguageTooLargeError)

    def test_word_counts_by_nonterminal(self):
        g = grammar_from_mapping(
            "ab", {"S": ["XX", "a"], "X": ["", "a", "aa"], "L": ["b"]}, "S"
        )
        counts = word_counts_by_nonterminal(g)
        assert counts == {
            "S": {"": 1, "a": 3, "aa": 3, "aaa": 2, "aaaa": 1},
            "X": {"": 1, "a": 1, "aa": 1},
        }
        assert languages_by_nonterminal(g) == {nt: frozenset(c) for nt, c in counts.items()}
        assert sum(counts["S"].values()) == count_derivations(g)

    def test_iter_language_ordering(self):
        g = grammar_from_mapping("ab", {"S": ["ba", "b", "ab"]}, "S")
        assert list(iter_language(g)) == ["b", "ab", "ba"]

    def test_languages_by_nonterminal_only_useful(self):
        g = grammar_from_mapping("ab", {"S": ["aX"], "X": ["b"], "L": ["a"]}, "S")
        langs = languages_by_nonterminal(g)
        assert set(langs) == {"S", "X"}
        assert langs["X"] == {"b"}

    def test_membership_consistent_with_parser(self, corpus_grammar):
        parser = GenericParser(corpus_grammar)
        for word in language(corpus_grammar):
            assert parser.recognises(word)


class TestCounting:
    def test_count_words(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "ba", "X"], "X": ["ab"]}, "S")
        assert count_words(g) == 2

    def test_count_derivations_overcounts_ambiguity(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "ba", "X"], "X": ["ab"]}, "S")
        assert count_derivations(g) == 3

    def test_counts_agree_for_unambiguous(self, corpus_grammar):
        if is_unambiguous(corpus_grammar):
            assert count_derivations(corpus_grammar) == count_words(corpus_grammar)

    def test_counts_upper_bound_in_general(self, corpus_grammar):
        assert count_derivations(corpus_grammar) >= count_words(corpus_grammar)

    def test_count_empty(self):
        g = grammar_from_mapping("ab", {"S": ["SX"], "X": ["a"]}, "S")
        assert count_derivations(g) == 0 and count_words(g) == 0

    def test_derivations_by_length(self):
        g = grammar_from_mapping("ab", {"S": ["a", "ab", "ba"]}, "S")
        assert derivations_by_length(g) == {1: 1, 2: 2}

    def test_words_by_length(self):
        g = grammar_from_mapping("ab", {"S": ["a", "ab", "X"], "X": ["ab"]}, "S")
        assert words_by_length(g) == {1: 1, 2: 1}

    def test_spectra_agree_for_unambiguous(self, corpus_grammar):
        if is_unambiguous(corpus_grammar):
            assert derivations_by_length(corpus_grammar) == words_by_length(corpus_grammar)

    def test_example3_derivation_explosion(self):
        # Ambiguity multiplicity of Example 3: derivations far exceed words.
        from repro.languages.example3 import example3_grammar
        from repro.languages.ln import count_ln

        g = example3_grammar(1)
        assert count_words(g) == count_ln(3)
        assert count_derivations(g) > count_ln(3)


class TestEquality:
    def test_accepts_language(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "ba"]}, "S")
        assert accepts_language(g, {"ab", "ba"})
        assert not accepts_language(g, {"ab"})

    def test_same_language(self):
        g1 = grammar_from_mapping("ab", {"S": ["ab", "ba"]}, "S")
        g2 = grammar_from_mapping("ab", {"S": ["X", "Y"], "X": ["ab"], "Y": ["ba"]}, "S")
        assert same_language(g1, g2)

    def test_different_language(self):
        g1 = grammar_from_mapping("ab", {"S": ["ab"]}, "S")
        g2 = grammar_from_mapping("ab", {"S": ["ba"]}, "S")
        assert not same_language(g1, g2)
