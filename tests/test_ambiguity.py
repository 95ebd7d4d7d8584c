"""Tests for repro.grammars.ambiguity: deciding unambiguity, witnesses."""

from __future__ import annotations

import pytest

from repro.errors import NotUnambiguousError
from repro.grammars.ambiguity import (
    ambiguity_profile,
    ambiguity_witness,
    find_ambiguous_word,
    is_unambiguous,
    max_ambiguity,
    require_unambiguous,
)
from repro.grammars.cfg import grammar_from_mapping
from repro.grammars.language import count_derivations
from repro.grammars.random_grammars import GrammarShape, random_finite_grammar
from repro.languages.example3 import example3_grammar
from repro.languages.unambiguous_grammar import example4_ucfg
from tests.legacy_parsers import legacy_generic_count

#: The four grammar shapes of tests/test_pipeline_invariants.py.
SHAPES = {
    "default": GrammarShape(),
    "wide": GrammarShape(n_layers=2, nts_per_layer=3, rules_per_nt=3, max_body=2),
    "deep": GrammarShape(n_layers=4, nts_per_layer=1, rules_per_nt=2, max_body=4),
    "epsilon": GrammarShape(epsilon_probability=0.4),
}
#: Larger languages are parsed on an evenly spaced sample of this many words.
PARSED_WORDS = 250


class TestDecision:
    def test_unambiguous_flat(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "ba"]}, "S")
        assert is_unambiguous(g)

    def test_ambiguous_duplicate_path(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "X"], "X": ["ab"]}, "S")
        assert not is_unambiguous(g)

    def test_example3_is_ambiguous(self):
        assert not is_unambiguous(example3_grammar(1))

    def test_example4_is_unambiguous(self):
        assert is_unambiguous(example4_ucfg(2))
        assert is_unambiguous(example4_ucfg(3))

    def test_empty_language_unambiguous(self):
        g = grammar_from_mapping("ab", {"S": ["SX"], "X": ["a"]}, "S")
        assert is_unambiguous(g)

    def test_ambiguous_split(self):
        g = grammar_from_mapping("ab", {"S": ["XX"], "X": ["a", "aa"]}, "S")
        assert not is_unambiguous(g)  # aaa splits 1+2 or 2+1


class TestProfileAndWitness:
    def test_profile_counts(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "X", "ba"], "X": ["ab"]}, "S")
        assert ambiguity_profile(g) == {"ab": 2, "ba": 1}

    def test_max_ambiguity(self):
        g = grammar_from_mapping("ab", {"S": ["ab", "X", "Y"], "X": ["ab"], "Y": ["ab"]}, "S")
        assert max_ambiguity(g) == 3

    def test_max_ambiguity_unambiguous_is_one(self):
        assert max_ambiguity(grammar_from_mapping("ab", {"S": ["a"]}, "S")) == 1

    def test_max_ambiguity_empty_is_zero(self):
        g = grammar_from_mapping("ab", {"S": ["SX"], "X": ["a"]}, "S")
        assert max_ambiguity(g) == 0

    def test_find_ambiguous_word_shortest_first(self):
        g = grammar_from_mapping(
            "ab", {"S": ["a", "X", "bb", "Y"], "X": ["a"], "Y": ["bb"]}, "S"
        )
        assert find_ambiguous_word(g) == "a"

    def test_find_ambiguous_word_none(self):
        assert find_ambiguous_word(grammar_from_mapping("ab", {"S": ["a"]}, "S")) is None

    def test_witness_regenerates_figure1(self):
        witness = ambiguity_witness(example3_grammar(1))
        assert witness is not None
        word, tree1, tree2 = witness
        assert tree1 != tree2
        assert tree1.word == word == tree2.word

    def test_witness_none_for_unambiguous(self):
        assert ambiguity_witness(example4_ucfg(2)) is None


class TestRequire:
    def test_require_passes(self):
        require_unambiguous(grammar_from_mapping("ab", {"S": ["a"]}, "S"), "test")

    def test_require_raises(self):
        g = grammar_from_mapping("ab", {"S": ["a", "X"], "X": ["a"]}, "S")
        with pytest.raises(NotUnambiguousError):
            require_unambiguous(g, "test")


def assert_profile_matches_parsing(grammar):
    """The word-count fold agrees with per-word parsing by the frozen oracle.

    Every profiled word gets its oracle parse count.  The counts summing
    to all derivations of the start symbol then shows that no other word
    has a parse.  Where the whole language is parsed, the witness search
    must also find the length-lex least word the oracle counts twice.
    """
    profile = ambiguity_profile(grammar)
    words = sorted(profile, key=lambda w: (len(w), w))
    stride = -(-len(words) // PARSED_WORDS) or 1
    parsed = {word: legacy_generic_count(grammar, word) for word in words[::stride]}
    assert parsed == {word: profile[word] for word in parsed}
    assert sum(profile.values()) == count_derivations(grammar)
    if stride == 1:
        first = next((word for word in words if parsed[word] >= 2), None)
        assert find_ambiguous_word(grammar) == first
        assert is_unambiguous(grammar) == (first is None)


class TestProfileMatchesPerWordParsing:
    def test_corpus(self, corpus_grammar):
        assert_profile_matches_parsing(corpus_grammar)

    @pytest.mark.parametrize("shape_name", sorted(SHAPES))
    def test_random_grammars(self, shape_name):
        for seed in range(200):
            assert_profile_matches_parsing(random_finite_grammar(seed, SHAPES[shape_name]))
