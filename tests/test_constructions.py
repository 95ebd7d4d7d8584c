"""Tests for the paper's grammar/automaton constructions (Theorem 1 pieces)."""

from __future__ import annotations

import pytest

from repro.grammars.ambiguity import is_unambiguous
from repro.grammars.language import language
from repro.languages.example3 import (
    example3_grammar,
    example3_language_parameter,
    example3_size,
)
from repro.languages.example6 import (
    count_lstar,
    is_in_lstar,
    lstar_rectangle,
    lstar_words,
)
from repro.languages.ln import is_in_ln, ln_words
from repro.languages.nfa_ln import (
    exact_ln_fooling_set,
    ln_match_nfa,
    ln_match_nfa_states,
    ln_nfa_exact,
)
from repro.languages.small_grammar import small_ln_grammar
from repro.languages.unambiguous_grammar import (
    example4_size,
    example4_ucfg,
    example4_ucfg_verbatim,
    example4_verbatim_size,
    iter_nomatch_pairs,
)
from repro.words.ops import all_words
from repro.words.alphabet import AB
from tests.legacy_lower_bound import legacy_example4_size


class TestExample3:
    def test_accepts_l3(self):
        assert language(example3_grammar(1)) == ln_words(3)

    def test_accepts_l5(self):
        assert language(example3_grammar(2)) == ln_words(5)

    def test_parameter(self):
        assert example3_language_parameter(3) == 9

    def test_size_formula(self):
        for k in range(1, 6):
            assert example3_grammar(k).size == example3_size(k)

    def test_size_linear(self):
        assert example3_size(100) == 6 * 100 + 10

    def test_is_ambiguous(self):
        assert not is_unambiguous(example3_grammar(1))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            example3_grammar(0)


class TestSmallGrammar:
    @pytest.mark.parametrize("n", list(range(1, 10)))
    def test_accepts_ln(self, n):
        assert language(small_ln_grammar(n)) == ln_words(n)

    def test_size_logarithmic(self):
        # size/log2(n) stays bounded over three decades.
        import math

        ratios = [
            small_ln_grammar(n).size / math.log2(n)
            for n in (16, 256, 4096, 65536)
        ]
        assert max(ratios) < 16

    def test_size_small_for_huge_n(self):
        assert small_ln_grammar(10**9).size < 700

    def test_power_of_two_plus_one_matches_example3_shape(self):
        # For n = 2^k + 1 the language agrees with Example 3's G_k.
        assert language(small_ln_grammar(5)) == language(example3_grammar(2))

    def test_is_ambiguous_for_n_at_least_2(self):
        assert not is_unambiguous(small_ln_grammar(3))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            small_ln_grammar(0)


class TestExample4:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_accepts_ln_and_unambiguous(self, n):
        g = example4_ucfg(n)
        assert language(g) == ln_words(n)
        assert is_unambiguous(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_size_formula(self, n):
        assert example4_ucfg(n).size == example4_size(n)

    def test_size_exponential(self):
        assert example4_size(40) > 3**38

    def test_size_closed_form_matches_frozen_sum(self):
        for n in range(1, 701):
            assert example4_size(n) == legacy_example4_size(n), n

    def test_nomatch_pairs_count(self):
        for length in range(4):
            assert len(list(iter_nomatch_pairs(length))) == 3**length

    def test_nomatch_pairs_property(self):
        for u, v in iter_nomatch_pairs(3):
            assert not any(a == b == "a" for a, b in zip(u, v))

    def test_verbatim_variant_misses_words(self):
        # The paper's printed rules drop the (b, b) pairs: baba is lost.
        g = example4_ucfg_verbatim(2)
        assert "baba" in ln_words(2)
        assert "baba" not in language(g)
        assert language(g) < ln_words(2)

    def test_verbatim_variant_still_unambiguous(self):
        assert is_unambiguous(example4_ucfg_verbatim(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verbatim_size_formula(self, n):
        assert example4_ucfg_verbatim(n).size == example4_verbatim_size(n)

    def test_corrected_not_smaller_than_verbatim(self):
        for n in range(1, 8):
            assert example4_size(n) >= example4_verbatim_size(n)


class TestLnNFA:
    def test_match_nfa_accepts_ln_on_promise(self):
        nfa = ln_match_nfa(3)
        for word in all_words(AB, 6):
            assert nfa.accepts(word) == is_in_ln(word, 3)

    def test_match_nfa_linear_size(self):
        nfa = ln_match_nfa(50)
        assert nfa.n_states == 52
        assert nfa.n_transitions == 2 * 50 + 4

    def test_match_nfa_states_closed_form(self):
        # __wrapped__ builds without filling the memo with thousands of NFAs.
        for n in [*range(1, 401), *range(1, 4001, 37)]:
            nfa = ln_match_nfa.__wrapped__(n)
            assert ln_match_nfa_states(n) == nfa.n_states == n + 2
            assert nfa.n_transitions == 2 * n + 4

    @pytest.mark.parametrize("n", [0, -3])
    def test_match_nfa_states_refuses_like_the_constructor(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            ln_match_nfa(n)
        with pytest.raises(ValueError, match="n >= 1"):
            ln_match_nfa_states(n)

    def test_match_nfa_accepts_off_length(self):
        # The promise automaton accepts matching words of other lengths.
        assert ln_match_nfa(2).accepts("ababa")

    def test_exact_nfa_is_exact(self):
        nfa = ln_nfa_exact(2)
        members = ln_words(2)
        for length in range(0, 6):
            for word in all_words(AB, length):
                assert nfa.accepts(word) == (word in members)

    def test_exact_nfa_quadratic_size(self):
        sizes = [ln_nfa_exact(n).n_states for n in (2, 4, 8)]
        # Quadratic growth: roughly 4x per doubling.
        assert sizes[2] > 3 * sizes[1] > 9 * sizes[0] / 4

    def test_fooling_set_size(self):
        assert len(exact_ln_fooling_set(4)) == 16

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fooling_set_is_fooling(self, n):
        pairs = exact_ln_fooling_set(n)
        # Diagonal words are members...
        for u, v in pairs:
            assert is_in_ln(u + v, n)
        # ...and every cross combination falls outside L_n.
        for i, (u, _) in enumerate(pairs):
            for j, (_, v) in enumerate(pairs):
                if i != j:
                    assert not is_in_ln(u + v, n)

    def test_fooling_set_bounds_exact_nfa(self):
        # Sanity: our own exact NFA respects the n^2 lower bound.
        for n in (2, 3, 4):
            assert ln_nfa_exact(n).n_states >= n * n


class TestExample6:
    def test_membership(self):
        assert is_in_lstar("aaba", 2)
        assert not is_in_lstar("baaa", 2)

    def test_count(self):
        assert count_lstar(4) == 16 == len(lstar_words(4))

    def test_rectangle_form(self):
        rect = lstar_rectangle(4)
        assert rect.is_balanced
        assert rect.word_set() == lstar_words(4)
        assert rect.n1 == rect.n3 == 2 and rect.n2 == 4

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            lstar_words(3)
