"""Whole-pipeline invariants on seeded random grammars.

Each test drives a full multi-stage pipeline (not just one module) and
asserts an invariant the theory guarantees end to end.

The deep shape's languages range from a handful of words to past the
word budget.  Its seeds 109, 178, 984, 3045 and 3848 are pinned as
explicit examples: 178's language has 50,010 words (a trie of 367,028
states whose minimal DFA has 105), and 984's derivations number
430,479,505, so its language is over ``DEFAULT_MAX_WORDS`` and every
enumerating step must end in :class:`LanguageTooLargeError`.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LanguageTooLargeError
from repro.factorized.convert import cfg_to_drep
from repro.grammars.ambiguity import ambiguity_profile, is_unambiguous, max_ambiguity
from repro.grammars.analysis import trim
from repro.grammars.cnf import to_cnf
from repro.grammars.disambiguate import disambiguate
from repro.grammars.gnf import to_gnf
from repro.grammars.language import DEFAULT_MAX_WORDS, count_derivations, language
from repro.grammars.random_grammars import GrammarShape, random_finite_grammar

DEEP = GrammarShape(n_layers=4, nts_per_layer=1, rules_per_nt=2, max_body=4)
SEEDS = st.integers(0, 5000)
SHAPES = st.sampled_from(
    [
        GrammarShape(),
        GrammarShape(n_layers=2, nts_per_layer=3, rules_per_nt=3, max_body=2),
        DEEP,
        GrammarShape(epsilon_probability=0.4),
    ]
)


def deep_examples(test):
    """Pin the deep shape's heaviest known seeds as explicit examples."""
    for seed in (109, 178, 984, 3045, 3848):
        test = example(seed, DEEP)(test)
    return test


def language_within_budget(g):
    """``L(g)``, or ``None`` for a grammar over the word budget.

    Over the budget, ``language`` must raise the typed error.  Every word
    the budget counts extends to a distinct derivation of the start
    symbol, so the grammar must then have more derivations than the
    budget has words.
    """
    try:
        return language(g)
    except LanguageTooLargeError:
        assert count_derivations(g) > DEFAULT_MAX_WORDS
        return None


class TestNormalFormPipelines:
    @given(SEEDS, SHAPES)
    @deep_examples
    @settings(max_examples=30, deadline=None)
    def test_cnf_then_gnf_chain(self, seed, shape):
        g = random_finite_grammar(seed, shape)
        words = language_within_budget(g)
        if words is None:
            return
        cnf = to_cnf(g)
        gnf = to_gnf(cnf)
        assert language(cnf) == words
        assert language(gnf) == words

    @given(SEEDS, SHAPES)
    @deep_examples
    @settings(max_examples=30, deadline=None)
    def test_trim_then_transform_commutes_on_language(self, seed, shape):
        g = random_finite_grammar(seed, shape)
        if language_within_budget(g) is None:
            return
        assert language(to_cnf(trim(g))) == language(to_cnf(g))


class TestDisambiguationPipeline:
    @given(SEEDS, SHAPES)
    @deep_examples
    @settings(max_examples=25, deadline=None)
    def test_disambiguate_then_everything(self, seed, shape):
        g = random_finite_grammar(seed, shape)
        words = language_within_budget(g)
        if words is None:
            with pytest.raises(LanguageTooLargeError):
                disambiguate(g, verify=False)
            return
        if not words:
            return
        ucfg, report = disambiguate(g, verify=False)
        # The result supports the whole unambiguous toolchain.
        assert is_unambiguous(ucfg)
        assert count_derivations(ucfg) == len(words)
        assert max_ambiguity(ucfg) == 1
        drep = cfg_to_drep(ucfg)
        assert drep.is_unambiguous()
        assert drep.language() == words
        assert report.language_size == len(words)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_disambiguation_idempotent_on_language(self, seed):
        g = random_finite_grammar(seed)
        if not language(g):
            return
        once, _ = disambiguate(g, verify=False)
        twice, rep = disambiguate(once, verify=False)
        assert language(twice) == language(g)
        # Re-disambiguating a canonical grammar cannot grow the DFA.
        once_again, rep_prev = disambiguate(once, verify=False)
        assert rep.dfa_states == rep_prev.dfa_states


class TestAmbiguityAccounting:
    @given(SEEDS, SHAPES)
    @deep_examples
    @settings(max_examples=30, deadline=None)
    def test_derivation_surplus_matches_profile(self, seed, shape):
        g = random_finite_grammar(seed, shape)
        words = language_within_budget(g)
        if words is None:
            with pytest.raises(LanguageTooLargeError):
                ambiguity_profile(g)
            return
        profile = ambiguity_profile(g)
        assert sum(profile.values()) == count_derivations(g)
        assert set(profile) == set(words)
        if profile:
            assert (max(profile.values()) == 1) == is_unambiguous(g)
