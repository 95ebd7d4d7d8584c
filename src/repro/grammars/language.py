"""Finite-language extraction and exact counting.

For a finite language (the only kind the paper considers) the trimmed
grammar's non-terminal dependency graph is acyclic, so one grammar fold
over the word-count semiring computes the language of every
non-terminal, each word with its number of parse trees.  This module
also exposes the two counting notions whose divergence is the
algorithmic heart of the CFG/uCFG contrast:

* :func:`count_derivations` — the number of parse trees from the start
  symbol, computable in time polynomial in the grammar size;
* :func:`count_words` — the number of *distinct* words, which coincides
  with the former exactly for unambiguous grammars (counting for general
  CFGs is #P-complete, so here it falls back to enumeration).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.grammars.analysis import require_finite_language, trim
from repro.grammars.cfg import CFG, NonTerminal
from repro.kernel.fold import fold_grammar
from repro.kernel.semiring import COUNTING, SPECTRUM, WordCountSemiring

__all__ = [
    "word_counts_by_nonterminal",
    "languages_by_nonterminal",
    "language",
    "iter_language",
    "count_words",
    "count_derivations",
    "derivations_by_length",
    "words_by_length",
    "accepts_language",
    "same_language",
]

#: Guard against accidentally materialising astronomically large languages.
DEFAULT_MAX_WORDS = 5_000_000


def word_counts_by_nonterminal(
    grammar: CFG, max_words: int = DEFAULT_MAX_WORDS
) -> dict[NonTerminal, dict[str, int]]:
    """Return ``{A: {w: #parse trees of w from A}}`` for every useful non-terminal.

    One grammar fold over the word-count semiring: each non-terminal's
    language, with every word's derivation count.  The grammar is trimmed
    internally; non-terminals that appear in no parse tree are omitted.
    Raises :class:`InfiniteLanguageError` if the language is infinite,
    and its subclass :class:`LanguageTooLargeError` if an intermediate
    language exceeds ``max_words`` (a safety valve — Example 4 grammars
    explode quickly).  Each language is checked while it grows, so none
    holds much more than ``2 * max_words`` words.
    """
    require_finite_language(grammar, "word_counts_by_nonterminal")
    return fold_grammar(trim(grammar), WordCountSemiring(max_words))


def languages_by_nonterminal(
    grammar: CFG, max_words: int = DEFAULT_MAX_WORDS
) -> dict[NonTerminal, frozenset[str]]:
    """Return ``{A: L(A)}`` for every useful non-terminal.

    The key sets of :func:`word_counts_by_nonterminal`, with its trimming,
    budget and errors.
    """
    counts = word_counts_by_nonterminal(grammar, max_words)
    return {nt: frozenset(words) for nt, words in counts.items()}


def language(grammar: CFG, max_words: int = DEFAULT_MAX_WORDS) -> frozenset[str]:
    """Return ``L(G)`` as a frozenset of words.

    >>> from repro.grammars.cfg import grammar_from_mapping
    >>> g = grammar_from_mapping("ab", {"S": ["ab", "ba"]}, "S")
    >>> sorted(language(g))
    ['ab', 'ba']
    """
    return frozenset(word_counts_by_nonterminal(grammar, max_words).get(grammar.start, ()))


def iter_language(grammar: CFG, max_words: int = DEFAULT_MAX_WORDS) -> Iterator[str]:
    """Yield the words of ``L(G)`` sorted by length, then lexicographically."""
    yield from sorted(language(grammar, max_words), key=lambda w: (len(w), w))


def count_words(grammar: CFG, max_words: int = DEFAULT_MAX_WORDS) -> int:
    """Return ``|L(G)|`` exactly, by enumeration.

    For unambiguous grammars prefer :func:`count_derivations`, which gives
    the same number in polynomial time.
    """
    return len(language(grammar, max_words))


def count_derivations(grammar: CFG) -> int:
    """Return the number of parse trees from the start symbol.

    Computed by the classic product-sum dynamic program
    ``t(A) = Σ_{A→W} Π_{B ∈ W} t(B)`` over the trimmed grammar — the
    kernel fold over the counting semiring — in time polynomial in
    ``|G|``.  For an unambiguous grammar this equals ``|L(G)|``; in
    general it over-counts words by their ambiguity multiplicity
    (counting words exactly for general CFGs is #P-complete, as recalled
    in the paper's introduction).
    """
    require_finite_language(grammar, "count_derivations")
    g = trim(grammar)
    return fold_grammar(g, COUNTING).get(g.start, 0)


def derivations_by_length(grammar: CFG) -> dict[int, int]:
    """Return ``{length: #parse trees of words of that length}``.

    The kernel fold over the length-spectrum semiring (a length-indexed
    polynomial per non-terminal); for unambiguous grammars this is the
    exact word-count spectrum of the language.
    """
    require_finite_language(grammar, "derivations_by_length")
    g = trim(grammar)
    return dict(fold_grammar(g, SPECTRUM).get(g.start, {}))


def words_by_length(grammar: CFG, max_words: int = DEFAULT_MAX_WORDS) -> dict[int, int]:
    """Return ``{length: #distinct words of that length}`` by enumeration."""
    spectrum: dict[int, int] = {}
    for word in language(grammar, max_words):
        spectrum[len(word)] = spectrum.get(len(word), 0) + 1
    return spectrum


def accepts_language(grammar: CFG, expected: frozenset[str] | set[str]) -> bool:
    """Return whether ``L(G)`` equals ``expected`` exactly."""
    return language(grammar) == frozenset(expected)


def same_language(grammar_a: CFG, grammar_b: CFG) -> bool:
    """Return whether two finite-language grammars are equivalent."""
    return language(grammar_a) == language(grammar_b)
