"""Deciding (un)ambiguity of finite-language grammars.

Ambiguity of general CFGs is undecidable, but the paper works exclusively
with finite languages, where it is decidable.  A grammar is *unambiguous*
iff every word of its language has exactly one parse tree (Section 2).

One grammar fold over the word-count semiring
(:func:`repro.grammars.language.word_counts_by_nonterminal`) yields every
word of ``L(G)`` together with its number of parse trees.  The profile,
the decision, the maximum and the least ambiguous word all read that one
table, so no word is parsed to decide ambiguity.

Only :func:`ambiguity_witness` parses, and only the one witness word: it
builds that word's packed forest on the original grammar (no
normal-form conversion), so witnesses like Figure 1's two parse trees of
``aaaaaa`` under the Example 3 grammar come out verbatim.
"""

from __future__ import annotations

from repro.errors import NotUnambiguousError
from repro.grammars.cfg import CFG
from repro.grammars.generic import GenericParser
from repro.grammars.language import word_counts_by_nonterminal
from repro.grammars.trees import ParseTree
from repro.kernel.forest import FOREST

__all__ = [
    "ambiguity_profile",
    "is_unambiguous",
    "require_unambiguous",
    "find_ambiguous_word",
    "ambiguity_witness",
    "max_ambiguity",
]


def ambiguity_profile(grammar: CFG) -> dict[str, int]:
    """Return ``{word: number of parse trees}`` over the whole language.

    Every count is ≥ 1 by construction; a count ≥ 2 witnesses ambiguity.
    The start symbol's entry of the word-count fold, so the language
    budget of :func:`~repro.grammars.language.language` applies.
    """
    return dict(word_counts_by_nonterminal(grammar).get(grammar.start, {}))


def is_unambiguous(grammar: CFG) -> bool:
    """Decide whether the finite-language grammar is unambiguous.

    >>> from repro.grammars.cfg import grammar_from_mapping
    >>> ambiguous = grammar_from_mapping("ab", {"S": ["ab", "aX"], "X": ["b"]}, "S")
    >>> is_unambiguous(ambiguous)
    False
    """
    return max_ambiguity(grammar) <= 1


def require_unambiguous(grammar: CFG, operation: str) -> None:
    """Raise :class:`NotUnambiguousError` unless the grammar is unambiguous."""
    witness = find_ambiguous_word(grammar)
    if witness is not None:
        raise NotUnambiguousError(
            f"{operation} requires an unambiguous grammar, but {witness!r} has "
            "more than one parse tree"
        )


def find_ambiguous_word(grammar: CFG) -> str | None:
    """Return some word with ≥ 2 parse trees, or ``None`` if unambiguous.

    The returned witness is the length-lex least ambiguous word (shortest
    first, then lexicographically).  The profile covers the whole finite
    language, so ``None`` is a proof of unambiguity, not a timeout.
    """
    ambiguous = (word for word, count in ambiguity_profile(grammar).items() if count >= 2)
    return min(ambiguous, key=lambda w: (len(w), w), default=None)


def ambiguity_witness(grammar: CFG) -> tuple[str, ParseTree, ParseTree] | None:
    """Return ``(word, tree1, tree2)`` with two distinct parse trees.

    This reproduces Figure 1 of the paper programmatically: applied to the
    Example 3 grammar it yields a word together with two structurally
    different parse trees.  Returns ``None`` for unambiguous grammars.
    The word is :func:`find_ambiguous_word`'s; it is the only word
    parsed, once, into the packed forest both trees are read from.
    """
    word = find_ambiguous_word(grammar)
    if word is None:
        return None
    trees = GenericParser(grammar).chart(word, FOREST).value().trees()
    return word, next(trees), next(trees)


def max_ambiguity(grammar: CFG) -> int:
    """Return the largest parse-tree count over all words of the language.

    ``1`` for unambiguous grammars, ``0`` for the empty language.
    """
    return max(ambiguity_profile(grammar).values(), default=0)
