"""Proposition 7: from a CFG to a cover by balanced rectangles.

Given a grammar ``G`` for a language of uniform word length ``n``, the
construction produces balanced rectangles ``L_1, ..., L_ℓ`` with
``⋃ L_i = L(G)`` and ``ℓ ≤ n·|G|`` — and, crucially, the union is
*disjoint* whenever ``G`` is unambiguous.  The pipeline follows the paper
literally:

1. convert to Chomsky normal form and trim;
2. apply the Lemma 10 position-indexing transform;
3. repeatedly pick a word of the remaining language, take a parse tree,
   descend from the root towards the child with more leaves until the
   subtree first has fewer than ``2n/3`` leaves (then it has at least
   ``n/3``), and cut out the rectangle of Observation 11 at that
   non-terminal;
4. delete the non-terminal, re-trim, repeat until the language empties.

Everything is exact and enumerative, so this is only feasible for small
languages — which is all the lower-bound argument ever needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.core.rectangles import Rectangle, is_rectangle_decomposition
from repro.errors import RectangleError
from repro.grammars.ambiguity import is_unambiguous
from repro.grammars.analysis import trim
from repro.grammars.cfg import CFG, NonTerminal
from repro.grammars.cnf import to_cnf
from repro.grammars.cyk import one_parse_tree
from repro.grammars.indexing import index_by_position, indexed_position
from repro.grammars.language import language, languages_by_nonterminal
from repro.grammars.trees import ParseTree
from repro.kernel.fold import topological_nonterminals

__all__ = ["ExtractionStep", "RectangleCover", "balanced_rectangle_cover", "context_pairs"]


@dataclass(frozen=True, slots=True)
class ExtractionStep:
    """One iteration of the Proposition 7 loop."""

    nonterminal: NonTerminal
    witness_word: str
    rectangle: Rectangle


@dataclass(frozen=True, slots=True)
class RectangleCover:
    """The output of :func:`balanced_rectangle_cover`.

    ``rectangles`` is the cover; ``steps`` records which indexed
    non-terminal produced each rectangle; ``cnf_size`` is ``|G|`` for the
    CNF grammar, so Proposition 7 promises ``len(rectangles) ≤
    word_length * cnf_size`` (exposed as :attr:`proposition7_bound`).
    ``disjoint`` reports whether the produced union is in fact disjoint
    (always true when the source grammar is unambiguous).
    """

    rectangles: tuple[Rectangle, ...]
    steps: tuple[ExtractionStep, ...]
    word_length: int
    cnf_size: int
    indexed_size: int
    disjoint: bool

    @property
    def n_rectangles(self) -> int:
        return len(self.rectangles)

    @property
    def proposition7_bound(self) -> int:
        """``n · |G|`` — the upper bound on the cover size from Prop. 7."""
        return self.word_length * self.cnf_size

    def covered_words(self) -> frozenset[str]:
        """The union of all rectangles."""
        words: set[str] = set()
        for rect in self.rectangles:
            words |= rect.word_set()
        return frozenset(words)


def context_pairs(
    indexed_grammar: CFG,
    langs: dict[NonTerminal, frozenset[str]],
) -> dict[NonTerminal, frozenset[tuple[str, str]]]:
    """All ``(prefix, suffix)`` pairs with ``S ⇒* prefix · A · suffix``.

    Computed top-down over the (acyclic) trimmed indexed grammar: a binary
    rule ``P -> Q R`` extends ``Q``'s suffixes with words of ``R`` and
    ``R``'s prefixes with words of ``Q``.
    """
    contexts: dict[NonTerminal, set[tuple[str, str]]] = {
        nt: set() for nt in indexed_grammar.nonterminals
    }
    contexts[indexed_grammar.start].add(("", ""))
    for nt in reversed(topological_nonterminals(indexed_grammar)):
        own = contexts[nt]
        if not own:
            continue
        for rule in indexed_grammar.rules_for(nt):
            if len(rule.rhs) != 2:
                continue
            left, right = rule.rhs
            for prefix, suffix in own:
                for right_word in langs[right]:
                    contexts[left].add((prefix, right_word + suffix))
                for left_word in langs[left]:
                    contexts[right].add((prefix + left_word, suffix))
    return {nt: frozenset(pairs) for nt, pairs in contexts.items()}


def _descend_to_balanced(tree: ParseTree, word_length: int) -> ParseTree:
    """The standard descent: follow the heavier child until the subtree
    first has fewer than ``2n/3`` leaves; the stopping node then has
    between ``n/3`` and ``2n/3`` leaves (Section 3)."""
    threshold = Fraction(2 * word_length, 3)
    node = tree
    while Fraction(node.n_leaves) >= threshold:
        if node.children is None or not node.children:
            raise RectangleError(
                "descent reached a leaf before finding a balanced subtree; "
                "this cannot happen for word length >= 2"
            )
        node = max(node.children, key=lambda child: child.n_leaves)
    return node


def balanced_rectangle_cover(grammar: CFG, verify: bool = True) -> RectangleCover:
    """Run the Proposition 7 construction on a uniform-length CFG.

    Returns a :class:`RectangleCover`; with ``verify=True`` (default) the
    cover is checked to union exactly to ``L(G)``, to be balanced, to
    respect the ``ℓ ≤ n·|G|`` bound, and — when the source grammar is
    unambiguous — to be disjoint (raising
    :class:`~repro.errors.RectangleError` otherwise).

    >>> from repro.languages.example3 import example3_grammar
    >>> cover = balanced_rectangle_cover(example3_grammar(1))
    >>> cover.n_rectangles <= cover.proposition7_bound
    True
    """
    target = language(grammar)
    cnf = to_cnf(grammar)
    if not target:
        return RectangleCover((), (), 0, cnf.size, 0, True)
    lengths = {len(w) for w in target}
    if len(lengths) != 1:
        raise RectangleError("Proposition 7 requires a uniform-length language")
    word_length = next(iter(lengths))
    if word_length < 2:
        raise RectangleError("Proposition 7 needs word length >= 2 for balancedness")

    indexed = index_by_position(cnf)
    current = indexed.grammar
    indexed_size = current.size

    rectangles: list[Rectangle] = []
    steps: list[ExtractionStep] = []
    while True:
        remaining = language(current)
        if not remaining:
            break
        witness = min(remaining)
        tree = one_parse_tree(current, witness)
        balanced_node = _descend_to_balanced(tree, word_length)
        nonterminal = balanced_node.symbol

        langs = languages_by_nonterminal(current)
        contexts = context_pairs(current, langs)
        position = indexed_position(nonterminal)
        inner = langs[nonterminal]
        n2 = len(next(iter(inner)))
        n1 = position - 1
        n3 = word_length - n1 - n2
        outer = {prefix + suffix for prefix, suffix in contexts[nonterminal]}
        rectangle = Rectangle(
            outer=outer, inner=inner, n1=n1, n2=n2, n3=n3, alphabet=grammar.alphabet
        )
        rectangles.append(rectangle)
        steps.append(ExtractionStep(nonterminal, witness, rectangle))

        keep = [nt for nt in current.nonterminals if nt != nonterminal]
        current = trim(current.restricted_to(keep))

    total_members = sum(r.n_words for r in rectangles)
    union: set[str] = set()
    for rect in rectangles:
        union |= rect.word_set()
    disjoint = total_members == len(union)

    cover = RectangleCover(
        rectangles=tuple(rectangles),
        steps=tuple(steps),
        word_length=word_length,
        cnf_size=cnf.size,
        indexed_size=indexed_size,
        disjoint=disjoint,
    )
    if verify:
        if not is_rectangle_decomposition(cover.rectangles, target, require_balanced=True):
            raise RectangleError("extracted rectangles do not cover the language exactly")
        if cover.n_rectangles > cover.proposition7_bound:
            raise RectangleError(
                f"cover size {cover.n_rectangles} exceeds the Proposition 7 bound "
                f"{cover.proposition7_bound}"
            )
        if not cover.disjoint and is_unambiguous(grammar):
            raise RectangleError(
                "the grammar is unambiguous but the extracted cover is not disjoint"
            )
    return cover
