"""Disambiguation: finite-language CFG → equivalent uCFG (benchmark E12).

The paper's Related Work recalls that "every CFG accepting a finite
language can be transformed into an equivalent uCFG with at most a
double-exponential blow-up" [20], and Theorem 1 shows the blow-up is
unavoidable.  This module implements the constructive direction via the
canonical unambiguous representation of a finite language — its minimal
acyclic DFA — rendered as a right-linear grammar.  Right-linear grammars
over a DFA are unambiguous because runs are deterministic.

The pipeline is: enumerate ``L(G)`` with one grammar fold (first
exponential), build its minimal DFA once — the trie of the words,
layered by depth and minimised by signature hashing in time linear in
the trie — and emit the grammar (worst case another exponential in the
DFA size vs the original grammar, matching the double-exponential
ceiling overall).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.dfa import DFA
from repro.automata.ops import minimal_dfa_of_finite_language
from repro.grammars.ambiguity import is_unambiguous
from repro.grammars.analysis import trim
from repro.grammars.cfg import CFG, NonTerminal, Rule
from repro.grammars.language import language, same_language
from repro.words.alphabet import Alphabet

__all__ = ["DisambiguationReport", "disambiguate", "ucfg_of_finite_language"]


@dataclass(frozen=True, slots=True)
class DisambiguationReport:
    """Sizes along the CFG → uCFG pipeline."""

    source_size: int
    language_size: int
    dfa_states: int
    result_size: int

    @property
    def blow_up(self) -> float:
        """``result_size / source_size`` (∞-safe: source is never size 0 here)."""
        return self.result_size / self.source_size


def ucfg_of_finite_language(words: frozenset[str] | set[str], alphabet: Alphabet) -> CFG:
    """Return an unambiguous right-linear CFG for a finite set of words.

    The grammar is built on the minimal complete DFA of the language and
    then trimmed (the completion sink disappears again).  The empty word,
    if present, is handled by a relaxed start ε-rule.

    >>> from repro.words import AB
    >>> from repro.grammars.ambiguity import is_unambiguous
    >>> g = ucfg_of_finite_language({"ab", "aa"}, AB)
    >>> is_unambiguous(g)
    True
    """
    return _ucfg_of_dfa(minimal_dfa_of_finite_language(words, alphabet))


def _ucfg_of_dfa(dfa: DFA) -> CFG:
    """The trimmed right-linear grammar of a DFA's runs (unambiguous)."""
    # A fresh start symbol (never on a right-hand side) keeps the grammar
    # unambiguous even when the DFA's initial state is accepting or has
    # incoming transitions.
    start: NonTerminal = ("u-start",)
    nts: list[NonTerminal] = [start] + [("u", q) for q in sorted(dfa.states, key=str)]
    rules: list[Rule] = []
    for (src, sym), dst in sorted(dfa.transitions().items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        rules.append(Rule(("u", src), (sym, ("u", dst))))
        if dst in dfa.accepting:
            rules.append(Rule(("u", src), (sym,)))
    for rule in [r for r in rules if r.lhs == ("u", dfa.initial)]:
        rules.append(Rule(start, rule.rhs))
    if dfa.initial in dfa.accepting:
        rules.append(Rule(start, ()))
    return trim(CFG(dfa.alphabet, nts, rules, start))


def disambiguate(grammar: CFG, verify: bool = True) -> tuple[CFG, DisambiguationReport]:
    """Convert a finite-language CFG into an equivalent uCFG.

    Returns the uCFG and a :class:`DisambiguationReport` with the sizes at
    every pipeline stage.  With ``verify=True`` (default) the result is
    checked for language equality and unambiguity — expensive but exact.
    """
    words = language(grammar)
    dfa = minimal_dfa_of_finite_language(words, grammar.alphabet)
    result = _ucfg_of_dfa(dfa)
    if verify:
        if not same_language(grammar, result):
            raise AssertionError("disambiguate produced a non-equivalent grammar")
        if not is_unambiguous(result):
            raise AssertionError("disambiguate produced an ambiguous grammar")
    report = DisambiguationReport(
        source_size=grammar.size,
        language_size=len(words),
        dfa_states=dfa.n_states,
        result_size=result.size,
    )
    return result, report
