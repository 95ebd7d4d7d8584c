"""The context-free-grammar toolchain (Section 2 substrate).

Public surface:

* :class:`~repro.grammars.cfg.CFG`, :class:`~repro.grammars.cfg.Rule` —
  grammars with the paper's size measure ``|G| = Σ |rhs|``;
* :mod:`~repro.grammars.analysis` — trimming, finiteness, Observation 9;
* :mod:`~repro.grammars.cnf` — Chomsky normal form;
* :mod:`~repro.grammars.cyk` / :mod:`~repro.grammars.generic` — parsing,
  parse-tree counting and enumeration (CNF and general form);
* :mod:`~repro.grammars.ambiguity` — deciding unambiguity of finite
  languages, ambiguity witnesses (Figure 1);
* :mod:`~repro.grammars.language` — language extraction and the two
  counting notions (derivations vs words);
* :mod:`~repro.grammars.indexing` — the Lemma 10 position-indexing
  transform;
* :class:`~repro.grammars.ranking.RankedLanguage` — count / rank / unrank
  / sample for unambiguous grammars;
* :mod:`~repro.grammars.disambiguate` — finite-language CFG → uCFG.
"""

from repro.grammars.cfg import CFG, NonTerminal, Rule, Symbol, grammar_from_mapping
from repro.grammars.analysis import (
    derivable_lengths,
    has_finite_language,
    is_empty,
    is_trim,
    productive_nonterminals,
    reachable_nonterminals,
    trim,
    uniform_lengths,
    useful_nonterminals,
)
from repro.grammars.ambiguity import (
    ambiguity_profile,
    ambiguity_witness,
    find_ambiguous_word,
    is_unambiguous,
    max_ambiguity,
)
from repro.grammars.cnf import to_cnf
from repro.grammars.derivation import (
    derivation_steps,
    format_derivation,
    leftmost_derivation,
    replay_derivation,
)
from repro.grammars.cyk import (
    CYKChart,
    count_parse_trees,
    cyk_chart,
    iter_parse_trees,
    one_parse_tree,
    recognises,
)
from repro.grammars.gnf import is_in_gnf, to_gnf
from repro.grammars.generic import (
    GenericParser,
    count_parse_trees_generic,
    iter_parse_trees_generic,
    recognises_generic,
)
from repro.grammars.earley import EarleyChart, earley_parse_positions, earley_recognises
from repro.grammars.indexing import IndexedGrammar, index_by_position
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
from repro.grammars.lexorder import LexRankedLanguage
from repro.grammars.random_grammars import GrammarShape, random_finite_grammar
from repro.grammars.ranking import RankedLanguage
from repro.grammars.trees import ParseTree, leaf, node

__all__ = [
    "CFG",
    "Rule",
    "NonTerminal",
    "Symbol",
    "grammar_from_mapping",
    "ParseTree",
    "leaf",
    "node",
    # analysis
    "trim",
    "is_trim",
    "is_empty",
    "productive_nonterminals",
    "reachable_nonterminals",
    "useful_nonterminals",
    "has_finite_language",
    "derivable_lengths",
    "uniform_lengths",
    # parsing
    "CYKChart",
    "cyk_chart",
    "recognises",
    "count_parse_trees",
    "iter_parse_trees",
    "one_parse_tree",
    "GenericParser",
    "EarleyChart",
    "earley_recognises",
    "earley_parse_positions",
    "recognises_generic",
    "count_parse_trees_generic",
    "iter_parse_trees_generic",
    # language & counting
    "language",
    "iter_language",
    "languages_by_nonterminal",
    "word_counts_by_nonterminal",
    "count_words",
    "count_derivations",
    "derivations_by_length",
    "words_by_length",
    "accepts_language",
    "same_language",
    # ambiguity
    "is_unambiguous",
    "ambiguity_profile",
    "find_ambiguous_word",
    "ambiguity_witness",
    "max_ambiguity",
    # derivations
    "leftmost_derivation",
    "derivation_steps",
    "replay_derivation",
    "format_derivation",
    # transforms
    "to_cnf",
    "to_gnf",
    "is_in_gnf",
    "IndexedGrammar",
    "index_by_position",
    "RankedLanguage",
    "LexRankedLanguage",
    "GrammarShape",
    "random_finite_grammar",
]
