"""The paper's concrete languages and grammar/automaton constructions.

* :mod:`~repro.languages.ln` — the separating language ``L_n``
  (Example 3 / Section 4): membership, enumeration, exact counting;
* :mod:`~repro.languages.example3` — the ``Θ(k)`` ambiguous grammar
  ``G_k`` for ``L_{2^k+1}``;
* :mod:`~repro.languages.small_grammar` — the ``Θ(log n)`` grammar for
  every ``L_n`` (Appendix A, Theorem 1(1));
* :mod:`~repro.languages.unambiguous_grammar` — the exponential uCFG of
  Example 4;
* :mod:`~repro.languages.nfa_ln` — the guess-and-verify NFA
  (Theorem 1(2)), the exact-``L_n`` automaton and the ``n²`` fooling set;
* :mod:`~repro.languages.example6` — the rectangle language ``L*_n``.
"""

from repro.languages.example3 import example3_grammar, example3_language_parameter, example3_size
from repro.languages.example6 import (
    count_lstar,
    is_in_lstar,
    iter_lstar,
    lstar_rectangle,
    lstar_words,
)
from repro.languages.ln import (
    count_ln,
    first_match_position,
    is_in_ln,
    iter_ln,
    ln_words,
    match_positions,
)
from repro.languages.dfa_ln import (
    ln_match_minimal_dfa,
    ln_minimal_dfa,
    ln_minimal_dfa_states,
)
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

__all__ = [
    # L_n
    "is_in_ln",
    "iter_ln",
    "ln_words",
    "count_ln",
    "match_positions",
    "first_match_position",
    # grammars
    "example3_grammar",
    "example3_language_parameter",
    "example3_size",
    "small_ln_grammar",
    "example4_ucfg",
    "example4_size",
    "example4_ucfg_verbatim",
    "example4_verbatim_size",
    "iter_nomatch_pairs",
    # automata
    "ln_match_nfa",
    "ln_match_nfa_states",
    "ln_nfa_exact",
    "exact_ln_fooling_set",
    "ln_minimal_dfa",
    "ln_match_minimal_dfa",
    "ln_minimal_dfa_states",
    # L*_n
    "is_in_lstar",
    "iter_lstar",
    "lstar_words",
    "count_lstar",
    "lstar_rectangle",
]
