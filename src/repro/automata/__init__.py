"""Finite automata substrate (Theorem 1(2) and the UFA context).

NFAs and DFAs with determinisation, minimisation, boolean operations,
language equivalence, the unambiguity (UFA) test, and conversions to
right-linear CFGs and from finite languages.  The hot algorithms run on
the bit-parallel packed kernels in :mod:`repro.automata.packed`
(states renumbered to bit positions, state sets as big-int masks).
"""

from repro.automata.counting import (
    count_dfa_words_of_length,
    count_dfa_words_up_to,
    count_nfa_runs_of_length,
)
from repro.automata.dfa import DFA, determinise, minimise
from repro.automata.nfa import NFA, State
from repro.automata.packed import (
    PackedDFA,
    PackedNFA,
    as_packed_dfa,
    as_packed_nfa,
    packed_determinise,
    packed_fixed_length_minimal,
    packed_is_unambiguous,
    packed_minimise,
)
from repro.automata.regex import (
    Regex,
    any_symbol,
    compile_regex,
    concat,
    epsilon,
    repeat,
    star,
    sym,
    union as regex_union,
)
from repro.automata.ops import (
    dfa_from_finite_language,
    equivalent,
    intersect,
    is_unambiguous_nfa,
    minimal_dfa_of_finite_language,
    nfa_to_right_linear_cfg,
    product_dfa,
    trim_nfa,
    union,
)

__all__ = [
    "NFA",
    "DFA",
    "State",
    "PackedNFA",
    "PackedDFA",
    "as_packed_nfa",
    "as_packed_dfa",
    "packed_determinise",
    "packed_minimise",
    "packed_fixed_length_minimal",
    "packed_is_unambiguous",
    "determinise",
    "count_dfa_words_of_length",
    "count_dfa_words_up_to",
    "count_nfa_runs_of_length",
    "minimise",
    "product_dfa",
    "intersect",
    "union",
    "equivalent",
    "trim_nfa",
    "is_unambiguous_nfa",
    "nfa_to_right_linear_cfg",
    "dfa_from_finite_language",
    "minimal_dfa_of_finite_language",
    "Regex",
    "sym",
    "epsilon",
    "regex_union",
    "concat",
    "star",
    "repeat",
    "any_symbol",
    "compile_regex",
]
