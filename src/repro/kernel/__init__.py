"""The semiring-generic chart-parsing kernel.

Every dynamic program in the repository — CYK recognition and counting,
generic-grammar parsing, Earley recognition, ambiguity detection, ranked
access, automaton path counting — is one of three loop shapes (CNF chart,
generic chart, layered path DP) instantiated over a semiring.  This
package holds those loops exactly once; the historical modules under
:mod:`repro.grammars` and :mod:`repro.automata` are thin adapters.

See ``docs/KERNEL.md`` for the semiring ↔ paper-lemma correspondence.
"""

from repro.kernel.batch import BatchedRecognizer
from repro.kernel.chart import CNFChart, cnf_bitset_tables, recognise_cnf, require_cnf
from repro.kernel.earley import EarleyChart, EarleyItem, EarleySemiringChart
from repro.kernel.fold import fold_grammar, topological_nonterminals, uniform_symbol_lengths
from repro.kernel.forest import EMPTY_FOREST, EPSILON_FOREST, FOREST, Forest, ForestSemiring
from repro.kernel.generic import GenericChart, symbol_min_lengths
from repro.kernel.paths import path_value, path_values_up_to, step_layer
from repro.kernel.prefix import PrefixDP
from repro.kernel.semiring import (
    BOOLEAN,
    COUNTING,
    SPECTRUM,
    BooleanSemiring,
    CountingSemiring,
    LengthSpectrumSemiring,
    MinLengthSemiring,
    Semiring,
    WordCountSemiring,
)

__all__ = [
    # semirings
    "Semiring",
    "BooleanSemiring",
    "CountingSemiring",
    "MinLengthSemiring",
    "LengthSpectrumSemiring",
    "WordCountSemiring",
    "ForestSemiring",
    "BOOLEAN",
    "COUNTING",
    "SPECTRUM",
    "FOREST",
    # forests
    "Forest",
    "EMPTY_FOREST",
    "EPSILON_FOREST",
    # CNF chart
    "CNFChart",
    "require_cnf",
    "recognise_cnf",
    "cnf_bitset_tables",
    "BatchedRecognizer",
    # generic + Earley charts
    "GenericChart",
    "symbol_min_lengths",
    "EarleyItem",
    "EarleyChart",
    "EarleySemiringChart",
    # folds and path DPs
    "fold_grammar",
    "topological_nonterminals",
    "uniform_symbol_lengths",
    "PrefixDP",
    "path_value",
    "path_values_up_to",
    "step_layer",
]
