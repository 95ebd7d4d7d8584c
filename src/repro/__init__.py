"""repro — an executable reproduction of
"A Lower Bound on Unambiguous Context Free Grammars via Communication
Complexity" (Mengel & Vinall-Smeeth, PODS 2025).

The package turns the paper's constructions and proofs into a library:

* :mod:`repro.grammars` — CFG toolchain (size measure, CNF, parsing,
  counting, ambiguity, indexing, ranked access, disambiguation);
* :mod:`repro.automata` — NFA/DFA substrate;
* :mod:`repro.languages` — the concrete languages ``L_n``/``L*_n`` and
  the paper's grammar/automaton constructions;
* :mod:`repro.core` — rectangles, the set perspective, the Proposition 7
  cover extraction and the Section 4 discrepancy lower bound;
* :mod:`repro.comm` — classical communication-complexity tools (matrices,
  rank bounds, fooling sets, brute-force covers);
* :mod:`repro.factorized` — d-representations and their isomorphism with
  finite-language CFGs;
* :mod:`repro.spanners` — the information-extraction scenario from the
  introduction;
* :mod:`repro.slp` — straight-line programs (grammar-based compression).

Quickstart::

    from repro.languages import small_ln_grammar, example4_ucfg, ln_words
    from repro.grammars import language, is_unambiguous
    from repro.core import certificate

    g = small_ln_grammar(6)                  # Θ(log n) CFG for L_6
    assert language(g) == ln_words(6)
    assert not is_unambiguous(g)             # smallness costs ambiguity
    print(certificate(64).ucfg_bound)        # exact uCFG size lower bound
"""

from repro.errors import (
    CertificateError,
    GrammarError,
    InfiniteAmbiguityError,
    InfiniteLanguageError,
    LanguageTooLargeError,
    MixedLengthLanguageError,
    NotInChomskyNormalFormError,
    NotInLanguageError,
    NotUnambiguousError,
    PartitionError,
    RectangleError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "GrammarError",
    "NotInLanguageError",
    "InfiniteLanguageError",
    "LanguageTooLargeError",
    "InfiniteAmbiguityError",
    "NotUnambiguousError",
    "NotInChomskyNormalFormError",
    "MixedLengthLanguageError",
    "PartitionError",
    "RectangleError",
    "CertificateError",
]
