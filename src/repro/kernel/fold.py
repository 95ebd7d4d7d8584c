"""Grammar folds: one bottom-up pass over an acyclic grammar, any semiring.

For a finite-language (trimmed) grammar the non-terminal dependency graph
is acyclic, so every per-non-terminal quantity of the paper is one
topological fold ``v(A) = ⊕_{A→W} finish(A→W, ⊗_{X∈W} v(X))``:

* counting semiring — ``|L(A)|`` per non-terminal for unambiguous
  grammars (the factorised counting of Section 1, the backbone of ranked
  access);
* length-spectrum semiring — derivation counts by word length (the
  Theorem 1 table rows);
* word-count semiring — ``L(A)`` itself, each word with its derivation
  count (language extraction and the ambiguity profile);
* the uniform-length check — Observation 9's "every non-terminal pins a
  single factor length", consumed by the Lemma 10 indexing transform.
"""

from __future__ import annotations

import graphlib

from repro.errors import InfiniteLanguageError, MixedLengthLanguageError
from repro.grammars.cfg import CFG, NonTerminal
from repro.kernel.semiring import Semiring

__all__ = ["topological_nonterminals", "fold_grammar", "uniform_symbol_lengths"]


def topological_nonterminals(grammar: CFG) -> list[NonTerminal]:
    """Non-terminals ordered dependencies-first; raises on recursion."""
    sorter: graphlib.TopologicalSorter = graphlib.TopologicalSorter()
    for nt in grammar.nonterminals:
        deps = {
            sym
            for rule in grammar.rules_for(nt)
            for sym in rule.rhs
            if grammar.is_nonterminal(sym)
        }
        sorter.add(nt, *deps)
    try:
        return list(sorter.static_order())
    except graphlib.CycleError as exc:
        raise InfiniteLanguageError(
            f"grammar fold requires an acyclic (finite-language) grammar: {exc}"
        ) from exc


def fold_grammar(grammar: CFG, semiring: Semiring) -> dict[NonTerminal, object]:
    """Return ``{A: ⊕ over derivations from A of their semiring value}``.

    The grammar must be acyclic (finite language); callers usually trim
    first.  Unproductive non-terminals fold to ``0̄``.
    """
    sr = semiring
    values: dict[NonTerminal, object] = {}
    for nt in topological_nonterminals(grammar):
        total = sr.zero
        for rule in grammar.rules_for(nt):
            product = sr.one
            for sym in rule.rhs:
                factor = sr.terminal(sym) if grammar.is_terminal(sym) else values[sym]
                if sr.is_zero(factor):
                    product = sr.zero
                    break
                product = sr.mul(product, factor)
            if sr.is_zero(product):
                continue
            total = sr.add(total, sr.finish(rule, product))
        values[nt] = total
    return values


class _UniformLengthSemiring(Semiring):
    """Partial semiring: lengths with "must be equal" addition.

    Values are ``None`` (no derivable word) or the unique derivable word
    length; ``⊕`` asserts equality (Observation 9) and ``⊗`` adds
    factor lengths.  Addition raising on a mismatch is what turns the
    fold into a checked computation rather than a lawful semiring — the
    point is precisely that uniform-length grammars never trigger it.
    """

    zero = None
    one = 0

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        if a != b:
            raise MixedLengthLanguageError(
                f"a non-terminal generates words of lengths {sorted((a, b))}; "
                "Observation 9 requires a uniform-length language"
            )
        return a

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return a + b

    def terminal(self, symbol: str) -> int:
        return 1


_UNIFORM_LENGTH = _UniformLengthSemiring()


def uniform_symbol_lengths(grammar: CFG) -> dict[NonTerminal, int]:
    """The unique word length generated by each productive non-terminal.

    The semiring-fold formulation of Observation 9: raises
    :class:`~repro.errors.MixedLengthLanguageError` if some non-terminal
    derives two different lengths.  Unproductive non-terminals are
    omitted, so on trimmed grammars this agrees with
    :func:`repro.grammars.analysis.uniform_lengths`.
    """
    folded = fold_grammar(grammar, _UNIFORM_LENGTH)
    return {nt: length for nt, length in folded.items() if length is not None}
