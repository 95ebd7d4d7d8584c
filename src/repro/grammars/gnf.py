"""Greibach normal form for finite-language grammars.

In GNF every rule is ``A → a B_1 ... B_k`` (a terminal followed by
non-terminals); derivations then consume one input symbol per step,
which gives top-down parsers without lookahead pathologies and makes the
derivation length equal the word length.  General GNF conversion fights
left recursion, but the paper's world is finite languages — whose
trimmed grammars are *acyclic* — so conversion is a clean topological
substitution: expand each rule's leading non-terminals until a terminal
surfaces.

The size can blow up exponentially (the leading-prefix expansion
multiplies out alternatives), which tests document; for the paper's
log-size `L_n` grammars the growth stays modest at small `n`.
"""

from __future__ import annotations

from repro.errors import GrammarError
from repro.grammars.analysis import require_finite_language, trim
from repro.grammars.cfg import CFG, NonTerminal, Rule, Symbol
from repro.grammars.cnf import to_cnf
from repro.kernel.fold import topological_nonterminals

__all__ = ["to_gnf", "is_in_gnf"]


def is_in_gnf(grammar: CFG) -> bool:
    """Whether every rule has the shape ``A → a B_1 ... B_k`` (``k ≥ 0``).

    The start symbol may carry an ε-rule iff it never occurs on a
    right-hand side (same relaxation as for CNF).

    >>> from repro.grammars.cfg import CFG
    >>> g = CFG("ab", ["S", "B"], [("S", ("a", "B")), ("B", ("b",))], "S")
    >>> is_in_gnf(g)
    True
    """
    start_on_rhs = any(grammar.start in rule.rhs for rule in grammar.rules)
    for rule in grammar.rules:
        if len(rule.rhs) == 0:
            if rule.lhs == grammar.start and not start_on_rhs:
                continue
            return False
        head, *tail = rule.rhs
        if not grammar.is_terminal(head):
            return False
        if any(not grammar.is_nonterminal(s) for s in tail):
            return False
    return True


def to_gnf(grammar: CFG, max_rules: int = 200_000) -> CFG:
    """Convert a finite-language grammar to Greibach normal form.

    Pipeline: CNF first (handles ε and unit rules), then expand leading
    non-terminals bottom-up in topological order — sound because trimmed
    finite-language grammars are acyclic.  ``max_rules`` guards the
    exponential prefix expansion.

    >>> from repro.grammars.cfg import grammar_from_mapping
    >>> from repro.grammars.language import language
    >>> g = grammar_from_mapping("ab", {"S": ["Xb"], "X": ["ab", "b"]}, "S")
    >>> gnf = to_gnf(g)
    >>> is_in_gnf(gnf), sorted(language(gnf))
    (True, ['abb', 'bb'])
    """
    require_finite_language(grammar, "to_gnf")
    cnf = to_cnf(grammar)
    if not cnf.rules:
        return cnf

    # GNF-ise per non-terminal, children before parents: when we reach A,
    # every non-terminal that can appear in leading position below A is
    # already in GNF, so one substitution round suffices.
    gnf_rules: dict[NonTerminal, list[tuple[Symbol, ...]]] = {}
    for nt in topological_nonterminals(cnf):
        bodies: list[tuple[Symbol, ...]] = []
        for rule in cnf.rules_for(nt):
            if len(rule.rhs) == 0:
                bodies.append(())  # start ε-rule, handled below
                continue
            head = rule.rhs[0]
            if cnf.is_terminal(head):
                bodies.append(rule.rhs)
            else:
                for expansion in gnf_rules[head]:
                    if not expansion:
                        raise GrammarError(
                            "ε reached leading position during GNF conversion; "
                            "CNF should have prevented this"
                        )
                    bodies.append(expansion + rule.rhs[1:])
                    if len(bodies) > max_rules:
                        raise GrammarError(
                            f"GNF expansion of {nt!r} exceeds max_rules={max_rules}"
                        )
        gnf_rules[nt] = bodies

    rules = [
        Rule(nt, body)
        for nt, bodies in gnf_rules.items()
        for body in bodies
    ]
    result = trim(CFG(cnf.alphabet, cnf.nonterminals, rules, cnf.start))
    if not is_in_gnf(result):  # pragma: no cover - construction guarantees it
        raise GrammarError("GNF conversion produced a non-GNF grammar")
    return result
