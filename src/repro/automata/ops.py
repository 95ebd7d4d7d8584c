"""Automata operations: products, equivalence, unambiguity, conversions.

Includes the unambiguous-finite-automaton (UFA) test via the classical
self-product criterion — the paper's introduction situates uCFG lower
bounds next to the recent UFA lower-bound literature [16, 32], and the
test lets the repository's examples contrast "the ``Θ(n)`` NFA for
``L_n`` is ambiguous" with the uCFG statements.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.automata.dfa import DFA, determinise, minimise
from repro.automata.nfa import NFA, State
from repro.automata.packed import PackedNFA, packed_is_unambiguous, packed_layered_minimal
from repro.errors import AutomatonError
from repro.grammars.cfg import CFG, NonTerminal, Rule
from repro.words.alphabet import Alphabet

__all__ = [
    "product_dfa",
    "intersect",
    "union",
    "equivalent",
    "trim_nfa",
    "is_unambiguous_nfa",
    "nfa_to_right_linear_cfg",
    "dfa_from_finite_language",
    "minimal_dfa_of_finite_language",
]


def product_dfa(left: DFA, right: DFA, accept_both: bool) -> DFA:
    """The synchronous product; accepting = AND (intersection) or OR (union)."""
    if left.alphabet != right.alphabet:
        raise AutomatonError("product requires identical alphabets")
    a = left.completed()
    b = right.completed()
    initial = (a.initial, b.initial)
    states: set[State] = {initial}
    frontier = [initial]
    delta: dict[tuple[State, str], State] = {}
    while frontier:
        p, q = frontier.pop()
        for s in a.alphabet:
            succ = (a.successor(p, s), b.successor(q, s))
            delta[((p, q), s)] = succ
            if succ not in states:
                states.add(succ)
                frontier.append(succ)
    if accept_both:
        accepting = {(p, q) for (p, q) in states if p in a.accepting and q in b.accepting}
    else:
        accepting = {(p, q) for (p, q) in states if p in a.accepting or q in b.accepting}
    return DFA(a.alphabet, states, delta, initial, accepting)


def intersect(left: DFA, right: DFA) -> DFA:
    """DFA for ``L(left) ∩ L(right)``."""
    return product_dfa(left, right, accept_both=True)


def union(left: DFA, right: DFA) -> DFA:
    """DFA for ``L(left) ∪ L(right)``."""
    return product_dfa(left, right, accept_both=False)


def equivalent(left: DFA, right: DFA) -> bool:
    """Decide ``L(left) = L(right)`` via minimisation up to isomorphism.

    Both minimal DFAs use the canonical BFS numbering of
    :func:`~repro.automata.dfa.minimise`, so equality of languages reduces
    to equality of the (state count, transitions, accepting set) triples.
    """
    ma, mb = minimise(left), minimise(right)
    return (
        ma.n_states == mb.n_states
        and ma.transitions() == mb.transitions()
        and ma.accepting == mb.accepting
    )


def trim_nfa(nfa: NFA) -> NFA:
    """Restrict to states that are both accessible and co-accessible."""
    accessible: set[State] = set(nfa.initial)
    frontier = list(nfa.initial)
    while frontier:
        q = frontier.pop()
        for s in nfa.alphabet:
            for succ in nfa.successors(q, s):
                if succ not in accessible:
                    accessible.add(succ)
                    frontier.append(succ)
    predecessors: dict[State, set[State]] = {q: set() for q in nfa.states}
    for src, _sym, dst in nfa.transitions():
        predecessors[dst].add(src)
    coaccessible: set[State] = set(nfa.accepting)
    frontier = list(nfa.accepting)
    while frontier:
        q = frontier.pop()
        for pred in predecessors[q]:
            if pred not in coaccessible:
                coaccessible.add(pred)
                frontier.append(pred)
    keep = accessible & coaccessible
    if not keep:
        # Empty language: a single dead state keeps the structure valid.
        # Pick the canonical minimum, not an arbitrary set element — set
        # iteration order depends on the hash seed, and a seed-dependent
        # dead state would make `to_key()` of trimmed empty automata
        # differ across processes, defeating the engine's disk cache.
        from repro.util.canonical import canonical_encode

        dead = min(nfa.states, key=canonical_encode)
        return NFA(nfa.alphabet, {dead}, {}, {dead}, set())
    transitions: dict[tuple[State, str], set[State]] = {}
    for src, sym, dst in nfa.transitions():
        if src in keep and dst in keep:
            transitions.setdefault((src, sym), set()).add(dst)
    return NFA(nfa.alphabet, keep, transitions, nfa.initial & keep, nfa.accepting & keep)


def is_unambiguous_nfa(nfa: NFA) -> bool:
    """Decide whether the NFA has at most one accepting run per word.

    Classical criterion: trim the automaton, build its self-product
    restricted to pairs reachable *by the same word* from (possibly
    distinct) initial states and co-reachable to accepting pairs; the NFA
    is ambiguous iff some off-diagonal pair survives.  Runs on the
    bit-parallel kernel :func:`repro.automata.packed.packed_is_unambiguous`
    — pair states packed at bit ``p·|Q|+q`` of big-int masks, so both
    reachability passes are shift-OR fixpoints with no tuple sets.
    """
    return packed_is_unambiguous(PackedNFA.from_nfa(nfa))


def nfa_to_right_linear_cfg(nfa: NFA) -> CFG:
    """Convert an NFA into an equivalent right-linear CFG.

    Non-terminals are ``("q", state)`` tuples plus a fresh start; rules
    follow transitions (``q → σ q'``) and acceptance (``q → ε`` is avoided
    by emitting ``q → σ`` for transitions into accepting states, plus a
    start ε-rule only when the NFA accepts the empty word).  The CFG size
    is linear in the transition count — the conversion behind the remark
    that NFAs embed into CFGs without blow-up.
    """
    start: NonTerminal = ("q0",)
    nts: list[NonTerminal] = [start]
    rules: list[Rule] = []
    for q in sorted(nfa.states, key=str):
        nts.append(("q", q))
    for src, sym, dst in nfa.transitions():
        rules.append(Rule(("q", src), (sym, ("q", dst))))
        if dst in nfa.accepting:
            rules.append(Rule(("q", src), (sym,)))
    for q in sorted(nfa.initial, key=str):
        for rule in list(rules):
            if rule.lhs == ("q", q):
                rules.append(Rule(start, rule.rhs))
    if nfa.initial & nfa.accepting:
        rules.append(Rule(start, ()))
    return CFG(nfa.alphabet, nts, rules, start)


def _layered_trie(
    words: Iterable[str], alphabet: Alphabet
) -> tuple[list[list[list[int]]], list[list[bool]]]:
    """The trie of ``words`` as int tables layered by depth.

    Returns ``(succ, final)`` in the layout of
    :func:`~repro.automata.packed.packed_layered_minimal`: layer ``t``
    holds the depth-``t`` nodes, numbered in the lexicographic order of
    their prefixes.  The words are inserted in sorted order, so each one
    shares its longest common prefix with the one before and only
    creates the nodes below it.
    """
    index = {symbol: s for s, symbol in enumerate(alphabet)}
    succ: list[list[list[int]]] = [[[-1] for _ in index]]
    final: list[list[bool]] = [[False]]
    path = [0]  # path[d]: the current word's node at depth d
    previous = ""
    for word in sorted(set(words)):
        # Binary search for the shared prefix: O(log) string compares.
        shared, limit = 0, min(len(word), len(previous))
        while shared < limit:
            mid = (shared + limit + 1) // 2
            if word.startswith(previous[shared:mid], shared):
                shared = mid
            else:
                limit = mid - 1
        del path[shared + 1 :]
        for depth in range(shared, len(word)):
            s = index.get(word[depth])
            if s is None:
                raise AutomatonError(
                    f"word {word!r} uses symbol {word[depth]!r} outside the alphabet"
                )
            if depth + 1 == len(final):
                succ.append([[] for _ in index])
                final.append([])
            child = len(final[depth + 1])
            final[depth + 1].append(False)
            for row in succ[depth + 1]:
                row.append(-1)
            succ[depth][s][path[depth]] = child
            path.append(child)
        final[len(word)][path[-1]] = True
        previous = word
    return succ[:-1], final


def dfa_from_finite_language(words: Iterable[str], alphabet: Alphabet) -> DFA:
    """Build the trie-shaped (partial) DFA accepting exactly ``words``.

    Its states are the prefixes of the words, ``""`` initial.
    """
    succ, final = _layered_trie(words, alphabet)
    labels = [""]
    states = {""}
    delta: dict[tuple[State, str], State] = {}
    accepting = {""} if final[0][0] else set()
    for rows, below_final in zip(succ, final[1:]):
        below = [""] * len(below_final)
        for symbol, row in zip(alphabet, rows):
            for k, child in enumerate(row):
                if child >= 0:
                    below[child] = delta[(labels[k], symbol)] = labels[k] + symbol
        states.update(below)
        accepting.update(label for label, is_final in zip(below, below_final) if is_final)
        labels = below
    return DFA(alphabet, states, delta, "", accepting)


def minimal_dfa_of_finite_language(words: Iterable[str], alphabet: Alphabet) -> DFA:
    """The minimal complete DFA of a finite language.

    The trie of the words, layered by depth, minimised by signature
    hashing (:func:`~repro.automata.packed.packed_layered_minimal`) in
    time and memory linear in the trie.  States are ``0..k-1`` in the
    canonical numbering of :func:`~repro.automata.dfa.minimise`, so the
    result equals ``minimise(dfa_from_finite_language(words, alphabet))``.
    """
    return packed_layered_minimal(alphabet, *_layered_trie(words, alphabet)).to_dfa()
