"""NFAs for ``L_n`` and the ``Θ(n)`` guess-and-verify automaton (Theorem 1(2)).

The paper remarks (following [20]) that ``L_n`` "admits a nondeterministic
finite automaton of size ``Θ(n)``; the idea is that the automaton first
nondeterministically guesses the positions of the matching ``a`` symbols
and then verifies this guess."  :func:`ln_match_nfa` is that automaton:
``n + 2`` states, and it accepts the *variable-length* language
``Σ* a Σ^{n-1} a Σ*`` of all words containing two ``a`` symbols at
distance exactly ``n``.  Restricted to words of length ``2n`` this is
exactly ``L_n``.

A subtlety this reproduction surfaces (recorded in EXPERIMENTS.md): an NFA
for the *exact* finite language ``L_n`` — which must also reject words of
wrong length — cannot have ``Θ(n)`` states.  :func:`exact_ln_fooling_set`
constructs a fooling set of size ``n²`` (pairs ``b^k a b^d`` /
``b^{n-1-d} a b^{n-1-k}``), so every exact NFA needs ``≥ n²`` states;
:func:`ln_nfa_exact` builds a matching ``O(n²)``-state exact automaton as
the product of the guess-and-verify NFA with a length-``2n`` counter.
Theorem 1's separation is unaffected: ``n²`` is still exponentially
smaller than the ``2^Ω(n)`` uCFG bound.
"""

from __future__ import annotations

from functools import lru_cache

from repro.automata.nfa import NFA
from repro.words.alphabet import AB

__all__ = ["ln_match_nfa", "ln_match_nfa_states", "ln_nfa_exact", "exact_ln_fooling_set"]


@lru_cache(maxsize=256)
def ln_match_nfa(n: int) -> NFA:
    """The ``Θ(n)`` guess-and-verify NFA of Theorem 1(2).

    ``n + 2`` states, ``2n + 4`` transitions.  Accepts all words (of any
    length) with two ``a`` symbols at distance exactly ``n``; on inputs of
    length ``2n`` this is exactly membership in ``L_n``.  Memoized:
    :class:`~repro.automata.nfa.NFA` instances are immutable, so repeated
    calls return the same object.  A caller that needs only the state
    count uses the closed form :func:`ln_match_nfa_states` instead, which
    builds nothing.

    >>> nfa = ln_match_nfa(2)
    >>> nfa.accepts("abab"), nfa.accepts("bbbb")
    (True, False)
    >>> nfa.n_states
    4
    """
    if n < 1:
        raise ValueError(f"ln_match_nfa is defined for n >= 1, got {n}")
    start = "s"
    counters = [("p", i) for i in range(1, n + 1)]
    final = "f"
    states = [start, *counters, final]
    transitions: dict[tuple[object, str], set[object]] = {
        (start, "a"): {start, counters[0]},
        (start, "b"): {start},
        (final, "a"): {final},
        (final, "b"): {final},
    }
    for i in range(n - 1):
        transitions[(counters[i], "a")] = {counters[i + 1]}
        transitions[(counters[i], "b")] = {counters[i + 1]}
    transitions[(counters[-1], "a")] = {final}
    return NFA(AB, states, transitions, {start}, {final})


def ln_match_nfa_states(n: int) -> int:
    """The state count of :func:`ln_match_nfa`, ``n + 2``, without building it.

    One start state, ``n`` distance counters and one accepting state.  The
    Theorem 1 size table (``sizes.row``) reports this; at ``n = 2^20``
    building the automaton itself takes seconds and about 1.5 GB.

    >>> ln_match_nfa_states(2) == ln_match_nfa(2).n_states
    True
    """
    if n < 1:
        raise ValueError(f"ln_match_nfa is defined for n >= 1, got {n}")
    return n + 2


@lru_cache(maxsize=64)
def ln_nfa_exact(n: int) -> NFA:
    """An NFA accepting exactly the finite language ``L_n``.

    Product of :func:`ln_match_nfa` with a length-``2n`` counter:
    ``O(n²)`` states, which :func:`exact_ln_fooling_set` shows is optimal
    up to a constant factor.  Memoized like :func:`ln_match_nfa` — NFAs
    are immutable, and ambiguity/determinisation sweeps re-request the
    same ``n`` repeatedly.

    >>> nfa = ln_nfa_exact(2)
    >>> nfa.accepts("abab"), nfa.accepts("ababab")
    (True, False)
    """
    if n < 1:
        raise ValueError(f"ln_nfa_exact is defined for n >= 1, got {n}")
    base = ln_match_nfa(n)
    states: set[object] = set()
    transitions: dict[tuple[object, str], set[object]] = {}
    initial = {(q, 0) for q in base.initial}
    frontier = list(initial)
    states |= initial
    while frontier:
        q, t = frontier.pop()
        if t == 2 * n:
            continue
        for symbol in AB:
            for succ in base.successors(q, symbol):
                target = (succ, t + 1)
                transitions.setdefault(((q, t), symbol), set()).add(target)
                if target not in states:
                    states.add(target)
                    frontier.append(target)
    accepting = {(q, 2 * n) for q in base.accepting if (q, 2 * n) in states}
    return NFA(AB, states, transitions, initial, accepting)


def exact_ln_fooling_set(n: int) -> list[tuple[str, str]]:
    """A fooling set of size ``n²`` for the exact language ``L_n``.

    Returns pairs ``(u, v)`` with ``u·v ∈ L_n`` for every pair while every
    cross-concatenation ``u_i·v_j`` (``i ≠ j``) falls outside ``L_n`` —
    either its length differs from ``2n`` or its only two ``a`` symbols
    sit at distance ``≠ n``.  By the standard fooling-set bound, every NFA
    accepting exactly ``L_n`` has at least ``n²`` states.  (This is the
    reproduction's measured correction to the informal ``Θ(n)`` remark;
    see the module docstring.)

    >>> pairs = exact_ln_fooling_set(3)
    >>> len(pairs)
    9
    """
    if n < 1:
        raise ValueError(f"exact_ln_fooling_set is defined for n >= 1, got {n}")
    pairs: list[tuple[str, str]] = []
    for k in range(n):
        for d in range(n):
            prefix = "b" * k + "a" + "b" * d
            suffix = "b" * (n - 1 - d) + "a" + "b" * (n - 1 - k)
            pairs.append((prefix, suffix))
    return pairs
