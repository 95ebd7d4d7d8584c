"""The exponential-size unambiguous grammar for ``L_n`` (Example 4).

Each derivation of a word ``w ∈ L_n`` is forced to expose the *first*
position ``i`` at which ``w`` has ``a`` symbols at distance ``n``: the
rule for ``A_i`` spells out the entire prefix ``u = w_1 ... w_{i-1}``
*and* the block ``v = w_{n+1} ... w_{n+i-1}`` opposite it, restricted to
pairs ``(u, v)`` with no earlier match (no ``j < i`` with
``u_j = v_j = a``).  This makes the grammar unambiguous but forces
``3^{i-1}`` rules per ``i`` — exponential size, which Theorem 12 shows
is unavoidable.

Correction to the source (recorded in EXPERIMENTS.md): Example 4 in the
paper writes the opposite block as the letterwise complement ``w̄`` of the
prefix.  That realises only the pairs ``(a, b)`` and ``(b, a)`` per
position, silently dropping ``(b, b)`` — already for ``n = 2`` the word
``baba ∈ L_2`` (first match at position 2, pair ``(b, b)`` at position 1)
has no derivation.  The construction implemented here enumerates all
``3^{i-1}`` non-matching pairs, which restores ``L(G) = L_n`` while
preserving both unambiguity and the ``2^{Θ(n)}`` size (indeed
``3^{i-1} ≥ 2^{i-1}``, so the grammar only gets larger).  Tests verify
language equality and unambiguity exhaustively for ``n ≤ 4`` and the
failure of the verbatim paper variant (also provided, as
:func:`example4_ucfg_verbatim`).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from repro.grammars.cfg import CFG, NonTerminal, Rule, Symbol
from repro.words.alphabet import AB
from repro.words.ops import all_words, complement_word

__all__ = [
    "example4_ucfg",
    "example4_ucfg_verbatim",
    "example4_size",
    "example4_verbatim_size",
    "iter_nomatch_pairs",
]


def iter_nomatch_pairs(length: int) -> Iterator[tuple[str, str]]:
    """Yield all pairs ``(u, v) ∈ Σ^length × Σ^length`` with no position
    where both are ``a`` — ``3^length`` pairs.

    >>> sorted(iter_nomatch_pairs(1))
    [('a', 'b'), ('b', 'a'), ('b', 'b')]
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    for u in all_words(AB, length):
        # v is free where u has 'b' and forced to 'b' where u has 'a'.
        free = [j for j, ch in enumerate(u) if ch == "b"]
        for mask in range(1 << len(free)):
            v = ["b"] * length
            for bit, j in enumerate(free):
                if mask >> bit & 1:
                    v[j] = "a"
            yield u, "".join(v)


class _Builder:
    """Shared scaffolding of the two Example 4 variants."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"Example 4 is defined for n >= 1, got {n}")
        self.n = n
        self.rules: list[Rule] = []
        self.nts: list[NonTerminal] = []
        self._word_nts: dict[str, NonTerminal] = {}
        self.c_nt: dict[int, NonTerminal] = {}
        for i in range(1, n + 1):
            self.c_nt[i] = ("C", i)
            self.nts.append(self.c_nt[i])
        self.rules.append(Rule(self.c_nt[1], ("a",)))
        self.rules.append(Rule(self.c_nt[1], ("b",)))
        for i in range(2, n + 1):
            self.rules.append(Rule(self.c_nt[i], ("a", self.c_nt[i - 1])))
            self.rules.append(Rule(self.c_nt[i], ("b", self.c_nt[i - 1])))

    def fixed(self, word: str) -> tuple[Symbol, ...]:
        """A body fragment spelling out ``word`` (empty for ``ε``)."""
        if not word:
            return ()
        if word not in self._word_nts:
            nt = ("W", word)
            self._word_nts[word] = nt
            self.nts.append(nt)
            self.rules.append(Rule(nt, tuple(word)))
        return (self._word_nts[word],)

    def body(self, u: str, v: str, i: int) -> tuple[Symbol, ...]:
        """The ``A_i`` body for prefix block ``u`` and opposite block ``v``."""
        if i < self.n:
            return (
                self.fixed(u)
                + ("a", self.c_nt[self.n - i])
                + self.fixed(v)
                + ("a", self.c_nt[self.n - i])
            )
        return self.fixed(u) + ("a",) + self.fixed(v) + ("a",)

    def finish(self, pair_source) -> CFG:
        start: NonTerminal = ("S",)
        a_pos: dict[int, NonTerminal] = {}
        for i in range(1, self.n + 1):
            a_pos[i] = ("A", i)
            self.nts.append(a_pos[i])
            for u, v in pair_source(i - 1):
                self.rules.append(Rule(a_pos[i], self.body(u, v, i)))
        self.nts.append(start)
        for i in range(1, self.n + 1):
            self.rules.append(Rule(start, (a_pos[i],)))
        return CFG(AB, self.nts, self.rules, start)


def example4_ucfg(n: int) -> CFG:
    """The corrected Example 4 unambiguous grammar with ``L(G) = L_n``.

    Only feasible for small ``n`` (size ``Θ(3^n · n)``);
    :func:`example4_size` gives the exact size for any ``n`` without
    construction.

    >>> from repro.grammars.language import language
    >>> from repro.grammars.ambiguity import is_unambiguous
    >>> from repro.languages.ln import ln_words
    >>> g = example4_ucfg(3)
    >>> language(g) == ln_words(3) and is_unambiguous(g)
    True
    """
    return _Builder(n).finish(iter_nomatch_pairs)


def example4_ucfg_verbatim(n: int) -> CFG:
    """Example 4 exactly as printed in the paper (complement blocks only).

    For ``n ≥ 2`` this grammar is unambiguous but *misses* the words of
    ``L_n`` whose pre-first-match pairs include ``(b, b)`` — e.g.
    ``baba ∈ L_2``.  Kept for documentation and as a regression witness.
    """

    def pairs(length: int):
        for u in all_words(AB, length):
            yield u, complement_word(u, AB)

    return _Builder(n).finish(pairs)


@lru_cache(maxsize=1024)
def example4_size(n: int) -> int:
    """Exact size of the corrected grammar: ``2^Θ(n)``.

    Components (matching :func:`example4_ucfg` literally), each summed in
    closed form:

    * ``C`` rules: ``4n - 2`` (just ``2`` when ``n = 1``);
    * ``W`` rules (``A_w -> w``): every nonempty ``w ∈ Σ^{≤ n-1}`` occurs
      as some ``u`` or ``v`` → ``Σ_{j=1}^{n-1} 2^j · j = (n - 2) · 2^n + 2``;
    * ``A_i`` rules: ``3^{i-1}`` bodies of size 6 (4 when ``i = n``; two
      fragments vanish when ``i = 1``) → ``7 · 3^{n-1} - 5``;
    * ``S`` rules: ``n`` of size 1.

    >>> all(example4_size(n) == example4_ucfg(n).size for n in (1, 2, 3, 4))
    True
    """
    if n < 1:
        raise ValueError(f"example4_size is defined for n >= 1, got {n}")
    size = 4 * n - 2 if n > 1 else 2
    return size + (n - 2) * 2**n + 2 + 7 * 3 ** (n - 1) - 5 + n


def example4_verbatim_size(n: int) -> int:
    """Exact size of the verbatim (paper-printed) variant.

    Identical accounting with ``2^{i-1}`` bodies per ``i``.

    >>> all(example4_verbatim_size(n) == example4_ucfg_verbatim(n).size
    ...     for n in (1, 2, 3, 4))
    True
    """
    if n < 1:
        raise ValueError(f"example4_verbatim_size is defined for n >= 1, got {n}")
    size = 4 * n - 2 if n > 1 else 2
    size += sum((2**j) * j for j in range(1, n))
    for i in range(1, n + 1):
        body = 6 if i < n else 4
        if i == 1:
            body -= 2
        size += (2 ** (i - 1)) * body
    size += n
    return size
