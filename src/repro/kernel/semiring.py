"""The semiring protocol: one algebra, every chart computation.

Every quantitative check in the reproduction — recognition, exact
parse-tree counting, ambiguity detection, shortest-derivation extraction,
tree enumeration, automaton path counting — is the *same* dynamic program
instantiated over a different semiring.  The paper exploits exactly this
coincidence: unambiguity is what makes the counting semiring agree with
the word count (Section 2), determinism is what makes it agree for
automata (the UFA story of Theorem 1), and the boolean projection is
plain membership.

A :class:`Semiring` supplies the classic ``(⊕, ⊗, 0̄, 1̄)`` structure plus
two chart-specific hooks:

* ``terminal(symbol)`` — the value contributed by consuming one terminal
  occurrence (``1̄`` for scalar semirings, a leaf for forests);
* ``finish(rule, value)`` — wraps the finished product of a rule's body
  values into the value of the rule's left-hand side occurrence (the
  identity for scalar semirings; tree-node construction for forests,
  cost-and-trace accounting for shortest derivations).

The value of a derivation is then ``finish(rule, ⊗ child values)``
applied recursively, and a chart cell holds the ``⊕``-sum over all
derivations of its span.  ``is_absorbing`` enables early exit: once a
cell's accumulator hits an absorbing element (``True`` in the boolean
semiring), no further derivation can change it.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.errors import LanguageTooLargeError
from repro.grammars.cfg import Rule

__all__ = [
    "Semiring",
    "BooleanSemiring",
    "CountingSemiring",
    "MinLengthSemiring",
    "LengthSpectrumSemiring",
    "WordCountSemiring",
    "BOOLEAN",
    "COUNTING",
    "SPECTRUM",
]


class Semiring:
    """Base class for chart semirings; subclasses set ``zero``/``one``.

    The default hooks make any plain ``(⊕, ⊗)`` pair usable by the chart
    fillers: ``terminal`` returns ``one``, ``finish`` is the identity, and
    nothing is absorbing.  ``is_zero`` is how the fillers decide not to
    store a cell entry — the default structural comparison with ``zero``
    is right for every built-in instance.
    """

    zero: Any = None
    one: Any = None

    def add(self, a: Any, b: Any) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def mul(self, a: Any, b: Any) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def terminal(self, symbol: str) -> Any:
        """The value of consuming one occurrence of ``symbol``."""
        return self.one

    def finish(self, rule: Rule, value: Any) -> Any:
        """Wrap the finished body product of ``rule`` into an lhs value."""
        return value

    def is_zero(self, value: Any) -> bool:
        """Whether ``value`` is the additive identity (cells skip it)."""
        return value == self.zero

    def is_absorbing(self, value: Any) -> bool:
        """Whether ``value ⊕ x = value`` for every ``x`` (early exit)."""
        return False


class BooleanSemiring(Semiring):
    """``({False, True}, or, and)`` — recognition.

    ``True`` is absorbing, so chart cells stop accumulating as soon as a
    span is known derivable; the bitset fast path in
    :mod:`repro.kernel.chart` is this semiring vectorised over all
    non-terminals at once.
    """

    zero = False
    one = True

    def add(self, a: bool, b: bool) -> bool:
        return a or b

    def mul(self, a: bool, b: bool) -> bool:
        return a and b

    def is_absorbing(self, value: bool) -> bool:
        return value


class CountingSemiring(Semiring):
    """``(ℕ, +, ×)`` over exact Python big ints — parse-tree counting.

    Never floats: grammar ambiguity makes counts astronomically large
    (the Example 4 uCFG counts explode doubly exponentially) and every
    downstream consumer — unambiguity checks, ranked access, the
    Theorem 1 table — needs them exact.
    """

    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b


class MinLengthSemiring(Semiring):
    """Shortest (then lexicographically least) derivation extraction.

    Values are ``None`` (no derivation) or ``(cost, trace)`` where
    ``cost`` counts rule applications and ``trace`` is the preorder tuple
    of rule indices (in grammar declaration order).  ``⊕`` is ``min`` by
    tuple comparison — derivations with fewer rule applications win, ties
    break to the lexicographically least trace — and ``⊗`` concatenates
    traces, so ``finish`` prepending the applied rule's index yields the
    preorder encoding.  :meth:`tree` decodes a value back into the unique
    :class:`~repro.grammars.trees.ParseTree` it denotes.

    The semiring is grammar-specific (it needs the rule numbering), hence
    constructed per grammar rather than exposed as a singleton.
    """

    zero = None

    def __init__(self, grammar) -> None:
        self._grammar = grammar
        self._index = {rule: i for i, rule in enumerate(grammar.rules)}
        self._rules = grammar.rules
        self.one = (0, ())

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if a <= b else b

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return (a[0] + b[0], a[1] + b[1])

    def finish(self, rule: Rule, value):
        if value is None:
            return None
        return (value[0] + 1, (self._index[rule],) + value[1])

    def cost(self, value) -> int | None:
        """The number of rule applications of the encoded derivation."""
        return None if value is None else value[0]

    def tree(self, value):
        """Decode a chart value into the parse tree it encodes."""
        from repro.grammars.trees import leaf, node

        if value is None:
            raise ValueError("cannot decode a tree from the zero value")
        trace = value[1]
        position = 0

        def build():
            nonlocal position
            rule = self._rules[trace[position]]
            position += 1
            children = []
            for sym in rule.rhs:
                if self._grammar.is_terminal(sym):
                    children.append(leaf(sym))
                else:
                    children.append(build())
            return node(rule.lhs, tuple(children))

        tree = build()
        if position != len(trace):
            raise ValueError(f"trace {trace!r} not fully consumed")
        return tree


class LengthSpectrumSemiring(Semiring):
    """Length-indexed counting: values are ``{length: #derivations}``.

    ``⊗`` is polynomial convolution and ``⊕`` pointwise addition, so the
    grammar fold over this semiring computes the full derivation spectrum
    in one pass — for unambiguous grammars, the exact word-count spectrum
    of the language (the quantity behind the Theorem 1 table rows).
    Values are treated as immutable: ``add``/``mul`` always build fresh
    dicts.
    """

    zero: dict[int, int] = {}
    one: dict[int, int] = {0: 1}

    def add(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out = dict(a)
        for length, count in b.items():
            out[length] = out.get(length, 0) + count
        return out

    def mul(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for l1, c1 in a.items():
            for l2, c2 in b.items():
                out[l1 + l2] = out.get(l1 + l2, 0) + c1 * c2
        return out

    def terminal(self, symbol: str) -> dict[int, int]:
        return {1: 1}


class WordCountSemiring(Semiring):
    """Finite languages with multiplicities: values are ``{word: #derivations}``.

    ``⊗`` concatenates every pair of words and multiplies their counts,
    ``⊕`` adds counts word by word.  The grammar fold over this semiring
    gives, per non-terminal, its language as the key set and each word's
    number of parse trees as the value — one pass serves both language
    extraction and the ambiguity profile (Section 2).

    ``max_words`` is checked while each value grows: a product is built
    one word of the smaller factor at a time against the whole larger
    factor, and raises :class:`~repro.errors.LanguageTooLargeError` as
    soon as it holds more than ``max_words`` words, so no value ever
    holds much more than ``2 * max_words``.  A product in which no word
    can arise twice is checked before it is built.  Values are treated
    as immutable: ``add``/``mul`` never change their arguments.
    """

    zero: dict[str, int] = {}
    one: dict[str, int] = {"": 1}

    def __init__(self, max_words: int) -> None:
        self.max_words = max_words

    def _check(self, size: int) -> None:
        if size > self.max_words:
            raise LanguageTooLargeError(
                f"a non-terminal's language exceeds max_words={self.max_words}"
            )

    def _merge(self, into: dict[str, int], counts: dict[str, int]) -> None:
        """Add ``counts`` into ``into`` word by word, then check the budget."""
        repeated = {word: into[word] for word in into.keys() & counts.keys()}
        into.update(counts)
        for word, count in repeated.items():
            into[word] += count
        self._check(len(into))

    def add(self, a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        out = dict(a)
        self._merge(out, b)
        return out

    def mul(self, a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
        if a == self.one:
            return b
        if b == self.one:
            return a
        if len(a) <= len(b):
            chunks = ({w + p: c * d for p, d in b.items()} for w, c in a.items())
            distinct = _prefix_free(a)
        else:
            chunks = ({w + p: c * d for w, c in a.items()} for p, d in b.items())
            distinct = _prefix_free([p[::-1] for p in b])
        out: dict[str, int] = {}
        if distinct:
            # Two chunks share a word only if a word of the shorter factor
            # is a proper prefix (in ``a``) or suffix (in ``b``) of
            # another.  None is, so the product has exactly
            # ``len(a) * len(b)`` words: check that before building.
            self._check(len(a) * len(b))
            for chunk in chunks:
                out.update(chunk)
        else:
            for chunk in chunks:
                self._merge(out, chunk)
        return out

    def terminal(self, symbol: str) -> dict[str, int]:
        return {symbol: 1}


def _prefix_free(words: Iterable[str]) -> bool:
    """Whether no word is a proper prefix of another.

    In sorted order a word that prefixes any later word prefixes the
    next one, so adjacent pairs suffice.
    """
    ordered = sorted(words)
    return not any(later.startswith(word) for word, later in zip(ordered, ordered[1:]))


#: Shared stateless instances (grammar-specific semirings are per-grammar).
BOOLEAN = BooleanSemiring()
COUNTING = CountingSemiring()
SPECTRUM = LengthSpectrumSemiring()
