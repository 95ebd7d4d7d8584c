"""Batched boolean chart fill: one chart, many words, shared prefixes.

The hot path of every ``L_n`` sweep is membership of *many* words under
one grammar.  Filling a fresh chart per word repeats all work below the
longest common prefix of consecutive words; this filler processes words
in sorted order and keeps every chart cell ``(i, j)`` whose span lies
inside the shared prefix, so only the suffix of the chart is refilled.
Cells are bitset-packed (one machine integer per cell, as in
:func:`repro.kernel.chart.recognise_cnf`), which combined with prefix
sharing is what makes the batched path beat per-word recognition on
``L_n`` sweeps (docs/KERNEL.md records the measurement).
"""

from __future__ import annotations

from repro.grammars.cfg import CFG, NonTerminal
from repro.kernel.chart import cnf_bitset_tables

__all__ = ["BatchedRecognizer"]


class BatchedRecognizer:
    """Bitset membership for many words under one CNF grammar.

    The per-grammar rule tables are computed once at construction; the
    chart state persists between :meth:`recognises` calls, keyed by the
    word prefix it was filled for.  Feed words in sorted order (or use
    :meth:`recognise_many`, which sorts internally) to maximise reuse.
    """

    __slots__ = ("grammar", "_index", "_unary", "_binary", "_epsilon", "_all_lhs", "_word", "_cells")

    def __init__(self, grammar: CFG) -> None:
        self.grammar = grammar
        index, unary, binary, epsilon = cnf_bitset_tables(grammar)
        self._index = index
        self._unary = unary
        self._binary = binary
        self._epsilon = epsilon
        all_lhs = 0
        for lhs_mask, _, _ in binary:
            all_lhs |= lhs_mask
        self._all_lhs = all_lhs
        self._word = ""
        self._cells: dict[tuple[int, int], int] = {}

    def recognises(self, word: str, symbol: NonTerminal | None = None) -> bool:
        """Membership of one word, reusing cells shared with the last word.

        A cell ``(i, j)`` only depends on ``word[i:j]``, so every cell
        with ``j`` at most the longest common prefix with the previous
        word is still valid and is kept.
        """
        symbol = symbol if symbol is not None else self.grammar.start
        target_bit = 1 << self._index[symbol]
        n = len(word)
        if n == 0:
            return bool(self._epsilon & target_bit)
        previous = self._word
        lcp = 0
        limit = min(len(previous), n)
        while lcp < limit and previous[lcp] == word[lcp]:
            lcp += 1
        cells = self._cells
        if lcp < len(previous):
            stale = [span for span in cells if span[1] > lcp]
            for span in stale:
                del cells[span]
        self._word = word
        unary = self._unary
        binary = self._binary
        all_lhs = self._all_lhs
        # Fill by end position: cell (i, j) needs (i, k) with k < j (older
        # end positions, cached or just built) and (k, j) with k > i (same
        # end position, built first by the descending-i inner loop).
        for j in range(lcp + 1, n + 1):
            cells[(j - 1, j)] = unary.get(word[j - 1], 0)
            for i in range(j - 2, -1, -1):
                mask = 0
                for split in range(i + 1, j):
                    left = cells[(i, split)]
                    if not left:
                        continue
                    right = cells[(split, j)]
                    if not right:
                        continue
                    for lhs_mask, b_mask, c_mask in binary:
                        if left & b_mask and right & c_mask:
                            mask |= lhs_mask
                    if mask == all_lhs:
                        break
                cells[(i, j)] = mask
        return bool(cells[(0, n)] & target_bit)

    def recognise_many(self, words) -> dict[str, bool]:
        """Membership for a batch of words, sorted internally for sharing."""
        return {word: self.recognises(word) for word in sorted(set(words))}
