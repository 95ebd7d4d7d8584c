"""The always-available reference backend: the frozen big-int kernels.

Every method of :class:`ReferenceBackend` is the pure-python big-int
kernel that previously lived inline in its call site — extracted
verbatim, byte-for-byte in behaviour:

* :meth:`~ReferenceBackend.fold_rows` / :meth:`~ReferenceBackend.make_step_fn`
  — the subset-construction OR-fold of :mod:`repro.automata.packed`;
* :meth:`~ReferenceBackend.superset_rows` / :meth:`~ReferenceBackend.and_reduce`
  — the rectangle-growth row scans of :mod:`repro.comm.cover`;
* :meth:`~ReferenceBackend.bareiss_rank` / :meth:`~ReferenceBackend.gf2_rank`
  — the elimination loops of :mod:`repro.comm.rank`;
* :meth:`~ReferenceBackend.max_bilinear` — the Gray-code SWAR sweep of
  :mod:`repro.core.discrepancy`;
* :meth:`~ReferenceBackend.hopcroft_split` — the preimage grouping of
  ``packed_minimise``;
* :meth:`~ReferenceBackend.mat_mul` / :meth:`~ReferenceBackend.vec_mat` /
  :meth:`~ReferenceBackend.make_sweep_fn` — the transfer-matrix counting
  arithmetic;
* :meth:`~ReferenceBackend.make_binary_step` — the CNF bitset
  binary-rule step of :mod:`repro.kernel.chart`;
* :meth:`~ReferenceBackend.make_layered_scan` /
  :meth:`~ReferenceBackend.fold_indices` — the document-parallel
  occupancy walk and the match-set checksum fold of
  :mod:`repro.extract.scan`.

Other backends subclass this one and override only the kernels they can
genuinely beat; an inherited method is *definitionally* bit-exact (it is
the same function object), which the differential tests and the
``bench backends`` delegation probe both rely on.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import SymbolError

__all__ = [
    "ReferenceBackend",
    "CHECKSUM_MULTIPLIER",
    "fold_checksum",
    "fold_rows",
    "foreign_symbol",
    "iter_bits",
]

#: The multiplier of the match-set checksum's Horner fold — the one
#: definition behind :func:`fold_checksum` and every ``fold_indices``.
CHECKSUM_MULTIPLIER = 1000003
_U64 = (1 << 64) - 1

#: Translation table of the reference body scan: ``a`` -> ``0``, ``b`` ->
#: ``1``, every other ASCII character -> ``?``, so one ``in`` test finds a
#: foreign character (mapping all of ASCII keeps ``str.translate`` on its
#: fast path).
_TO_BITS = str.maketrans({chr(i): {97: "0", 98: "1"}.get(i, "?") for i in range(128)})


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask``, ascending.

    Local copy of :func:`repro.comm.packed.iter_bits` — the backend tier
    sits *below* the packed substrates and must not import them.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def fold_checksum(checksum: int, doc_id: int) -> int:
    """Fold one matching document id into an order-sensitive checksum.

    Matching ids are always folded in ascending order, so equal
    checksums certify equal match *sets* without storing documents.

    >>> fold_checksum(fold_checksum(0, 4), 9) == 5 * CHECKSUM_MULTIPLIER + 10
    True
    """
    return (checksum * CHECKSUM_MULTIPLIER + doc_id + 1) & _U64


def foreign_symbol(text: str, start: int = 0) -> SymbolError:
    """The error for the first character of ``text`` outside ``{a, b}``.

    Its offset is shifted by ``start``, the position of ``text`` in the
    caller's chunk.  Only called once a scan has found such a character.
    """
    offset = next(i for i, ch in enumerate(text) if ch not in "ab")
    return SymbolError(start + offset, text[offset])


def fold_rows(table: Sequence[int], mask: int) -> int:
    """OR together ``table[i]`` for every set bit ``i`` of ``mask``.

    The workhorse of every mask kernel: one macro-step of an NFA, one
    preimage in Hopcroft refinement, one frontier expansion of a
    reachability fixpoint — all are folds of mask rows over a mask.

    >>> fold_rows([0b01, 0b10, 0b11], 0b101)
    3
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class ReferenceBackend:
    """Pure-python big-int kernels; the correctness baseline for all others."""

    name = "reference"

    @staticmethod
    def available() -> bool:
        return True

    @staticmethod
    def describe() -> str:
        return "pure-python big-int loops (always available)"

    @staticmethod
    def unavailable_reason() -> str | None:
        """Why this backend is unavailable; ``None`` when it is available.

        Always-available tiers inherit this; optional tiers (numpy, cext)
        override it with the concrete failure — ``python -m repro
        backends`` prints the reason instead of a bare "no".
        """
        return None

    # -- mask primitives ----------------------------------------------

    def popcount(self, mask: int) -> int:
        """The number of set bits of one mask."""
        return mask.bit_count()

    def popcount_rows(self, masks: Sequence[int]) -> int:
        """The total popcount over a sequence of masks."""
        return sum(mask.bit_count() for mask in masks)

    def bit_indices(self, mask: int) -> list[int]:
        """The positions of set bits, ascending — one shift per bit."""
        return list(iter_bits(mask))

    def transpose_masks(self, row_masks: Sequence[int], n_cols: int) -> list[int]:
        """Column masks of a 0/1 matrix given as row masks."""
        cols = [0] * n_cols
        for i, mask in enumerate(row_masks):
            bit = 1 << i
            for j in iter_bits(mask):
                cols[j] |= bit
        return cols

    def fold_rows(self, table: Sequence[int], mask: int) -> int:
        """OR-fold ``table`` over the set bits of ``mask``."""
        return fold_rows(table, mask)

    def make_step_fn(self, table: Sequence[int], n_states: int) -> Callable[[int], int]:
        """A ``mask -> successor-mask`` closure for the subset construction.

        The reference step is the plain per-bit OR-fold; the ``words``
        backend replaces it with chunked byte tables.
        """
        def step(mask: int, _table: Sequence[int] = table) -> int:
            return fold_rows(_table, mask)

        return step

    def superset_rows(self, allow: Sequence[int], cols: int) -> int:
        """The mask of rows ``i`` with ``allow[i] & cols == cols``."""
        rows = 0
        for i in range(len(allow)):
            if allow[i] & cols == cols:
                rows |= 1 << i
        return rows

    def and_reduce(self, table: Sequence[int], mask: int) -> int:
        """AND together ``table[i]`` over the set bits of ``mask`` (empty: -1)."""
        inter = -1
        for i in iter_bits(mask):
            inter &= table[i]
        return inter

    def cells_of_rect(self, rows_mask: int, cols_mask: int, n_cols: int) -> int:
        """The row-major cell mask of the rectangle ``rows × cols``.

        Bit ``i * n_cols + j`` is set iff ``i`` is a set bit of
        ``rows_mask`` and ``j`` a set bit of ``cols_mask`` — one shifted
        OR of the column pattern per member row.
        """
        cells = 0
        for i in iter_bits(rows_mask):
            cells |= cols_mask << (i * n_cols)
        return cells

    def hopcroft_split(self, preimage: int, block_of: Sequence[int]) -> dict[int, int]:
        """Group the set bits of ``preimage`` by their block id.

        Returns ``{block_id: mask of preimage bits inside that block}`` —
        the "touch only affected blocks" step of Hopcroft refinement.
        """
        inside_of: dict[int, int] = {}
        for q in iter_bits(preimage):
            block_id = block_of[q]
            inside_of[block_id] = inside_of.get(block_id, 0) | 1 << q
        return inside_of

    # -- document-parallel scanning ------------------------------------

    def make_layered_scan(
        self,
        tables: Sequence[Sequence[int]],
        initial: int,
        accepting_mask: int,
        doc_len: int,
    ) -> Callable[[str], int]:
        """A ``body -> accept mask`` closure for a complete DFA over ``{a, b}``.

        ``tables[0]`` / ``tables[1]`` are the successors on ``a`` / ``b``.
        ``body`` is a run of whole ``doc_len``-character documents; bit
        ``d`` of the result is set iff the DFA accepts document ``d``.  A
        character outside ``{a, b}`` raises
        :class:`~repro.errors.SymbolError` naming its offset in ``body``.

        The walk: the body is transposed into one bit column per phase
        (``a`` -> 0, ``b`` -> 1, document ``d`` at bit ``d``), and an
        occupancy map ``{state: doc-mask}`` advances *all* documents one
        phase per step, one ``&``/``^`` pair per live state.  Documents
        entering a sink — a non-accepting state looping to itself on
        both symbols — drop out of the masks.
        """
        n_states = len(tables[0])
        sink = [
            not (accepting_mask >> q) & 1 and all(table[q] == q for table in tables)
            for q in range(n_states)
        ]
        table_a, table_b = ([-1 if sink[succ] else succ for succ in table] for table in tables)
        accept_states = list(iter_bits(accepting_mask))

        def scan(body: str) -> int:
            n_docs = len(body) // doc_len
            bits = body.translate(_TO_BITS)
            if not body.isascii() or "?" in bits:
                raise foreign_symbol(body)
            # Occupancy: DFA state -> mask of documents currently in it.
            occupancy = {initial: (1 << n_docs) - 1}
            for t in range(doc_len):
                # Bit-column for phase t: document d contributes bit d.
                column = bits[t::doc_len]
                col_bits = int(column[::-1], 2) if "1" in column else 0
                advanced: dict[int, int] = {}
                for q, mask in occupancy.items():
                    on_b = mask & col_bits
                    on_a = mask ^ on_b
                    if on_a:
                        successor = table_a[q]
                        if successor >= 0:
                            advanced[successor] = advanced.get(successor, 0) | on_a
                    if on_b:
                        successor = table_b[q]
                        if successor >= 0:
                            advanced[successor] = advanced.get(successor, 0) | on_b
                occupancy = advanced
                if not occupancy:
                    break
            accept_mask = 0
            for q in accept_states:
                accept_mask |= occupancy.get(q, 0)
            return accept_mask

        return scan

    def fold_indices(self, mask: int, checksum: int, base: int) -> tuple[int, int]:
        """``(popcount, checksum)`` after folding ``base + i`` per set bit ``i``.

        The ids are folded in ascending order with :func:`fold_checksum`,
        so the result equals folding them one at a time.
        """
        count = self.popcount(mask)
        if count:
            for offset in self.bit_indices(mask):
                checksum = fold_checksum(checksum, base + offset)
        return count, checksum

    # -- exact linear algebra -----------------------------------------

    def bareiss_rank(self, work: list[list[int]]) -> int:
        """Rank over ℚ by fraction-free Bareiss elimination.

        ``work`` is consumed (mutated in place).  After eliminating with
        pivot ``p_k``, each entry equals a ``(k+1) × (k+1)`` minor of the
        input, and dividing the update ``(a·p - b·c)`` by the *previous*
        pivot is exact by Sylvester's identity.
        """
        if not work:
            return 0
        n_rows, n_cols = len(work), len(work[0])
        rank = 0
        pivot_row = 0
        previous_pivot = 1
        for col in range(n_cols):
            pivot = next((r for r in range(pivot_row, n_rows) if work[r][col]), None)
            if pivot is None:
                continue
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            head_row = work[pivot_row]
            head = head_row[col]
            for r in range(pivot_row + 1, n_rows):
                row_r = work[r]
                factor = row_r[col]
                if factor:
                    for c in range(col + 1, n_cols):
                        row_r[c] = (row_r[c] * head - factor * head_row[c]) // previous_pivot
                    row_r[col] = 0
                elif previous_pivot != head:
                    # Rows untouched by this pivot still need rescaling to
                    # stay minors of the current order (exact by the same
                    # identity).
                    for c in range(col + 1, n_cols):
                        row_r[c] = row_r[c] * head // previous_pivot
            previous_pivot = head
            pivot_row += 1
            rank += 1
            if pivot_row == n_rows:
                break
        return rank

    def gf2_rank(self, bitrows: Sequence[int], n_cols: int) -> int:
        """Rank of a 0/1 matrix over GF(2), by column-sweep bitset elimination."""
        bitrows = list(bitrows)
        rank = 0
        for col in range(n_cols):
            mask = 1 << col
            pivot = next((i for i, r in enumerate(bitrows) if r & mask), None)
            if pivot is None:
                continue
            pivot_value = bitrows.pop(pivot)
            bitrows = [r ^ pivot_value if r & mask else r for r in bitrows]
            rank += 1
        return rank

    def mat_mul(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        """Exact integer matrix product (sparse-aware row loops)."""
        n = len(b[0])
        out = []
        for row in a:
            acc = [0] * n
            for k, value in enumerate(row):
                if value:
                    b_row = b[k]
                    for j, other in enumerate(b_row):
                        if other:
                            acc[j] += value * other
            out.append(acc)
        return out

    def vec_mat(self, vector: list[int], matrix: list[list[int]]) -> list[int]:
        """Exact integer vector–matrix product."""
        n = len(matrix[0])
        out = [0] * n
        for i, value in enumerate(vector):
            if value:
                row = matrix[i]
                for j, other in enumerate(row):
                    if other:
                        out[j] += value * other
        return out

    def make_sweep_fn(
        self, adjacency: Sequence[Sequence[tuple[int, int]]], n: int
    ) -> Callable[[list[int]], list[int]]:
        """A ``vector -> next-vector`` closure for transfer-matrix sweeps.

        ``adjacency[i]`` lists ``(j, count)`` pairs; one sweep advances
        the count vector by one symbol.
        """
        def sweep(vector: list[int]) -> list[int]:
            out = [0] * n
            for i, value in enumerate(vector):
                if value:
                    for j, count in adjacency[i]:
                        out[j] += value * count
            return out

        return sweep

    # -- Gray-code SWAR bilinear maximisation -------------------------

    def max_bilinear(self, base: list[list[int]]) -> int:
        """Exact ``max |x^T M y|`` over 0/1 vectors, SWAR over big-int words.

        All row subsets are enumerated in Gray-code order, but the
        per-step state is a *single* Python int holding every column sum
        in its own fixed-width field, so a step is one big-int add plus a
        constant number of big-int bit operations.  See
        :func:`repro.core.discrepancy.max_bilinear_form` for the field
        layout (biased entries, guard-bit sign flags, horizontal-sum
        multiply).  ``base`` must be non-empty.
        """
        dim = len(base)
        width = len(base[0])
        max_abs = max(abs(v) for row in base for v in row)
        if max_abs == 0:
            return 0
        # Field width: the guard bit needs 2^{W-1} > dim·max_abs ≥ |s_j|, and
        # the horizontal-sum multiply needs 2^W > width·dim·max_abs ≥ Σ max(s_j, 0).
        field_bits = (2 * width * dim * max_abs).bit_length() + 2
        selector = 0  # 1 in the lowest bit of every field
        for j in range(width):
            selector |= 1 << (j * field_bits)
        guards = selector << (field_bits - 1)
        field_mask = (1 << field_bits) - 1
        top_shift = (width - 1) * field_bits
        bias = max(0, -min(v for row in base for v in row))
        bias_fields = bias * selector
        packed_rows: list[int] = []
        row_totals: list[int] = []
        for row in base:
            acc = 0
            for j, v in enumerate(row):
                acc |= (v + bias) << (j * field_bits)
            packed_rows.append(acc)
            row_totals.append(sum(row))

        packed_sums = 0  # fields: s_j + k·bias (all non-negative)
        excess = 0  # k·bias replicated into every field
        total = 0  # S = Σ_j s_j for the current selection
        in_set = [False] * dim
        best = 0  # the empty selection
        for step in range(1, 1 << dim):
            # Gray code: flip the row at the lowest set bit of `step`.
            flip = (step & -step).bit_length() - 1
            if in_set[flip]:
                in_set[flip] = False
                packed_sums -= packed_rows[flip]
                excess -= bias_fields
                total -= row_totals[flip]
            else:
                in_set[flip] = True
                packed_sums += packed_rows[flip]
                excess += bias_fields
                total += row_totals[flip]
            biased = (packed_sums | guards) - excess  # fields: 2^{W-1} + s_j
            sign_flags = biased & guards
            # Per-field mask of all ones exactly where s_j ≥ 0.
            keep = (sign_flags - (sign_flags >> (field_bits - 1))) | sign_flags
            positive_fields = (biased ^ sign_flags) & keep  # fields: max(s_j, 0)
            positive = ((positive_fields * selector) >> top_shift) & field_mask
            if positive > best:
                best = positive
            if positive - total > best:  # -Σ_j min(s_j, 0)
                best = positive - total
        return best

    # -- CNF bitset recognition ---------------------------------------

    def make_binary_step(
        self, binary: Sequence[tuple[int, int, int]]
    ) -> Callable[[int, int], int]:
        """A ``(left-cell, right-cell) -> lhs-mask`` closure over binary rules.

        ``binary`` lists ``(lhs_mask, rhs1_mask, rhs2_mask)`` triples; the
        step ORs the left-hand sides of every rule whose children appear
        in the given cells.
        """
        rules = list(binary)

        def step(left: int, right: int) -> int:
            mask = 0
            for lhs_mask, b_mask, c_mask in rules:
                if left & b_mask and right & c_mask:
                    mask |= lhs_mask
            return mask

        return step
