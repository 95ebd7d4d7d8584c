"""Pre-packed communication-complexity implementations, kept as oracles.

When the rectangle/rank/fooling/discrepancy hot paths moved onto the
bit-parallel :mod:`repro.comm.packed` representation, the list-of-lists
and ``Fraction``-based implementations they replaced were preserved here
(and only here) so property tests can prove the packed code agrees with
them on every input.  These functions are frozen reference code,
mirroring ``tests/legacy_parsers.py``: do not refactor them onto the
packed representation, that would make the cross-check circular.

This module is the one copy of these oracles; nothing under ``src/``
imports or repeats them.  The two branch-and-bound cover oracles
(``legacy_minimum_disjoint_cover`` and ``frozen_packed_minimum_cover``)
branch only on rectangles maximal in the residual, as the solver does,
so they are not exact and agreeing with them does not show that a
disjoint cover is minimum.  Each of these matrices has a partition of
size 4 ::

    1 0 0 1 1        1 1 1 0 1
    1 1 0 1 0        0 1 0 1 0
    1 0 0 1 0        0 1 0 0 1
    1 1 1 0 0        1 1 1 1 0
    1 1 1 0 1        1 0 0 0 1

On the left the solver certifies 5 and both oracles return 4; on the
right both oracles return 5 and the solver 4.  The all-rectangle
``exhaustive_minimum_cover`` in ``tests/test_cover_solver.py`` is the
oracle that does not share that choice.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from repro.comm.matrix import CommMatrix

Rect = tuple[frozenset[int], frozenset[int]]


def legacy_rect_cells(rect: Rect) -> frozenset[tuple[int, int]]:
    rows, cols = rect
    return frozenset((i, j) for i in rows for j in cols)


def legacy_rank_over_q(matrix: CommMatrix | list[list[int]]) -> int:
    """The original Gaussian elimination over ``Fraction`` objects."""
    rows = matrix.entries if isinstance(matrix, CommMatrix) else [list(r) for r in matrix]
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    n_cols = len(work[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, len(work)) if work[r][col] != 0), None
        )
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        head = work[pivot_row][col]
        for r in range(pivot_row + 1, len(work)):
            if work[r][col] != 0:
                factor = work[r][col] / head
                row_r, row_p = work[r], work[pivot_row]
                for c in range(col, n_cols):
                    row_r[c] -= factor * row_p[c]
        pivot_row += 1
        rank += 1
        if pivot_row == len(work):
            break
    return rank


def legacy_rank_over_gf2(matrix: CommMatrix | list[list[int]]) -> int:
    """The original list-based GF(2) bitset elimination."""
    rows = matrix.entries if isinstance(matrix, CommMatrix) else [list(r) for r in matrix]
    bitrows = []
    for row in rows:
        value = 0
        for j, v in enumerate(row):
            if v % 2:
                value |= 1 << j
        bitrows.append(value)
    rank = 0
    for col in range(max((len(r) for r in rows), default=0)):
        mask = 1 << col
        pivot = next((i for i, r in enumerate(bitrows) if r & mask), None)
        if pivot is None:
            continue
        pivot_value = bitrows.pop(pivot)
        bitrows = [r ^ pivot_value if r & mask else r for r in bitrows]
        rank += 1
    return rank


def legacy_grow_rectangle(
    matrix: CommMatrix,
    seed: tuple[int, int],
    allowed: frozenset[tuple[int, int]],
    column_first: bool,
) -> Rect:
    """The original frozenset-based rectangle growth."""
    i0, j0 = seed
    n_rows, n_cols = matrix.shape

    def row_ok(i: int, cols: Iterable[int]) -> bool:
        return all(matrix[i, j] == 1 and (i, j) in allowed for j in cols)

    def col_ok(j: int, rows: Iterable[int]) -> bool:
        return all(matrix[i, j] == 1 and (i, j) in allowed for i in rows)

    rows = {i0}
    cols = {j0}
    if column_first:
        cols |= {j for j in range(n_cols) if j != j0 and col_ok(j, rows)}
        rows |= {i for i in range(n_rows) if i != i0 and row_ok(i, cols)}
    else:
        rows |= {i for i in range(n_rows) if i != i0 and row_ok(i, cols)}
        cols |= {j for j in range(n_cols) if j != j0 and col_ok(j, rows)}
    return frozenset(rows), frozenset(cols)


def legacy_maximal_rectangles_at(
    matrix: CommMatrix,
    seed: tuple[int, int],
    allowed: frozenset[tuple[int, int]],
) -> list[Rect]:
    """The original subset-enumeration over compatible columns."""
    i0, j0 = seed
    n_rows, n_cols = matrix.shape
    candidate_cols = [
        j
        for j in range(n_cols)
        if matrix[i0, j] == 1 and (i0, j) in allowed
    ]
    seen: set[Rect] = set()
    results: list[Rect] = []
    for mask in range(1 << len(candidate_cols)):
        cols = {j0} | {
            candidate_cols[b] for b in range(len(candidate_cols)) if mask >> b & 1
        }
        rows = frozenset(
            i
            for i in range(n_rows)
            if all(matrix[i, j] == 1 and (i, j) in allowed for j in cols)
        )
        if not rows:
            continue
        closed_cols = frozenset(
            j
            for j in range(n_cols)
            if all(matrix[i, j] == 1 and (i, j) in allowed for i in rows)
        )
        rect = (rows, closed_cols)
        if rect not in seen:
            seen.add(rect)
            results.append(rect)
    return results


def legacy_greedy_disjoint_cover(matrix: CommMatrix) -> list[Rect]:
    """The original set-based greedy disjoint cover."""
    uncovered = set(
        (i, j)
        for i, row in enumerate(matrix.entries)
        for j, v in enumerate(row)
        if v
    )
    cover: list[Rect] = []
    while uncovered:
        seed = min(uncovered)
        allowed = frozenset(uncovered)
        best = max(
            (
                legacy_grow_rectangle(matrix, seed, allowed, column_first)
                for column_first in (False, True)
            ),
            key=lambda r: len(r[0]) * len(r[1]),
        )
        cover.append(best)
        uncovered -= legacy_rect_cells(best)
    return cover


def legacy_minimum_disjoint_cover(
    matrix: CommMatrix, node_budget: int = 2_000_000
) -> list[Rect]:
    """The original branch-and-bound (RuntimeError on budget exhaustion).

    It branches on residual-maximal rectangles only, so its cover can be
    larger than the partition number (see the module docstring).
    """
    ones = frozenset(
        (i, j)
        for i, row in enumerate(matrix.entries)
        for j, v in enumerate(row)
        if v
    )
    if not ones:
        return []
    best_cover = legacy_greedy_disjoint_cover(matrix)
    nodes = 0

    def search(uncovered: frozenset[tuple[int, int]], chosen: list[Rect]) -> None:
        nonlocal best_cover, nodes
        nodes += 1
        if nodes > node_budget:
            raise RuntimeError("minimum_disjoint_cover: node budget exhausted")
        if not uncovered:
            if len(chosen) < len(best_cover):
                best_cover = list(chosen)
            return
        if len(chosen) + 1 >= len(best_cover):
            return
        seed = min(uncovered)
        for rect in legacy_maximal_rectangles_at(matrix, seed, uncovered):
            chosen.append(rect)
            search(uncovered - legacy_rect_cells(rect), chosen)
            chosen.pop()

    search(ones, [])
    return best_cover


def legacy_is_fooling_set(
    matrix: CommMatrix, entries: Iterable[tuple[int, int]]
) -> bool:
    """The original entry-by-entry fooling check."""
    pairs = list(entries)
    for i, j in pairs:
        if matrix[i, j] != 1:
            return False
    for idx, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[idx + 1 :]:
            if matrix[i, j2] == 1 and matrix[i2, j] == 1:
                return False
    return True


def legacy_greedy_fooling_set(matrix: CommMatrix) -> list[tuple[int, int]]:
    """The original row-major greedy fooling-set scan."""
    chosen: list[tuple[int, int]] = []
    ones = [
        (i, j)
        for i, row in enumerate(matrix.entries)
        for j, v in enumerate(row)
        if v
    ]
    for i, j in ones:
        if all(
            matrix[i, j2] == 0 or matrix[i2, j] == 0 for (i2, j2) in chosen
        ):
            chosen.append((i, j))
    if not legacy_is_fooling_set(matrix, chosen):
        raise AssertionError("greedy produced a non-fooling set")
    return chosen


def _legacy_best_column_response(column_sums: list[int]) -> int:
    positive = sum(s for s in column_sums if s > 0)
    negative = sum(s for s in column_sums if s < 0)
    return max(positive, -negative)


def legacy_max_bilinear_form_exact(matrix: list[list[int]]) -> int:
    """The original Gray-code exact maximiser of ``|x^T M y|`` (0/1 vectors).

    Only the exact branch is frozen: the randomised heuristic above the
    exact limit was not rewritten, so it needs no oracle.
    """
    if not matrix or not matrix[0]:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    base = (
        matrix
        if n_rows <= n_cols
        else [[matrix[i][j] for i in range(n_rows)] for j in range(n_cols)]
    )
    dim = len(base)
    width = len(base[0])
    column_sums = [0] * width
    in_set = [False] * dim
    best = 0  # the empty selection
    for step in range(1, 1 << dim):
        flip = (step & -step).bit_length() - 1
        sign = -1 if in_set[flip] else 1
        in_set[flip] = not in_set[flip]
        row = base[flip]
        for j in range(width):
            column_sums[j] += sign * row[j]
        best = max(best, _legacy_best_column_response(column_sums))
    return best


# ----------------------------------------------------------------------
# The pre-solver *packed* branch-and-bound, frozen when the exact cover
# moved onto the branch-and-price core of repro.comm.cover.  Mask-level
# but backend-free: do not route these loops through repro.backend,
# that would make the cross-check circular.
# ----------------------------------------------------------------------


def _pk_superset_rows(allow: list[int], cols: int) -> int:
    rows = 0
    for i, mask in enumerate(allow):
        if mask & cols == cols:
            rows |= 1 << i
    return rows


def _pk_and_reduce(allow: list[int], rows: int) -> int:
    inter = -1
    while rows:
        low = rows & -rows
        inter &= allow[low.bit_length() - 1]
        rows ^= low
    return inter


def _pk_cells(rows_mask: int, cols_mask: int, n_cols: int) -> int:
    cells = 0
    while rows_mask:
        low = rows_mask & -rows_mask
        cells |= cols_mask << ((low.bit_length() - 1) * n_cols)
        rows_mask ^= low
    return cells


def _pk_maximal_masks(allow: list[int], i0: int, j0: int) -> list[tuple[int, int]]:
    candidates = []
    scan = allow[i0]
    while scan:
        low = scan & -scan
        candidates.append(low.bit_length() - 1)
        scan ^= low
    seen: set[tuple[int, int]] = set()
    results: list[tuple[int, int]] = []
    for subset in range(1 << len(candidates)):
        cols = 1 << j0
        bits = subset
        while bits:
            low = bits & -bits
            cols |= 1 << candidates[low.bit_length() - 1]
            bits ^= low
        rows = _pk_superset_rows(allow, cols)
        if not rows:
            continue
        rect = (rows, _pk_and_reduce(allow, rows))
        if rect not in seen:
            seen.add(rect)
            results.append(rect)
    return results


def _pk_grow(allow: list[int], i0: int, j0: int, column_first: bool) -> tuple[int, int]:
    seed_row, seed_col = 1 << i0, 1 << j0
    if column_first:
        cols = allow[i0] | seed_col
        rows = seed_row | _pk_superset_rows(allow, cols)
    else:
        rows = seed_row | _pk_superset_rows(allow, seed_col)
        cols = seed_col | _pk_and_reduce(allow, rows)
    return rows, cols


def _pk_greedy(row_masks: list[int]) -> list[tuple[int, int]]:
    allow = list(row_masks)
    cover: list[tuple[int, int]] = []
    while True:
        i0 = next((i for i in range(len(allow)) if allow[i]), None)
        if i0 is None:
            break
        j0 = (allow[i0] & -allow[i0]).bit_length() - 1
        best = _pk_grow(allow, i0, j0, False)
        other = _pk_grow(allow, i0, j0, True)
        if other[0].bit_count() * other[1].bit_count() > best[0].bit_count() * best[1].bit_count():
            best = other
        cover.append(best)
        not_cols = ~best[1]
        scan = best[0]
        while scan:
            low = scan & -scan
            allow[low.bit_length() - 1] &= not_cols
            scan ^= low
    return cover


def frozen_packed_minimum_cover(matrix, node_budget: int = 2_000_000) -> list[Rect]:
    """The branch-and-bound `minimum_disjoint_cover` ran before the
    branch-and-price swap: greedy incumbent, area-only bound, smallest-
    uncovered-cell branching over residual-maximal rectangles, visited-
    state memoization.  Not exact: its cover can be larger than the
    partition number (see the module docstring).  Accepts a CommMatrix
    or PackedMatrix; raises RuntimeError on budget exhaustion.
    """
    if isinstance(matrix, CommMatrix):
        row_masks = []
        for row in matrix.entries:
            mask = 0
            for j, v in enumerate(row):
                if v:
                    mask |= 1 << j
            row_masks.append(mask)
        n_rows, n_cols = matrix.shape
    else:
        row_masks = list(matrix.row_masks)
        n_rows, n_cols = matrix.shape
    full_cols = (1 << n_cols) - 1
    ones_cells = 0
    for i, mask in enumerate(row_masks):
        ones_cells |= mask << (i * n_cols)
    if not ones_cells:
        return []
    best = _pk_greedy(row_masks)
    col_pops = [0] * n_cols
    for mask in row_masks:
        scan = mask
        while scan:
            low = scan & -scan
            col_pops[low.bit_length() - 1] += 1
            scan ^= low
    max_row = max((m.bit_count() for m in row_masks), default=0)
    max_col = max(col_pops, default=0)
    area_cap = max(1, max_row * max_col)
    nodes = 0
    visited: dict[int, int] = {}

    def search(uncovered: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise RuntimeError("frozen_packed_minimum_cover: node budget exhausted")
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        depth = len(chosen)
        previous = visited.get(uncovered)
        if previous is not None and previous <= depth:
            return
        visited[uncovered] = depth
        needed = -(-uncovered.bit_count() // area_cap)
        if depth + max(1, needed) >= len(best):
            return
        low_bit = (uncovered & -uncovered).bit_length() - 1
        i0, j0 = divmod(low_bit, n_cols)
        allow = [(uncovered >> (i * n_cols)) & full_cols for i in range(n_rows)]
        for rows, cols in _pk_maximal_masks(allow, i0, j0):
            chosen.append((rows, cols))
            search(uncovered & ~_pk_cells(rows, cols, n_cols), chosen)
            chosen.pop()

    search(ones_cells, [])

    def bits(mask: int) -> frozenset[int]:
        out = set()
        while mask:
            low = mask & -mask
            out.add(low.bit_length() - 1)
            mask ^= low
        return frozenset(out)

    return [(bits(rows), bits(cols)) for rows, cols in best]
