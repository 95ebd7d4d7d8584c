"""Exact and greedy rectangle covers of the 1-entries of a matrix.

The *partition number* (minimum number of pairwise disjoint all-ones
rectangles covering all 1-entries) is the fixed-partition analogue of the
quantity Proposition 16 bounds for ``L_n``.  Exact computation is
NP-hard: :func:`minimum_disjoint_cover` delegates to the bound-certified
branch-and-price core of :mod:`repro.comm.cover`; the greedy variant
scales further and upper-bounds the truth.

The functions here are frozenset-rectangle wrappers over the mask-level
code of :mod:`repro.comm.cover`, which holds rectangle growth, the
Close-by-One enumerator, the greedy cover and the disjointness check.
Public signatures are unchanged from the list-of-lists era and accept
:class:`CommMatrix` and :class:`PackedMatrix` alike; the frozen
pre-packed implementations survive as test oracles in
``tests/legacy_comm.py``.
"""

from __future__ import annotations

from repro.comm.cover import (
    Rect,
    _allow_rows,
    _greedy_masks,
    _maximal_masks_at,
    _rects_out,
    solve_cover,
    verify_disjoint_cover,
)
from repro.comm.matrix import CommMatrix
from repro.comm.packed import PackedMatrix, as_packed

__all__ = [
    "Rect",
    "rect_cells",
    "maximal_rectangles_at",
    "greedy_disjoint_cover",
    "minimum_disjoint_cover",
    "verify_disjoint_cover",
]


def rect_cells(rect: Rect) -> frozenset[tuple[int, int]]:
    """All cells of a rectangle."""
    rows, cols = rect
    return frozenset((i, j) for i in rows for j in cols)


def maximal_rectangles_at(
    matrix: CommMatrix | PackedMatrix,
    seed: tuple[int, int],
    allowed: frozenset[tuple[int, int]],
) -> list[Rect]:
    """All inclusion-maximal all-ones rectangles through ``seed``.

    Only cells in ``allowed`` may be used.  Close-by-One lists them once
    each, in no documented order; there can be exponentially many, so
    callers cap the matrix size.  A seed that is not an allowed 1-entry
    lies in no such rectangle.
    """
    pm = as_packed(matrix)
    i0, j0 = seed
    allow = _allow_rows(pm, allowed)
    if not (allow[i0] >> j0) & 1:
        return []
    # At most one rectangle per column subset, so the limit never binds.
    return list(_rects_out(_maximal_masks_at(allow, i0, j0, 1 << pm.n_cols)))


def greedy_disjoint_cover(matrix: CommMatrix | PackedMatrix) -> list[Rect]:
    """A disjoint cover of the 1s by repeatedly growing maximal rectangles.

    Upper-bounds the partition number; exactness is not claimed.  Seeds
    are the smallest uncovered cell in row-major order, so the result is
    deterministic (and identical to the pre-packed implementation).
    """
    return list(_rects_out(_greedy_masks(as_packed(matrix))))


def minimum_disjoint_cover(
    matrix: CommMatrix | PackedMatrix, node_budget: int = 2_000_000
) -> list[Rect]:
    """A minimum disjoint rectangle cover of the 1-entries, as far as proven.

    A thin facade over :func:`repro.comm.cover.solve_cover` in
    ``disjoint`` mode — the branch-and-price core that seeds with the
    greedy cover, certifies against exact fooling-set / rank /
    fractional-LP lower bounds (often at the root, with zero search
    nodes), and otherwise branches on the least-flexible uncovered cell.
    A cover that a root bound matches is minimum.  Otherwise a cover the
    search closes is only the best over rectangles maximal in the
    residual, and can exceed the partition number (the 5×5 matrix in
    :func:`~repro.comm.cover.solve_cover` gets 5 where 4 suffice).
    ``node_budget`` caps the search; on exhaustion
    :class:`~repro.errors.CoverBudgetExceeded` is raised carrying the
    best valid cover found so far (verified, with explicit partial-
    coverage accounting) instead of discarding the progress.  The
    pre-solver branch-and-bound survives as the frozen oracle in
    ``tests/legacy_comm.py``.

    >>> from repro.comm.matrix import intersection_matrix
    >>> len(minimum_disjoint_cover(intersection_matrix(2)))
    3
    """
    result = solve_cover(matrix, mode="disjoint", node_budget=node_budget)
    return list(result.cover)
