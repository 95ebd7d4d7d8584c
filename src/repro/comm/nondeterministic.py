"""Nondeterministic communication: overlapping 1-covers.

The deep asymmetry the paper exploits has a classical mirror.  The
1-entries of ``INTERSECT_p`` are covered by just ``p`` *overlapping*
rectangles — one per element ``i``: ``{X ∋ i} × {Y ∋ i}`` — so the
nondeterministic complexity of non-disjointness is ``log p``.  This is
exactly Example 8 on the matrix side: ``L_n`` is a union of ``n``
overlapping balanced rectangles (hence small CFGs and NFAs), while
*disjoint* covers need ``2^{Ω(n)}`` (hence huge uCFGs).  Cheap
nondeterminism versus expensive unambiguity, in both languages and
matrices.
"""

from __future__ import annotations

from repro.comm.cover import Rect, _greedy_overlapping_incumbent, _rects_out, solve_cover
from repro.comm.covers import rect_cells
from repro.comm.matrix import CommMatrix, intersection_matrix
from repro.comm.packed import PackedMatrix, as_packed
from repro.util.tables import approx_log2

__all__ = [
    "element_cover_for_intersection",
    "verify_overlapping_cover",
    "greedy_overlapping_cover",
    "minimum_overlapping_cover",
    "nondeterministic_cc",
]


def element_cover_for_intersection(p: int) -> tuple[CommMatrix, list[Rect]]:
    """The ``p``-rectangle overlapping 1-cover of ``INTERSECT_p``.

    Rectangle ``i`` is ``{X : i ∈ X} × {Y : i ∈ Y}`` — all its cells are
    1-entries (the pair intersects at ``i``), and every 1-entry lies in
    the rectangle of each common element, so the union is exact and the
    overlap is precisely the multiplicity of the intersection — the
    matrix analogue of :func:`repro.languages.ln.match_positions`.

    >>> matrix, cover = element_cover_for_intersection(3)
    >>> len(cover)
    3
    >>> verify_overlapping_cover(matrix, cover)
    True
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    matrix = intersection_matrix(p)
    cover: list[Rect] = []
    for element in range(1, p + 1):
        rows = frozenset(
            i for i, label in enumerate(matrix.row_labels) if element in label
        )
        cols = frozenset(
            j for j, label in enumerate(matrix.col_labels) if element in label
        )
        cover.append((rows, cols))
    return matrix, cover


def verify_overlapping_cover(matrix: CommMatrix, cover: list[Rect]) -> bool:
    """Check a (possibly overlapping) 1-cover: all-ones blocks, union exact."""
    covered: set[tuple[int, int]] = set()
    for rect in cover:
        cells = rect_cells(rect)
        for i, j in cells:
            if matrix[i, j] != 1:
                return False
        covered |= cells
    return covered == set(matrix.ones())


def greedy_overlapping_cover(matrix: "CommMatrix | PackedMatrix") -> list[Rect]:
    """A greedy overlapping 1-cover (no disjointness constraint).

    Repeatedly grows a maximal rectangle around the smallest uncovered
    1-entry, but — unlike the disjoint variant — may reuse already
    covered cells, which can make it much smaller.  Runs entirely on
    bitmasks: growth is restricted to the (static) 1-entries while the
    progress metric counts freshly covered cells by popcount.
    """
    return list(_rects_out(_greedy_overlapping_incumbent(as_packed(matrix))))


def minimum_overlapping_cover(
    matrix: "CommMatrix | PackedMatrix", node_budget: int = 2_000_000
) -> list[Rect]:
    """Exact minimum (possibly overlapping) 1-cover of the matrix.

    The nondeterministic analogue of
    :func:`repro.comm.covers.minimum_disjoint_cover`: rectangles may
    overlap, so the rank bounds do not apply — the solver certifies
    against fooling sets and the fractional cover LP instead.  Its
    ``log2`` is the exact nondeterministic communication complexity the
    cover witnesses.

    >>> from repro.comm.matrix import intersection_matrix
    >>> len(minimum_overlapping_cover(intersection_matrix(3)))
    3
    """
    result = solve_cover(matrix, mode="cover", node_budget=node_budget)
    return list(result.cover)


def nondeterministic_cc(cover_size: int) -> float:
    """``log2`` of a 1-cover size: the nondeterministic cost it witnesses.

    >>> nondeterministic_cc(8)
    3.0
    """
    if cover_size < 1:
        raise ValueError(f"cover_size must be >= 1, got {cover_size}")
    return approx_log2(cover_size)
