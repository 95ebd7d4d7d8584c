"""Branch-and-price rectangle covers: certified minimum 1-covers.

The partition number — the minimum number of pairwise disjoint all-ones
rectangles covering the 1-entries of a matrix — is the quantity
Proposition 16 turns into a uCFG size lower bound, and a minimum
rectangle cover is exactly a minimum biclique cover of the matrix's
bipartite support graph.  The plain branch-and-bound that
:func:`repro.comm.covers.minimum_disjoint_cover` once ran dies around
``p = 4`` on the ``L_n`` matrices because its only lower bound is cell
count over maximum rectangle area; this module replaces the core with a
branch-and-price-style search whose pruning machinery certifies optima
long before the tree is explored:

incumbent upper bound
    The greedy disjoint cover (both orientations) or, in ``cover`` mode,
    the greedy overlapping cover — never worse than what the caller
    could compute herself, and the fallback payload of the budget path.
exact lower bounds, staged cheap-to-expensive
    * *area*: uncovered cells over the densest-row x densest-column
      area cap;
    * *fooling sets* (independent edges of the support graph): the
      greedy set first, then a capped exact maximum via an independent-
      set branch-and-bound on the cell conflict graph — any fooling set
      lower-bounds any 1-cover, disjoint or not;
    * *rank* (disjoint mode only): ``rank_{GF(2)}`` and ``rank_ℚ`` of the
      residual matrix — a disjoint cover sums rank-1 indicators with no
      cancellation over any field (Theorem 17's bound);
    * *fractional cover LP*: the dual linear program
      ``max Σ_c x_c  s.t.  Σ_{c ∈ R} x_c ≤ 1`` per maximal rectangle
      ``R``, solved by a dense primal simplex over exact
      :class:`~fractions.Fraction` arithmetic — no float tolerance
      anywhere.  By weak duality *any* feasible iterate bounds the
      fractional (hence the integral) cover number, so a pivot cap
      costs tightness, never soundness.  Restricting constraints to
      *maximal* rectangles is complete because ``x ≥ 0`` makes every
      sub-rectangle's constraint dominated.

Each bound stage runs only while the gap is open, so easy instances
(`L_p` included: greedy = ``2^p - 1`` = rank) certify at the *root* in
milliseconds.  When the gap survives, the search branches on the
*least-flexible* uncovered cell — the one whose residual row and column
are thinnest — over the inclusion-maximal rectangles through it, which
Close-by-One lists as the concepts of the cell's context, memoising
visited uncovered-states by their cell bitmask.  In disjoint mode those
rectangles are maximal in the *residual*, a family that can miss every
minimum partition (see :func:`solve_cover`).

This module holds all of the package's mask-level rectangle code: growth,
Close-by-One enumeration, the greedy covers and the disjointness check.
:mod:`repro.comm.covers` and :mod:`repro.comm.nondeterministic` wrap it
for frozenset rectangles.  Everything runs on the
:class:`~repro.comm.packed.PackedMatrix` bitmask currency with popcount /
``bit_indices`` / ``cells_of_rect`` routed through the active kernel
backend (:mod:`repro.backend`); results are bit-exact across backends.
The pre-existing branch-and-bound survives frozen in
``tests/legacy_comm.py`` as a property-test oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

from repro.backend import get_backend
from repro.comm.fooling import fooling_set_bound
from repro.comm.matrix import (
    CommMatrix,
    disjointness_matrix,
    equality_matrix,
    intersection_matrix,
)
from repro.comm.packed import PackedMatrix, as_packed, cells_of_rect, iter_bits, mask_of
from repro.comm.rank import rank_over_q
from repro.errors import CoverBudgetExceeded, RectangleError

__all__ = [
    "CoverResult",
    "solve_cover",
    "matrix_from_spec",
    "fractional_cover_bound",
    "maximum_fooling_bound",
    "all_maximal_rectangles",
]

#: A rectangle as (row bitmask, column bitmask) — the internal currency.
MaskRect = tuple[int, int]

#: A rectangle as (row-index frozenset, column-index frozenset).
Rect = tuple[frozenset[int], frozenset[int]]

_MODES = ("disjoint", "cover")

#: Default caps on the expensive root bounds.  Exceeding a cap skips the
#: bound (soundly — the remaining bounds still apply), it never guesses.
DEFAULT_LP_CELL_LIMIT = 72
DEFAULT_LP_RECT_LIMIT = 224
DEFAULT_LP_PIVOT_LIMIT = 400
DEFAULT_FOOLING_CELL_LIMIT = 72
DEFAULT_FOOLING_NODE_LIMIT = 20_000


@dataclass(frozen=True)
class CoverResult:
    """A (certified or budget-bounded) minimum rectangle cover.

    ``optimal`` is ``True`` exactly when ``lower_bound == size`` — the
    cover is then a *certified* minimum, with ``bounds`` recording which
    bound closed the gap.  ``nodes_expanded == 0`` means the root bounds
    alone certified the incumbent.
    """

    mode: str
    cover: tuple[Rect, ...]
    size: int
    lower_bound: int
    optimal: bool
    bounds: dict[str, int] = field(default_factory=dict)
    nodes_expanded: int = 0
    node_budget: int = 0
    shape: tuple[int, int] = (0, 0)

    def to_json(self) -> dict[str, Any]:
        """A JSON-serializable view (engine job results, artifacts)."""
        return {
            "mode": self.mode,
            "shape": list(self.shape),
            "size": self.size,
            "lower_bound": self.lower_bound,
            "optimal": self.optimal,
            "bounds": dict(self.bounds),
            "nodes_expanded": self.nodes_expanded,
            "node_budget": self.node_budget,
            "cover": [
                [sorted(rows), sorted(cols)] for rows, cols in self.cover
            ],
        }


def matrix_from_spec(
    spec: "PackedMatrix | CommMatrix | Sequence[Sequence[int]] | str",
) -> PackedMatrix:
    """Coerce any accepted matrix description to packed form.

    Accepts a :class:`PackedMatrix` / :class:`CommMatrix`, a (possibly
    nested-tuple — the engine canonicalises job params that way)
    list-of-lists of 0/1 entries, or a named-family string
    ``"intersection:P"`` / ``"disjointness:P"`` / ``"equality:P"``.

    >>> matrix_from_spec("intersection:2").shape
    (4, 4)
    >>> matrix_from_spec(((1, 0), (0, 1))).count_ones()
    2
    """
    if isinstance(spec, PackedMatrix):
        return spec
    if isinstance(spec, CommMatrix):
        return as_packed(spec)
    if isinstance(spec, str):
        builders = {
            "intersection": intersection_matrix,
            "disjointness": disjointness_matrix,
            "equality": equality_matrix,
        }
        kind, sep, arg = spec.partition(":")
        if not sep or kind not in builders:
            known = ", ".join(f"{name}:P" for name in builders)
            raise ValueError(f"unknown matrix spec {spec!r} (known: {known})")
        try:
            p = int(arg)
        except ValueError:
            raise ValueError(f"matrix spec {spec!r}: parameter is not an integer")
        return as_packed(builders[kind](p))
    return PackedMatrix.from_entries([list(row) for row in spec])


# ----------------------------------------------------------------------
# Rectangles as masks: growth, Close-by-One enumeration, checks
# ----------------------------------------------------------------------


def _rects_out(cover: Iterable[MaskRect]) -> tuple[Rect, ...]:
    return tuple(
        (frozenset(iter_bits(rows)), frozenset(iter_bits(cols)))
        for rows, cols in cover
    )


def _allow_rows(matrix: PackedMatrix, allowed: Iterable[tuple[int, int]]) -> list[int]:
    """Per-row masks of cells that are both 1-entries and in ``allowed``.

    Every ``allowed`` cell must lie inside the matrix: out-of-range
    indices raise a ``ValueError`` naming the offending cell instead of
    being silently dropped (rows) or corrupting the mask arithmetic
    (negative columns).
    """
    n_rows, n_cols = matrix.shape
    by_row = [0] * n_rows
    for i, j in allowed:
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise ValueError(
                f"allowed cell ({i}, {j}) outside the {n_rows}x{n_cols} matrix"
            )
        by_row[i] |= 1 << j
    return [by_row[i] & matrix.row_masks[i] for i in range(n_rows)]


def _grow_masks(
    allow: list[int], i0: int, j0: int, column_first: bool
) -> MaskRect:
    """Grow a maximal all-ones rectangle around the seed within ``allow``.

    ``allow[i]`` must already be intersected with the 1-entries of row
    ``i``; growth is then pure mask arithmetic: a column joins when its
    bit survives the AND of every member row, a row joins when it
    contains every member column.
    """
    backend = get_backend()
    seed_row = 1 << i0
    seed_col = 1 << j0
    if column_first:
        cols = allow[i0] | seed_col
        rows = seed_row | backend.superset_rows(allow, cols)
    else:
        rows = seed_row | backend.superset_rows(allow, seed_col)
        cols = seed_col | backend.and_reduce(allow, rows)
    return rows, cols


def _all_maximal_masks(allow: list[int], limit: int) -> list[MaskRect] | None:
    """All inclusion-maximal non-empty rectangles of ``allow``, or ``None``.

    Close-by-One enumeration of the formal concepts of the allowed-cell
    relation: each concept is generated exactly once, at the recursion
    path of its lexicographically-least column generator, recognised by
    the canonicity test (no column below the branch column may join the
    closure).  Only columns some row allows are tried.  Returns ``None``
    as soon as it has listed ``limit + 1`` rectangles, so ``limit`` also
    bounds its work: callers must then do without the *complete* set.
    """
    backend = get_backend()
    present = 0
    for mask in allow:
        present |= mask
    columns = backend.bit_indices(present)
    out: list[MaskRect] = []

    def descend(cols: int, start: int) -> bool:
        for k in range(start, len(columns)):
            bit = 1 << columns[k]
            if cols & bit:
                continue
            rows2 = backend.superset_rows(allow, cols | bit)
            if not rows2:
                continue
            cols2 = backend.and_reduce(allow, rows2)
            if (cols2 ^ cols) & (bit - 1):
                continue  # a lower column joined: generated elsewhere
            out.append((rows2, cols2))
            if len(out) > limit:
                return False
            if not descend(cols2, k + 1):
                return False
        return True

    return out if descend(0, 0) else None


def _maximal_masks_at(
    allow: list[int], i0: int, j0: int, limit: int
) -> list[MaskRect] | None:
    """The maximal rectangles of ``allow`` through the allowed cell ``(i0, j0)``.

    They are exactly the concepts of the cell's context — the rows that
    hold ``j0``, cut to the columns of row ``i0``: row ``i0`` holds every
    column of the context and every row holds ``j0``, so each concept
    passes through the cell and is closed in ``allow`` too.  ``None``
    when more than ``limit`` exist, as for :func:`_all_maximal_masks`.
    """
    seed_col, row_cols = 1 << j0, allow[i0]
    context = [mask & row_cols if mask & seed_col else 0 for mask in allow]
    return _all_maximal_masks(context, limit)


def all_maximal_rectangles(
    matrix: "CommMatrix | PackedMatrix", limit: int = 10_000
) -> list[Rect]:
    """Every inclusion-maximal all-ones rectangle of the matrix.

    >>> sorted(len(r[0]) * len(r[1]) for r in all_maximal_rectangles([[1, 1], [1, 0]]))
    [2, 2]
    """
    pm = matrix_from_spec(matrix)
    masks = _all_maximal_masks(list(pm.row_masks), limit)
    if masks is None:
        raise RectangleError(
            f"more than {limit} maximal rectangles in a {pm.shape} matrix"
        )
    return list(_rects_out(masks))


def verify_disjoint_cover(
    matrix: CommMatrix | PackedMatrix, cover: Iterable[Rect]
) -> bool:
    """Check a claimed disjoint cover: all-ones blocks, disjoint, exhaustive."""
    pm = as_packed(matrix)
    remaining = pm.cells_mask()
    for rows, cols in cover:
        rows_mask, cols_mask = mask_of(rows), mask_of(cols)
        if not pm.is_all_ones_rect(rows_mask, cols_mask):
            return False
        cells = cells_of_rect(rows_mask, cols_mask, pm.n_cols)
        if cells & ~remaining:
            return False  # overlap (every stray 0-cell already failed above)
        remaining &= ~cells
    return not remaining


# ----------------------------------------------------------------------
# The fractional-cover LP over exact rationals
# ----------------------------------------------------------------------


def _simplex_dual_bound(
    supports: list[tuple[int, ...]], n_vars: int, pivot_limit: int
) -> Fraction:
    """``max Σ x`` s.t. ``Σ_{k ∈ support} x_k ≤ 1`` per row, ``x ≥ 0``.

    Dense primal simplex on the slack basis (every right-hand side is
    ``1 ≥ 0``, so no phase one), Dantzig entering rule, exact
    :class:`Fraction` arithmetic throughout.  Every iterate is primal
    feasible, so the value returned after *any* number of pivots — the
    cap included — is a valid lower bound on the fractional cover
    number by weak duality.
    """
    m = len(supports)
    width = n_vars + m + 1
    zero, one = Fraction(0), Fraction(1)
    rows: list[list[Fraction]] = []
    for r, support in enumerate(supports):
        row = [zero] * width
        for k in support:
            row[k] = one
        row[n_vars + r] = one
        row[-1] = one
        rows.append(row)
    obj = [one] * n_vars + [zero] * (m + 1)
    for _ in range(pivot_limit):
        enter = max(range(n_vars + m), key=obj.__getitem__)
        if obj[enter] <= 0:
            break
        leave, best_ratio = -1, None
        for r in range(m):
            coeff = rows[r][enter]
            if coeff > 0:
                ratio = rows[r][-1] / coeff
                if best_ratio is None or ratio < best_ratio:
                    best_ratio, leave = ratio, r
        if leave < 0:  # pragma: no cover - every cell sits in a rectangle
            break
        pivot = rows[leave][enter]
        prow = [value / pivot for value in rows[leave]]
        rows[leave] = prow
        for r in range(m):
            factor = rows[r][enter]
            if r != leave and factor:
                rows[r] = [v - factor * p for v, p in zip(rows[r], prow)]
        factor = obj[enter]
        if factor:
            obj = [v - factor * p for v, p in zip(obj, prow)]
    return -obj[-1]


def _ceil_fraction(value: Fraction) -> int:
    return -(-value.numerator // value.denominator)


def _lp_bound(
    allow: list[int],
    n_cols: int,
    uncovered: int,
    *,
    rect_limit: int,
    pivot_limit: int,
) -> int | None:
    """The ceil'd fractional-cover dual bound, or ``None`` when capped."""
    rects = _all_maximal_masks(allow, rect_limit)
    if rects is None:
        return None
    backend = get_backend()
    var_of = {bit: k for k, bit in enumerate(backend.bit_indices(uncovered))}
    supports: set[tuple[int, ...]] = set()
    for rows, cols in rects:
        inside = cells_of_rect(rows, cols, n_cols) & uncovered
        if inside:
            supports.add(tuple(var_of[bit] for bit in backend.bit_indices(inside)))
    if not supports:
        return None
    value = _simplex_dual_bound(sorted(supports), len(var_of), pivot_limit)
    return _ceil_fraction(value)


def fractional_cover_bound(
    matrix: "CommMatrix | PackedMatrix | Sequence[Sequence[int]] | str",
    *,
    rect_limit: int = DEFAULT_LP_RECT_LIMIT,
    pivot_limit: int = DEFAULT_LP_PIVOT_LIMIT,
) -> int | None:
    """``ceil`` of the fractional cover number, or ``None`` when capped.

    Valid as a lower bound on overlapping *and* disjoint covers alike.

    >>> fractional_cover_bound([[1, 0], [0, 1]])
    2
    >>> fractional_cover_bound([[1, 1], [1, 1]])
    1
    """
    pm = matrix_from_spec(matrix)
    uncovered = pm.cells_mask()
    if not uncovered:
        return 0
    return _lp_bound(
        list(pm.row_masks),
        pm.n_cols,
        uncovered,
        rect_limit=rect_limit,
        pivot_limit=pivot_limit,
    )


# ----------------------------------------------------------------------
# Fooling sets: greedy seed, then exact maximum independent set
# ----------------------------------------------------------------------


def _max_fooling_size(
    allow: list[int],
    n_cols: int,
    uncovered: int,
    *,
    seed: int,
    node_limit: int,
) -> tuple[int, bool]:
    """Maximum fooling set among the uncovered cells, via MIS search.

    Branch-and-bound maximum independent set on the cell *compatibility*
    graph (edge = the two cells share an all-ones rectangle).  Returns
    ``(size, complete)``; when the node limit truncates the search, the
    best independent set found is still a sound lower bound.
    """
    backend = get_backend()
    cells = [divmod(bit, n_cols) for bit in backend.bit_indices(uncovered)]
    t = len(cells)
    adj = [0] * t
    for a in range(t):
        i, j = cells[a]
        for b in range(a + 1, t):
            i2, j2 = cells[b]
            if (allow[i] >> j2) & 1 and (allow[i2] >> j) & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    best = seed
    nodes = 0
    complete = True

    def grab(cand: int, size: int) -> None:
        nonlocal best, nodes, complete
        if nodes >= node_limit:
            complete = False
            return
        nodes += 1
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        # Branch on the most-conflicted candidate cell: including it
        # clears the most conflicts, excluding it prunes fastest.
        pick, pick_deg = -1, -1
        scan = cand
        while scan:
            low = scan & -scan
            v = low.bit_length() - 1
            scan ^= low
            degree = (adj[v] & cand).bit_count()
            if degree > pick_deg:
                pick, pick_deg = v, degree
        bit = 1 << pick
        grab(cand & ~adj[pick] & ~bit, size + 1)
        grab(cand & ~bit, size)

    grab((1 << t) - 1, 0)
    return best, complete


def maximum_fooling_bound(
    matrix: "CommMatrix | PackedMatrix | Sequence[Sequence[int]] | str",
    *,
    cell_limit: int = DEFAULT_FOOLING_CELL_LIMIT,
    node_limit: int = DEFAULT_FOOLING_NODE_LIMIT,
) -> int:
    """The best fooling-set lower bound this module can certify.

    The greedy set always runs; the exact maximum-independent-set search
    runs when the matrix has at most ``cell_limit`` 1-entries.  Either
    way the result is a sound lower bound on every 1-cover.

    >>> maximum_fooling_bound([[1, 0], [0, 1]])
    2
    """
    pm = matrix_from_spec(matrix)
    uncovered = pm.cells_mask()
    if not uncovered:
        return 0
    greedy = fooling_set_bound(pm)
    if uncovered.bit_count() > cell_limit:
        return greedy
    exact, _ = _max_fooling_size(
        list(pm.row_masks), pm.n_cols, uncovered, seed=greedy, node_limit=node_limit
    )
    return exact


# ----------------------------------------------------------------------
# Incumbents: the greedy covers as mask rectangles
# ----------------------------------------------------------------------


def _greedy_masks(pm: PackedMatrix) -> list[MaskRect]:
    """The greedy disjoint cover as mask rectangles (the packed hot loop).

    Seeds are the smallest uncovered cell in row-major order; each step
    keeps the larger of the row-first and column-first growths.
    """
    n_rows = pm.n_rows
    allow = list(pm.row_masks)
    cover: list[MaskRect] = []
    while True:
        i0 = next((i for i in range(n_rows) if allow[i]), None)
        if i0 is None:
            break
        j0 = (allow[i0] & -allow[i0]).bit_length() - 1
        best = _grow_masks(allow, i0, j0, False)
        other = _grow_masks(allow, i0, j0, True)
        if other[0].bit_count() * other[1].bit_count() > best[0].bit_count() * best[1].bit_count():
            best = other
        cover.append(best)
        not_cols = ~best[1]
        for i in iter_bits(best[0]):
            allow[i] &= not_cols
    return cover


def _greedy_disjoint_incumbent(pm: PackedMatrix) -> list[MaskRect]:
    """The better of the row- and column-orientation greedy covers."""
    best = _greedy_masks(pm)
    flipped = [(rows, cols) for cols, rows in _greedy_masks(pm.transpose())]
    return flipped if len(flipped) < len(best) else best


def _greedy_overlapping_incumbent(pm: PackedMatrix) -> list[MaskRect]:
    """The greedy overlapping cover, at the mask level.

    Grows around the smallest uncovered cell within the (static)
    1-entries, so rectangles may reuse covered cells, and keeps the
    growth that covers more fresh cells.
    """
    n_cols = pm.n_cols
    allow = list(pm.row_masks)  # growth may reuse covered cells
    uncovered = pm.cells_mask()
    cover: list[MaskRect] = []
    while uncovered:
        low_bit = (uncovered & -uncovered).bit_length() - 1
        i0, j0 = divmod(low_bit, n_cols)
        best_rect: MaskRect = (0, 0)
        best_gain = -1
        for column_first in (False, True):
            rows, cols = _grow_masks(allow, i0, j0, column_first)
            gain = (cells_of_rect(rows, cols, n_cols) & uncovered).bit_count()
            if gain > best_gain:
                best_gain, best_rect = gain, (rows, cols)
        cover.append(best_rect)
        uncovered &= ~cells_of_rect(best_rect[0], best_rect[1], n_cols)
    return cover


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------


def solve_cover(
    matrix: "CommMatrix | PackedMatrix | Sequence[Sequence[int]] | str",
    mode: str = "disjoint",
    node_budget: int = 2_000_000,
    *,
    lp_cell_limit: int = DEFAULT_LP_CELL_LIMIT,
    lp_rect_limit: int = DEFAULT_LP_RECT_LIMIT,
    lp_pivot_limit: int = DEFAULT_LP_PIVOT_LIMIT,
    fooling_cell_limit: int = DEFAULT_FOOLING_CELL_LIMIT,
    fooling_node_limit: int = DEFAULT_FOOLING_NODE_LIMIT,
) -> CoverResult:
    """Minimum rectangle cover of the 1-entries, with certificates.

    ``mode="disjoint"`` targets the partition number (pairwise disjoint
    rectangles — Proposition 16's quantity); ``mode="cover"`` the
    nondeterministic 1-cover number (overlaps allowed; the rank bounds
    do *not* apply and are not used).

    A result whose ``size`` some root bound in ``bounds`` matches is a
    true minimum; every result with ``nodes_expanded == 0`` is one.  A
    result the search closes is the best cover built from the rectangles
    it branches on, the maximal rectangles through each branch cell.  In
    cover mode they are maximal in the whole matrix, which loses no
    optimum.  In disjoint mode they are maximal in the residual, which
    can: on ::

        1 0 0 1 1
        1 1 0 1 0
        1 0 0 1 0
        1 1 1 0 0
        1 1 1 0 1

    the search returns 5 rectangles with ``optimal`` set, although
    ``{0,2}×{0,3}``, ``{0,4}×{4}``, ``{1}×{0,1,3}`` and ``{3,4}×{0,1,2}``
    partition the 1-entries into 4.  Unless a root bound matches it, such
    a ``size`` is an upper bound, and its ``lower_bound`` is not proven.

    ``node_budget`` bounds the search's work: each ``search()`` entry and
    each rectangle the enumerator lists cost one unit, and
    ``nodes_expanded`` counts the entries alone.  On budget exhaustion
    :class:`~repro.errors.CoverBudgetExceeded` is raised carrying the
    best cover found so far, verified before it is handed out.  A
    non-positive ``node_budget`` raises immediately with the greedy
    incumbent — no search, not even root bounds.

    >>> solve_cover("intersection:2").size
    3
    >>> solve_cover("intersection:3", mode="cover").size
    3
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r} (known: {', '.join(_MODES)})")
    pm = matrix_from_spec(matrix)
    n_rows, n_cols = pm.shape
    full_cols = (1 << n_cols) - 1
    ones_cells = pm.cells_mask()
    backend = get_backend()
    disjoint = mode == "disjoint"
    if not ones_cells:
        return CoverResult(
            mode=mode,
            cover=(),
            size=0,
            lower_bound=0,
            optimal=True,
            bounds={},
            nodes_expanded=0,
            node_budget=node_budget,
            shape=pm.shape,
        )

    incumbent = (
        _greedy_disjoint_incumbent(pm) if disjoint else _greedy_overlapping_incumbent(pm)
    )
    best = list(incumbent)
    nodes = 0  # search() entries
    work = 0  # search() entries plus enumerated rectangles, against node_budget

    def budget_error() -> CoverBudgetExceeded:
        cover_out = _rects_out(best)
        covered = 0
        for rows, cols in best:
            covered |= cells_of_rect(rows, cols, n_cols)
        uncovered_cells = (ones_cells & ~covered).bit_count()
        if disjoint:
            verified = verify_disjoint_cover(pm, cover_out)
        else:
            verified = uncovered_cells == 0 and all(
                pm.is_all_ones_rect(rows, cols) for rows, cols in best
            )
        return CoverBudgetExceeded(
            f"solve_cover[{mode}]: node budget {node_budget} exhausted "
            f"(best cover so far: {len(best)} rectangles, "
            f"{uncovered_cells} cells uncovered)",
            best_cover=list(cover_out),
            nodes_expanded=nodes,
            verified=verified,
            uncovered_cells=uncovered_cells,
        )

    if node_budget <= 0:
        raise budget_error()

    # -- root lower bounds, staged cheap-to-expensive ------------------
    ones_count = ones_cells.bit_count()
    max_row = max((m.bit_count() for m in pm.row_masks), default=0)
    max_col = max((m.bit_count() for m in pm.col_masks), default=0)
    area_cap = max(1, max_row * max_col)
    bounds: dict[str, int] = {"greedy": len(best)}
    bounds["area"] = -(-ones_count // area_cap)
    lower = bounds["area"]
    allow_full = list(pm.row_masks)

    if lower < len(best):
        bounds["fooling_greedy"] = fooling_set_bound(pm)
        lower = max(lower, bounds["fooling_greedy"])
    if disjoint and lower < len(best):
        bounds["rank_gf2"] = backend.gf2_rank(pm.row_masks, n_cols)
        lower = max(lower, bounds["rank_gf2"])
    if disjoint and lower < len(best):
        bounds["rank_q"] = rank_over_q(pm)
        lower = max(lower, bounds["rank_q"])
    if lower < len(best) and ones_count <= fooling_cell_limit:
        exact_fooling, complete = _max_fooling_size(
            allow_full,
            n_cols,
            ones_cells,
            seed=bounds.get("fooling_greedy", 0),
            node_limit=fooling_node_limit,
        )
        bounds["fooling_max" if complete else "fooling_partial"] = exact_fooling
        lower = max(lower, exact_fooling)
    if lower < len(best) and ones_count <= lp_cell_limit:
        lp = _lp_bound(
            allow_full,
            n_cols,
            ones_cells,
            rect_limit=lp_rect_limit,
            pivot_limit=lp_pivot_limit,
        )
        if lp is not None:
            bounds["lp"] = lp
            lower = max(lower, lp)

    if lower >= len(best):
        return CoverResult(
            mode=mode,
            cover=_rects_out(best),
            size=len(best),
            lower_bound=len(best),
            optimal=True,
            bounds=bounds,
            nodes_expanded=0,
            node_budget=node_budget,
            shape=pm.shape,
        )

    # -- branch and bound on the uncovered-cell bitmask ----------------
    visited: dict[int, int] = {}
    chosen: list[MaskRect] = []
    rect_cache: dict[tuple[int, int], list[tuple[MaskRect, int]]] = {}

    def branch_cell(uncovered: int, residual: list[int]) -> tuple[int, int]:
        # Least-flexible uncovered cell: thinnest residual row + column.
        col_pops = [m.bit_count() for m in backend.transpose_masks(residual, n_cols)]
        row_pops = [m.bit_count() for m in residual]
        best_cell = (-1, -1)
        best_score = None
        for bit in backend.bit_indices(uncovered):
            i, j = divmod(bit, n_cols)
            score = row_pops[i] + col_pops[j]
            if best_score is None or score < best_score:
                best_score, best_cell = score, (i, j)
        return best_cell

    def candidates_at(allow: list[int], i0: int, j0: int) -> list[tuple[MaskRect, int]]:
        nonlocal work
        rects = _maximal_masks_at(allow, i0, j0, node_budget - work)
        if rects is None:
            raise budget_error()
        work += len(rects)
        return [(rect, cells_of_rect(rect[0], rect[1], n_cols)) for rect in rects]

    def search(uncovered: int, depth: int) -> None:
        nonlocal best, nodes, work
        if work >= node_budget:
            raise budget_error()
        nodes += 1
        work += 1
        if not uncovered:
            if depth < len(best):
                best = list(chosen)
            return
        previous = visited.get(uncovered)
        if previous is not None and previous <= depth:
            return
        visited[uncovered] = depth
        residual = [
            (uncovered >> (i * n_cols)) & full_cols for i in range(n_rows)
        ]
        need = -(-uncovered.bit_count() // area_cap)
        if disjoint:
            need = max(need, backend.gf2_rank(residual, n_cols))
        if depth + max(1, need) >= len(best):
            return
        i0, j0 = branch_cell(uncovered, residual)
        if disjoint:
            candidates = candidates_at(residual, i0, j0)
        else:
            candidates = rect_cache.get((i0, j0))
            if candidates is None:
                candidates = rect_cache[(i0, j0)] = candidates_at(allow_full, i0, j0)
        candidates = sorted(
            candidates,
            key=lambda rc: (rc[1] & uncovered).bit_count(),
            reverse=True,
        )
        for rect, cells in candidates:
            chosen.append(rect)
            search(uncovered & ~cells, depth + 1)
            chosen.pop()

    search(ones_cells, 0)
    size = len(best)
    lower = max(lower, size)  # no smaller cover among the searched candidates
    return CoverResult(
        mode=mode,
        cover=_rects_out(best),
        size=size,
        lower_bound=lower,
        optimal=True,
        bounds=bounds,
        nodes_expanded=nodes,
        node_budget=node_budget,
        shape=pm.shape,
    )
