"""The branch-and-price cover solver of :mod:`repro.comm.cover`.

Three oracle layers, per the frozen-oracle pattern:

* an *exhaustive* dynamic program over ALL all-ones rectangles (not just
  maximal ones) for tiny matrices — the ground truth the maximal-only
  branching is checked against;
* the frozen pre-solver packed branch-and-bound
  (:func:`tests.legacy_comm.frozen_packed_minimum_cover`) on every
  matrix it can still finish;
* the solver's own certificates: ``optimal`` must mean a matching exact
  lower bound, and all results must be bit-exact across backends.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from tests.legacy_comm import frozen_packed_minimum_cover

from repro.backend import available_backends, use_backend
from repro.comm import (
    CoverResult,
    all_maximal_rectangles,
    fractional_cover_bound,
    matrix_from_spec,
    maximum_fooling_bound,
    minimum_disjoint_cover,
    minimum_overlapping_cover,
    solve_cover,
    verify_disjoint_cover,
)
from repro.comm.matrix import intersection_matrix
from repro.comm.nondeterministic import verify_overlapping_cover
from repro.comm.packed import PackedMatrix
from repro.errors import CoverBudgetExceeded


def random_entries(rng: random.Random, max_side: int = 6, density: float = 0.6):
    n = rng.randrange(2, max_side + 1)
    m = rng.randrange(2, max_side + 1)
    return [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]


def permuted_intersection(p: int, seed: int) -> list[list[int]]:
    """``INTERSECT_p`` with its rows, then its columns, shuffled by ``seed``."""
    entries = intersection_matrix(p).entries
    rng = random.Random(seed)
    rows, cols = list(range(2**p)), list(range(2**p))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[entries[i][j] for j in cols] for i in rows]


def crown(n: int) -> list[list[int]]:
    """``J_n - I_n``: every maximal rectangle is ``R × (complement of R)``."""
    return [[int(i != j) for j in range(n)] for i in range(n)]


def exhaustive_minimum_cover(entries, disjoint: bool) -> int:
    """Ground-truth DP over ALL all-ones rectangles, tiny matrices only."""
    n, m = len(entries), len(entries[0])
    assert n * m <= 20, "exhaustive oracle is for tiny matrices"
    rects = []
    for rows_mask in range(1, 1 << n):
        rows = [i for i in range(n) if rows_mask >> i & 1]
        for cols_mask in range(1, 1 << m):
            cols = [j for j in range(m) if cols_mask >> j & 1]
            if all(entries[i][j] for i in rows for j in cols):
                cells = 0
                for i in rows:
                    for j in cols:
                        cells |= 1 << (i * m + j)
                rects.append(cells)
    ones = 0
    for i in range(n):
        for j in range(m):
            if entries[i][j]:
                ones |= 1 << (i * m + j)

    @lru_cache(maxsize=None)
    def dp(uncovered: int) -> int:
        if not uncovered:
            return 0
        low = uncovered & -uncovered
        best = n * m + 1
        for cells in rects:
            if not cells & low:
                continue
            if disjoint and cells & ~uncovered:
                continue  # disjointness: stay inside the uncovered region
            best = min(best, 1 + dp(uncovered & ~cells))
        return best

    return dp(ones)


# ----------------------------------------------------------------------
# Arbitrary (non-L_n) matrices with known covers
# ----------------------------------------------------------------------


class TestKnownMatrices:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_identity_needs_n(self, n):
        entries = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for mode in ("disjoint", "cover"):
            result = solve_cover(entries, mode=mode)
            assert result.size == n
            assert result.optimal
            assert result.nodes_expanded == 0  # certified at the root

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (6, 6)])
    def test_all_ones_needs_one(self, shape):
        n, m = shape
        entries = [[1] * m for _ in range(n)]
        for mode in ("disjoint", "cover"):
            result = solve_cover(entries, mode=mode)
            assert result.size == 1 and result.optimal

    def test_block_diagonal_needs_one_per_block(self):
        blocks = [1, 2, 3]  # square all-ones blocks on the diagonal
        side = sum(blocks)
        entries = [[0] * side for _ in range(side)]
        offset = 0
        for b in blocks:
            for i in range(offset, offset + b):
                for j in range(offset, offset + b):
                    entries[i][j] = 1
            offset += b
        for mode in ("disjoint", "cover"):
            result = solve_cover(entries, mode=mode)
            assert result.size == len(blocks)
            assert result.optimal

    def test_fooling_tight_instance_closes_at_root(self):
        # Upper-triangular matrix: the diagonal is a fooling set of size
        # n ((i,i),(k,k) with i<k conflict-free since M[k,i]=0), greedy
        # finds an n-cover, so the gap closes at the root with zero
        # search nodes — the satellite's "lower bound closes the gap".
        n = 5
        entries = [[1 if j >= i else 0 for j in range(n)] for i in range(n)]
        result = solve_cover(entries)
        assert result.size == n
        assert result.optimal
        assert result.nodes_expanded == 0
        assert result.bounds["fooling_greedy"] == n
        assert maximum_fooling_bound(entries) == n

    def test_empty_matrix_is_trivially_covered(self):
        result = solve_cover([[0, 0], [0, 0]])
        assert result.size == 0 and result.optimal and result.cover == ()


# ----------------------------------------------------------------------
# Oracle cross-checks
# ----------------------------------------------------------------------


class TestOracles:
    def test_exhaustive_all_rectangle_oracle_tiny(self):
        # The maximal-rectangle-only branching must reach the same
        # optimum as the DP over every rectangle, in both modes.
        rng = random.Random(7001)
        for _ in range(40):
            n = rng.randrange(2, 5)
            m = rng.randrange(2, 6 - (n > 3))
            density = rng.choice((0.4, 0.6, 0.8))
            entries = [
                [1 if rng.random() < density else 0 for _ in range(m)]
                for _ in range(n)
            ]
            for mode, disjoint in (("disjoint", True), ("cover", False)):
                truth = exhaustive_minimum_cover(entries, disjoint)
                got = solve_cover(entries, mode=mode)
                if truth == len(entries[0]) * len(entries) + 1:
                    truth = 0  # no ones at all
                assert got.size == truth, (entries, mode)

    def test_frozen_packed_oracle_random(self):
        rng = random.Random(7002)
        for _ in range(30):
            entries = random_entries(rng, max_side=6)
            pm = PackedMatrix.from_entries(entries)
            frozen = frozen_packed_minimum_cover(pm)
            result = solve_cover(pm)
            assert result.size == len(frozen), entries
            assert verify_disjoint_cover(pm, result.cover)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_frozen_packed_oracle_intersection(self, p):
        pm = PackedMatrix.from_comm(intersection_matrix(p))
        result = solve_cover(pm)
        assert result.size == len(frozen_packed_minimum_cover(pm))
        assert result.optimal and result.nodes_expanded == 0  # root-certified


# ----------------------------------------------------------------------
# The acceptance criterion: past the p=4 wall, certified
# ----------------------------------------------------------------------


class TestFrontier:
    @pytest.mark.parametrize("p", [5, 6])
    def test_certified_exact_minimum_past_the_wall(self, p):
        result = solve_cover(f"intersection:{p}")
        assert result.size == 2**p - 1
        assert result.optimal
        assert result.lower_bound == result.size
        assert result.nodes_expanded == 0  # rank bound certifies at root
        assert result.bounds["rank_gf2"] == 2**p - 1
        assert verify_disjoint_cover(matrix_from_spec(f"intersection:{p}"), result.cover)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [5, 6])
    def test_permuted_intersection_certified_through_the_job(self, p, seed):
        # Shuffled rows and columns can defeat the greedy incumbent, so
        # the search runs; a 2000-unit budget must still certify 2^p - 1.
        from repro.engine import Engine

        payload = Engine(cache=None).run_one(
            "comm.cover.solve",
            {"matrix": permuted_intersection(p, seed), "node_budget": 2000},
        )
        assert payload["size"] == 2**p - 1
        assert payload["optimal"] is True
        assert payload["lower_bound"] == 2**p - 1

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_cover_mode_intersection_needs_exactly_p(self, p):
        # Example 8's asymmetry: p overlapping rectangles suffice while
        # the disjoint cover needs 2^p - 1.
        result = solve_cover(f"intersection:{p}", mode="cover")
        assert result.size == p
        assert result.optimal
        matrix = intersection_matrix(p)
        assert verify_overlapping_cover(matrix, list(result.cover))

    def test_minimum_overlapping_cover_facade(self):
        cover = minimum_overlapping_cover(intersection_matrix(3))
        assert len(cover) == 3
        assert verify_overlapping_cover(intersection_matrix(3), cover)

    def test_minimum_disjoint_cover_facade_unchanged_signature(self):
        cover = minimum_disjoint_cover(intersection_matrix(3))
        assert len(cover) == 7
        assert verify_disjoint_cover(intersection_matrix(3), cover)


# ----------------------------------------------------------------------
# The budget-path contract (satellite bugfix)
# ----------------------------------------------------------------------


def _matrix_needing_search() -> list[list[int]]:
    """A matrix whose root bounds provably leave a gap (search runs)."""
    rng = random.Random(7003)
    while True:
        entries = random_entries(rng, max_side=7, density=0.55)
        result = solve_cover(entries)
        if result.nodes_expanded > 0:
            return entries


class TestBudgetContract:
    def test_tiny_budget_payload_invariants(self):
        entries = _matrix_needing_search()
        pm = PackedMatrix.from_entries(entries)
        with pytest.raises(CoverBudgetExceeded) as info:
            solve_cover(pm, node_budget=1)
        err = info.value
        assert err.nodes_expanded == 1  # accurate, not off by one
        assert err.verified  # best_cover re-checked before attach
        assert err.uncovered_cells == 0  # the incumbent is a full cover
        assert verify_disjoint_cover(pm, err.best_cover)  # disjoint rects

    def test_zero_budget_raises_before_any_search(self):
        pm = PackedMatrix.from_comm(intersection_matrix(3))
        with pytest.raises(CoverBudgetExceeded) as info:
            solve_cover(pm, node_budget=0)
        err = info.value
        assert err.nodes_expanded == 0
        assert err.verified and err.uncovered_cells == 0
        assert verify_disjoint_cover(pm, err.best_cover)

    def test_cover_mode_budget_payload_verifies(self):
        pm = PackedMatrix.from_comm(intersection_matrix(3))
        with pytest.raises(CoverBudgetExceeded) as info:
            solve_cover(pm, mode="cover", node_budget=0)
        err = info.value
        assert err.verified and err.uncovered_cells == 0
        assert verify_overlapping_cover(pm.to_comm(), err.best_cover)

    @pytest.mark.parametrize("budget", [1, 2, 100, 5000])
    def test_rectangles_count_against_the_budget(self, budget):
        # The crown's root holds 2^22 maximal rectangles: the budget must
        # stop the enumeration, and nodes_expanded still counts the one
        # search() entry, not the units spent.
        with pytest.raises(CoverBudgetExceeded) as info:
            solve_cover(crown(24), node_budget=budget)
        err = info.value
        assert err.nodes_expanded == 1
        assert err.verified and err.uncovered_cells == 0
        assert verify_disjoint_cover(PackedMatrix.from_entries(crown(24)), err.best_cover)

    @pytest.mark.parametrize("budget", [5, 100, 5000])
    def test_budget_spent_in_a_deeper_enumeration_counts_its_nodes(self, budget):
        # Behind a 2x2 identity block the two identity cells (one
        # rectangle each) are branched on first; the third node's
        # enumeration, in the crown, overflows.
        entries = [[1, 0] + [0] * 24, [0, 1] + [0] * 24]
        entries += [[0, 0] + row for row in crown(24)]
        with pytest.raises(CoverBudgetExceeded) as info:
            solve_cover(entries, node_budget=budget)
        assert info.value.nodes_expanded == 3
        assert info.value.verified

    def test_exception_defaults_stay_backwards_compatible(self):
        err = CoverBudgetExceeded("x", best_cover=[], nodes_expanded=3)
        assert err.verified is False
        assert err.uncovered_cells is None


# ----------------------------------------------------------------------
# The bound machinery on its own
# ----------------------------------------------------------------------


class TestBounds:
    def test_fractional_cover_bound_known_values(self):
        assert fractional_cover_bound([[1, 0], [0, 1]]) == 2
        assert fractional_cover_bound([[1, 1], [1, 1]]) == 1
        assert fractional_cover_bound([[0, 0], [0, 0]]) == 0
        # 2x2 identity plus an extra overlapping row keeps the LP exact.
        assert fractional_cover_bound([[1, 0], [0, 1], [1, 1]]) == 2

    def test_fractional_bound_never_exceeds_the_optimum(self):
        rng = random.Random(7004)
        for _ in range(15):
            entries = random_entries(rng, max_side=5)
            lp = fractional_cover_bound(entries)
            if lp is None:
                continue
            assert lp <= solve_cover(entries, mode="cover").size
            assert lp <= solve_cover(entries).size

    def test_maximum_fooling_bound_vs_greedy(self):
        # The exact maximum can only improve on the greedy scan, and
        # stays a lower bound on both cover numbers.
        rng = random.Random(7005)
        from repro.comm.fooling import greedy_fooling_set

        for _ in range(15):
            entries = random_entries(rng, max_side=5)
            pm = PackedMatrix.from_entries(entries)
            exact = maximum_fooling_bound(pm)
            assert exact >= len(greedy_fooling_set(pm))
            assert exact <= solve_cover(pm, mode="cover").size

    def test_all_maximal_rectangles_complete(self):
        # Every maximal rectangle of a small matrix, cross-checked
        # against brute force over all row subsets.
        entries = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        got = {
            (tuple(sorted(r)), tuple(sorted(c)))
            for r, c in all_maximal_rectangles(entries)
        }
        n, m = 3, 3
        brute = set()
        for rows_mask in range(1, 1 << n):
            rows = [i for i in range(n) if rows_mask >> i & 1]
            cols = [
                j for j in range(m) if all(entries[i][j] for i in rows)
            ]
            if not cols:
                continue
            closed_rows = [
                i for i in range(n) if all(entries[i][j] for j in cols)
            ]
            brute.add((tuple(closed_rows), tuple(cols)))
        assert got == brute

    def test_rank_bounds_absent_in_cover_mode(self):
        result = solve_cover("intersection:3", mode="cover")
        assert "rank_gf2" not in result.bounds
        assert "rank_q" not in result.bounds


# ----------------------------------------------------------------------
# Specs, modes, validation
# ----------------------------------------------------------------------


class TestSpecsAndValidation:
    def test_matrix_from_spec_families(self):
        assert matrix_from_spec("intersection:3").shape == (8, 8)
        assert matrix_from_spec("equality:2").count_ones() == 4
        assert matrix_from_spec("disjointness:2").shape == (4, 4)

    def test_matrix_from_spec_nested_tuples(self):
        # The engine canonicalises list params into nested tuples.
        pm = matrix_from_spec(((1, 0), (0, 1)))
        assert pm.shape == (2, 2) and pm.count_ones() == 2

    def test_matrix_from_spec_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown matrix spec"):
            matrix_from_spec("parity:3")
        with pytest.raises(ValueError, match="not an integer"):
            matrix_from_spec("intersection:large")
        with pytest.raises(ValueError, match="unknown matrix spec"):
            matrix_from_spec("intersection")

    def test_solve_cover_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            solve_cover([[1]], mode="partition")

    def test_allow_rows_rejects_out_of_range_cells(self):
        # Satellite bugfix: out-of-range rows used to be silently
        # dropped and negative columns crashed with an unrelated error.
        from repro.comm import maximal_rectangles_at

        matrix = intersection_matrix(2)
        with pytest.raises(ValueError, match=r"\(9, 0\)"):
            maximal_rectangles_at(matrix, (0, 0), frozenset({(0, 0), (9, 0)}))
        with pytest.raises(ValueError, match=r"\(0, -2\)"):
            maximal_rectangles_at(matrix, (0, 0), frozenset({(0, 0), (0, -2)}))
        with pytest.raises(ValueError, match=r"\(0, 99\)"):
            maximal_rectangles_at(matrix, (0, 0), frozenset({(0, 0), (0, 99)}))

    def test_no_maximal_rectangle_through_a_cell_outside_allowed(self):
        from repro.comm import maximal_rectangles_at

        pm = PackedMatrix.from_entries([[0, 1], [1, 1]])
        ones = frozenset(pm.ones())
        assert maximal_rectangles_at(pm, (0, 0), ones) == []  # a 0-entry
        assert maximal_rectangles_at(pm, (1, 0), ones - {(1, 0)}) == []
        assert sorted(
            (sorted(rows), sorted(cols))
            for rows, cols in maximal_rectangles_at(pm, (1, 1), ones)
        ) == [([0, 1], [1]), ([1], [0, 1])]


# ----------------------------------------------------------------------
# Bit-exactness across backends
# ----------------------------------------------------------------------


class TestBackends:
    def test_results_bit_exact_across_backends(self):
        rng = random.Random(7006)
        cases = [random_entries(rng, max_side=5) for _ in range(5)]
        cases.append("intersection:4")
        for case in cases:
            for mode in ("disjoint", "cover"):
                payloads = []
                for name in available_backends():
                    with use_backend(name):
                        payloads.append(solve_cover(case, mode=mode).to_json())
                assert all(p == payloads[0] for p in payloads[1:]), case

    def test_frontier_bit_exact_across_backends(self):
        payloads = []
        for name in available_backends():
            with use_backend(name):
                payloads.append(solve_cover("intersection:5").to_json())
        assert all(p == payloads[0] for p in payloads[1:])
        assert payloads[0]["size"] == 31 and payloads[0]["optimal"]


# ----------------------------------------------------------------------
# The engine job family
# ----------------------------------------------------------------------


class TestJobsAndBench:
    def test_cover_solve_job_named_family(self):
        from repro.engine import Engine

        engine = Engine(cache=None)
        payload = engine.run_one("comm.cover.solve", {"matrix": "intersection:5"})
        assert payload["size"] == 31
        assert payload["optimal"] is True
        assert payload["mode"] == "disjoint"

    def test_cover_solve_job_arbitrary_matrix_and_modes(self):
        from repro.engine import Engine

        engine = Engine(cache=None)
        matrix = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
        disjoint = engine.run_one("comm.cover.solve", {"matrix": matrix})
        overlapping = engine.run_one(
            "comm.cover.solve", {"matrix": matrix, "mode": "cover"}
        )
        assert disjoint["mode"] == "disjoint"
        assert overlapping["mode"] == "cover"
        assert overlapping["size"] <= disjoint["size"]
        assert disjoint["size"] == exhaustive_minimum_cover(matrix, True)
        assert overlapping["size"] == exhaustive_minimum_cover(matrix, False)

    def test_cover_result_to_json_round_trips_through_json(self):
        import json

        result = solve_cover("intersection:3")
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["size"] == 7
        assert isinstance(result, CoverResult)
