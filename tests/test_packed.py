"""The bit-parallel comm substrate against its frozen pre-packed oracles.

Every hot algorithm that moved onto :class:`repro.comm.packed.PackedMatrix`
(rank, fooling sets, rectangle covers, the bilinear discrepancy sweep) is
property-tested here against the verbatim implementations it replaced,
preserved in :mod:`tests.legacy_comm`, on seeded random 0/1 matrices up
to 12×12 — plus the structured :class:`CoverBudgetExceeded` contract and
the benchmark/engine plumbing built on top.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.covers import (
    greedy_disjoint_cover,
    maximal_rectangles_at,
    minimum_disjoint_cover,
    verify_disjoint_cover,
)
from repro.comm.fooling import fooling_set_bound, greedy_fooling_set, is_fooling_set
from repro.comm.matrix import CommMatrix, intersection_matrix, matrix_from_function
from repro.comm.packed import PackedMatrix, as_packed, cells_of_rect, iter_bits, mask_of
from repro.comm.rank import rank_over_gf2, rank_over_q
from repro.core.discrepancy import (
    discrepancy,
    max_bilinear_form,
    max_discrepancy_over_partition,
    random_set_rectangle,
    sign_matrix_for_partition,
)
from repro.core.partitions import iter_neat_balanced_partitions
from repro.errors import CoverBudgetExceeded
from tests.legacy_comm import (
    legacy_greedy_disjoint_cover,
    legacy_greedy_fooling_set,
    legacy_is_fooling_set,
    legacy_max_bilinear_form_exact,
    legacy_maximal_rectangles_at,
    legacy_minimum_disjoint_cover,
    legacy_rank_over_gf2,
    legacy_rank_over_q,
)


def random_matrix(rng: random.Random, max_side: int = 12) -> CommMatrix:
    n_rows = rng.randint(1, max_side)
    n_cols = rng.randint(1, max_side)
    entries = [[rng.randint(0, 1) for _ in range(n_cols)] for _ in range(n_rows)]
    return CommMatrix(list(range(n_rows)), list(range(n_cols)), entries)


class TestPackedMatrix:
    def test_round_trip_preserves_everything(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng)
            pm = PackedMatrix.from_comm(m)
            back = pm.to_comm()
            assert back.entries == m.entries
            assert back.row_labels == m.row_labels
            assert back.col_labels == m.col_labels
            assert pm.shape == m.shape
            assert pm.count_ones() == m.count_ones()
            assert list(pm.ones()) == list(m.ones())

    def test_getitem_and_column_masks_consistent(self):
        rng = random.Random(8)
        m = random_matrix(rng)
        pm = PackedMatrix.from_comm(m)
        for i in range(pm.n_rows):
            for j in range(pm.n_cols):
                assert pm[i, j] == m[i, j]
                assert (pm.col_masks[j] >> i) & 1 == m[i, j]

    def test_transpose_is_involutive(self):
        pm = PackedMatrix.from_comm(intersection_matrix(3))
        assert pm.transpose().transpose() == pm
        assert pm.transpose().row_masks == pm.col_masks

    def test_as_packed_is_identity_on_packed(self):
        pm = PackedMatrix.from_comm(intersection_matrix(2))
        assert as_packed(pm) is pm

    def test_to_key_is_stable_and_label_blind(self):
        a = PackedMatrix.from_entries([[1, 0], [0, 1]], row_labels=["r0", "r1"])
        b = PackedMatrix.from_entries([[1, 0], [0, 1]])
        c = PackedMatrix.from_entries([[1, 1], [0, 1]])
        assert a.to_key() == b.to_key()
        assert a.to_key() != c.to_key()

    def test_mask_helpers(self):
        assert mask_of([0, 3]) == 0b1001
        assert list(iter_bits(0b1001)) == [0, 3]
        # 2x3 all-ones rectangle on rows {0,2}, cols {1,2} of a 3-wide grid.
        cells = cells_of_rect(0b101, 0b110, 3)
        assert sorted(divmod(b, 3) for b in iter_bits(cells)) == [
            (0, 1),
            (0, 2),
            (2, 1),
            (2, 2),
        ]

    def test_from_bitrows_validates(self):
        m = CommMatrix.from_bitrows(["a", "b"], ["x", "y"], [0b10, 0b01])
        assert m.entries == [[0, 1], [1, 0]]
        with pytest.raises(ValueError):
            CommMatrix.from_bitrows(["a"], ["x"], [0b10])  # mask too wide
        with pytest.raises(ValueError):
            CommMatrix.from_bitrows(["a", "b"], ["x"], [0b1])  # row count

    def test_packed_rejects_out_of_range_masks(self):
        with pytest.raises(ValueError):
            PackedMatrix(1, 2, [0b100])
        with pytest.raises(ValueError):
            PackedMatrix(2, 2, [0b01])


class TestAgainstLegacyOracles:
    """Seeded random sweeps: packed must agree with the frozen originals."""

    def test_rank_over_q_and_gf2(self):
        rng = random.Random(100)
        for _ in range(60):
            m = random_matrix(rng)
            pm = PackedMatrix.from_comm(m)
            assert rank_over_q(m) == legacy_rank_over_q(m)
            assert rank_over_q(pm) == legacy_rank_over_q(m)
            assert rank_over_gf2(pm) == legacy_rank_over_gf2(m)

    def test_bareiss_on_general_integer_matrices(self):
        rng = random.Random(101)
        for _ in range(60):
            n_rows = rng.randint(1, 8)
            n_cols = rng.randint(1, 8)
            rows = [
                [rng.randint(-9, 9) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            assert rank_over_q(rows) == legacy_rank_over_q(rows)

    def test_fooling_sets(self):
        rng = random.Random(102)
        for _ in range(60):
            m = random_matrix(rng)
            chosen = greedy_fooling_set(m)
            assert chosen == legacy_greedy_fooling_set(m)
            assert fooling_set_bound(m) == len(chosen)
            assert is_fooling_set(m, chosen) and legacy_is_fooling_set(m, chosen)

    def test_is_fooling_set_agrees_on_arbitrary_entry_sets(self):
        rng = random.Random(103)
        for _ in range(60):
            m = random_matrix(rng, max_side=6)
            n_rows, n_cols = m.shape
            pairs = [
                (rng.randrange(n_rows), rng.randrange(n_cols))
                for _ in range(rng.randint(0, 5))
            ]
            assert is_fooling_set(m, pairs) == legacy_is_fooling_set(m, pairs)

    def test_greedy_covers_identical(self):
        rng = random.Random(104)
        for _ in range(60):
            m = random_matrix(rng)
            cover = greedy_disjoint_cover(m)
            assert cover == legacy_greedy_disjoint_cover(m)
            assert verify_disjoint_cover(m, cover)

    def test_maximal_rectangles_identical(self):
        # The same rectangle set at every one-cell; the list order was
        # never part of the contract.
        rng = random.Random(105)
        for _ in range(40):
            m = random_matrix(rng, max_side=7)
            allowed = frozenset(m.ones())
            for seed in sorted(allowed):
                got = maximal_rectangles_at(m, seed, allowed)
                assert len(got) == len(set(got))
                assert set(got) == set(legacy_maximal_rectangles_at(m, seed, allowed))

    def test_minimum_covers_same_size_and_valid(self):
        rng = random.Random(106)
        for _ in range(40):
            m = random_matrix(rng, max_side=6)
            cover = minimum_disjoint_cover(m)
            assert verify_disjoint_cover(m, cover)
            assert len(cover) == len(legacy_minimum_disjoint_cover(m))

    def test_max_bilinear_form_exact(self):
        rng = random.Random(107)
        for _ in range(60):
            n_rows = rng.randint(1, 6)
            n_cols = rng.randint(1, 6)
            lo, hi = rng.choice([(0, 1), (-1, 1), (-7, 5)])
            rows = [
                [rng.randint(lo, hi) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            value, exact = max_bilinear_form(rows)
            assert exact
            assert value == legacy_max_bilinear_form_exact(rows)

    def test_discrepancy_sweep_matches_legacy_and_caps_rectangles(self):
        rng = random.Random(108)
        m = 1
        for partition in iter_neat_balanced_partitions(m):
            matrix, _s0, _s1 = sign_matrix_for_partition(partition, m)
            value, exact = max_discrepancy_over_partition(partition, m)
            assert exact
            assert value == legacy_max_bilinear_form_exact(matrix)
            for _ in range(10):
                rect = random_set_rectangle(partition, m, rng)
                assert abs(discrepancy(rect, m)) <= value


class TestCoverBudgetExceeded:
    def test_carries_a_valid_partial_cover(self):
        m = intersection_matrix(3)
        with pytest.raises(CoverBudgetExceeded) as info:
            minimum_disjoint_cover(m, node_budget=0)
        err = info.value
        assert err.nodes_expanded == 0
        assert verify_disjoint_cover(m, err.best_cover)

    def test_best_so_far_improves_with_budget(self):
        rng = random.Random(109)
        m = random_matrix(rng, max_side=8)
        full = minimum_disjoint_cover(m)
        try:
            partial = minimum_disjoint_cover(m, node_budget=5)
        except CoverBudgetExceeded as err:
            partial = err.best_cover
            assert err.nodes_expanded <= 5
        assert verify_disjoint_cover(m, partial)
        assert len(full) <= len(partial)

    def test_is_a_rectangle_error(self):
        from repro.errors import RectangleError, ReproError

        err = CoverBudgetExceeded("x", best_cover=[], nodes_expanded=3)
        assert isinstance(err, RectangleError)
        assert isinstance(err, ReproError)
        assert err.best_cover == [] and err.nodes_expanded == 3


class TestBenchAndEngine:
    def test_discrepancy_job_fans_out_per_partition(self):
        from repro.engine import Engine

        engine = Engine(cache=None)
        result = engine.run_one("discrepancy", {"m": 1})
        expected = [(p.lo, p.hi) for p in iter_neat_balanced_partitions(1)]
        assert [(r["lo"], r["hi"]) for r in result["partitions"]] == expected
        assert all(r["exact"] for r in result["partitions"])
        assert all(
            r["max_disc"] <= result["lemma23_bound"] for r in result["partitions"]
        )

    def test_verify_discrepancy_caps(self):
        from repro.core.lower_bound import verify_discrepancy_caps
        from repro.engine import Engine

        out = verify_discrepancy_caps(1, engine=Engine(cache=None))
        assert all(row["lemma23_margin"] >= 0 for row in out["partitions"])


class TestPackedEntrypointsStillExact:
    """The packed fast paths must not bend known paper quantities."""

    def test_intersection_rank_formula(self):
        for p in (2, 3, 4):
            pm = PackedMatrix.from_comm(intersection_matrix(p))
            assert rank_over_q(pm) == 2**p - 1

    def test_matrix_from_function_fast_path(self):
        m = matrix_from_function([1, 2, 3], [2, 3], lambda x, y: x >= y)
        assert m.entries == [[0, 0], [1, 0], [1, 1]]
