"""Tests for repro.core.multipartition: exact multi-partition covers."""

from __future__ import annotations

import pytest

from repro.core.lower_bound import multipartition_cover_lower_bound
from repro.core.multipartition import (
    maximal_rectangles_within,
    minimum_balanced_cover,
    minimum_balanced_cover_of_ln,
    verify_balanced_cover,
)
from repro.core.setview import word_to_zset
from repro.errors import CoverBudgetExceeded
from repro.languages.ln import ln_words


def _targets(n: int):
    return frozenset(word_to_zset(w) for w in ln_words(n))


class TestMaximalRectangles:
    def test_contain_the_seed(self):
        target = _targets(2)
        seed = min(target, key=sorted)
        for rect in maximal_rectangles_within(target, 2, seed):
            members = rect.member_set()
            assert seed in members
            assert members <= target

    def test_every_member_has_a_rectangle(self):
        target = _targets(2)
        for member in target:
            assert maximal_rectangles_within(target, 2, member)

    def test_rectangles_are_balanced(self):
        target = _targets(2)
        seed = min(target, key=sorted)
        for rect in maximal_rectangles_within(target, 2, seed):
            assert rect.is_balanced


class TestMinimumCover:
    def test_l1_single_rectangle(self):
        cover = minimum_balanced_cover_of_ln(1)
        assert len(cover) == 1
        assert verify_balanced_cover(cover, _targets(1))

    def test_l2_exact_cover(self):
        cover = minimum_balanced_cover_of_ln(2)
        assert verify_balanced_cover(cover, _targets(2))
        # Soundness against the certified bound and against Prop 7 output.
        assert len(cover) >= multipartition_cover_lower_bound(2)
        from repro.core.cover import balanced_rectangle_cover
        from repro.languages.unambiguous_grammar import example4_ucfg

        extracted = balanced_rectangle_cover(example4_ucfg(2))
        assert len(cover) <= extracted.n_rectangles

    def test_empty_target(self):
        assert minimum_balanced_cover(frozenset(), 2) == []

    def test_budget_exhaustion_raises(self):
        target = _targets(2)
        for budget in (0, 1):
            with pytest.raises(CoverBudgetExceeded) as info:
                minimum_balanced_cover(target, 2, node_budget=budget)
            assert info.value.nodes_expanded == budget + 1
            assert verify_balanced_cover(info.value.best_cover, target)

    def test_verify_rejects_overlap(self):
        cover = minimum_balanced_cover_of_ln(2)
        assert not verify_balanced_cover(cover + [cover[0]], _targets(2))

    def test_verify_rejects_partial(self):
        cover = minimum_balanced_cover_of_ln(2)
        assert not verify_balanced_cover(cover[:-1], _targets(2))


class TestExhaustive:
    def test_l2_true_optimum_is_three(self):
        from repro.core.multipartition import exhaustive_minimum_balanced_cover

        target = _targets(2)
        cover = exhaustive_minimum_balanced_cover(target, 2)
        assert len(cover) == 3
        assert verify_balanced_cover(cover, target)

    def test_restricted_bnb_matches_exhaustive_at_n2(self):
        from repro.core.multipartition import exhaustive_minimum_balanced_cover

        target = _targets(2)
        assert len(minimum_balanced_cover(target, 2)) == len(
            exhaustive_minimum_balanced_cover(target, 2)
        )

    def test_all_rectangles_within_subsets(self):
        from repro.core.multipartition import all_rectangles_within

        target = _targets(2)
        rects = all_rectangles_within(target, 2)
        assert rects
        for rect in rects:
            assert rect.member_set() <= target
            assert rect.is_balanced

    def test_empty_target(self):
        from repro.core.multipartition import exhaustive_minimum_balanced_cover

        assert exhaustive_minimum_balanced_cover(frozenset(), 2) == []
