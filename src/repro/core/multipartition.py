"""Exact minimum disjoint covers in the multi-partition model.

Proposition 16 lower-bounds the size of any disjoint cover of ``L_n`` by
balanced *ordered* rectangles where every rectangle may pick its own
partition — the multi-partition communication model [14] the paper
emphasises is "far less studied".  For machine-sized ``n`` this module
computes the quantity *exactly* by branch and bound: branch on the
smallest uncovered member of ``L_n``, over all inclusion-maximal balanced
rectangles (of every ordered balanced partition) that contain it and stay
inside the remaining target.

This is doubly exponential and meant for ``n ≤ 3``; it gives the ground
truth that the Theorem 12 certificate and the Proposition 7 extractions
are sandwiched against in benchmark E13.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.partitions import iter_ordered_balanced_partitions
from repro.core.setview import OrderedPartition, SetRectangle, word_to_zset, ZSet
from repro.errors import CoverBudgetExceeded, RectangleError
from repro.languages.ln import ln_words

__all__ = [
    "maximal_rectangles_within",
    "minimum_balanced_cover",
    "minimum_balanced_cover_of_ln",
    "verify_balanced_cover",
]


def _closure(
    members_by_s: dict[ZSet, set[ZSet]],
    members_by_t: dict[ZSet, set[ZSet]],
    seed_s: ZSet,
    seed_t: ZSet,
) -> tuple[frozenset[ZSet], frozenset[ZSet]] | None:
    """Grow (seed_s, seed_t) to the maximal rectangle S×T inside the target.

    Alternates closure: all t-projections compatible with every chosen s,
    then all s-projections compatible with every chosen t, until stable.
    Returns None when even the seed pair is not inside the target.
    """
    if seed_t not in members_by_s.get(seed_s, set()):
        return None
    s_set = {seed_s}
    t_set = set(members_by_s[seed_s])
    changed = True
    while changed:
        changed = False
        new_s = {
            s for s, ts in members_by_s.items() if t_set <= ts
        }
        if new_s != s_set:
            s_set = new_s
            changed = True
        common: set[ZSet] | None = None
        for s in s_set:
            ts = members_by_s[s]
            common = set(ts) if common is None else common & ts
        assert common is not None
        if common != t_set:
            t_set = common
            changed = True
    if seed_s not in s_set or seed_t not in t_set:
        # The closure dropped the seed; fall back to the seed row only.
        s_set = {seed_s}
        t_set = set(members_by_s[seed_s])
    return frozenset(s_set), frozenset(t_set)


def maximal_rectangles_within(
    target: frozenset[ZSet],
    n: int,
    containing: ZSet,
    partitions: Iterable[OrderedPartition] | None = None,
) -> list[SetRectangle]:
    """All maximal balanced ordered rectangles inside ``target`` through
    a given member, over every (or the given) balanced ordered partition.

    "Maximal" is per seed column: for each partition and each member the
    rectangle is grown by alternating row/column closure.  The list is
    deduplicated by member set.
    """
    partitions = (
        list(partitions)
        if partitions is not None
        else list(iter_ordered_balanced_partitions(n))
    )
    results: list[SetRectangle] = []
    seen: set[frozenset[ZSet]] = set()
    for partition in partitions:
        pi0, _pi1 = partition.parts
        members_by_s: dict[ZSet, set[ZSet]] = {}
        members_by_t: dict[ZSet, set[ZSet]] = {}
        for member in target:
            s_part, t_part = member & pi0, member - pi0
            members_by_s.setdefault(s_part, set()).add(t_part)
            members_by_t.setdefault(t_part, set()).add(s_part)
        seed_s, seed_t = containing & pi0, containing - pi0
        for t_seed in members_by_s.get(seed_s, set()):
            closure = _closure(members_by_s, members_by_t, seed_s, seed_t)
            if closure is None:
                continue
            s_set, t_set = closure
            rect = SetRectangle(partition, s_set, t_set)
            member_set = rect.member_set()
            if containing not in member_set or not member_set <= target:
                continue
            if member_set not in seen:
                seen.add(member_set)
                results.append(rect)
            break  # the closure is seed-column independent; one suffices
    # Also try per-column sub-rectangles: the seed row with each single
    # column and its closure — covers maximal rectangles the row-first
    # closure misses.
    for partition in partitions:
        pi0, _pi1 = partition.parts
        by_s: dict[ZSet, set[ZSet]] = {}
        for member in target:
            by_s.setdefault(member & pi0, set()).add(member - pi0)
        seed_s, seed_t = containing & pi0, containing - pi0
        if seed_t not in by_s.get(seed_s, set()):
            continue
        for t_subset_size in (1,):
            t_set = frozenset({seed_t})
            s_set = frozenset(s for s, ts in by_s.items() if t_set <= ts)
            rect = SetRectangle(partition, s_set, t_set)
            member_set = rect.member_set()
            if member_set <= target and member_set not in seen:
                seen.add(member_set)
                results.append(rect)
    return results


def minimum_balanced_cover(
    target: frozenset[ZSet], n: int, node_budget: int = 500_000
) -> list[SetRectangle]:
    """A smallest-found disjoint cover of ``target`` by balanced ordered
    rectangles (each free to choose its own partition).

    Branch and bound seeded with a greedy upper bound.  The branching is
    over closure-maximal rectangles through the seed member, which is a
    *restricted* candidate family: the result is always a valid disjoint
    cover and therefore an upper bound on the true minimum; it is
    certified optimal whenever it coincides with
    :func:`exhaustive_minimum_balanced_cover` (complete, tiny ``n`` only)
    or with a lower bound such as
    :func:`repro.core.lower_bound.multipartition_cover_lower_bound`.
    Raises :class:`~repro.errors.CoverBudgetExceeded` when the node budget
    is exhausted; its ``best_cover`` is the best valid disjoint cover found
    so far (at worst the greedy one), never a claimed optimum.
    """
    if not target:
        return []
    partitions = list(iter_ordered_balanced_partitions(n))

    def candidates(remaining: frozenset[ZSet], member: ZSet) -> list[SetRectangle]:
        rects = maximal_rectangles_within(remaining, n, member, partitions)
        if not rects:
            raise RectangleError(
                f"no balanced rectangle inside the target contains {sorted(member)}"
            )
        return sorted(rects, key=lambda r: -len(r.member_set()))

    # Greedy upper bound.
    greedy: list[SetRectangle] = []
    remaining = target
    while remaining:
        member = min(remaining, key=sorted)
        rect = candidates(remaining, member)[0]
        greedy.append(rect)
        remaining = remaining - rect.member_set()
    best = greedy
    nodes = 0

    def search(remaining: frozenset[ZSet], chosen: list[SetRectangle]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise CoverBudgetExceeded(
                "minimum_balanced_cover: node budget exhausted",
                best_cover=list(best),
                nodes_expanded=nodes,
            )
        if not remaining:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        member = min(remaining, key=sorted)
        for rect in candidates(remaining, member):
            chosen.append(rect)
            search(remaining - rect.member_set(), chosen)
            chosen.pop()

    search(target, [])
    return best


def minimum_balanced_cover_of_ln(n: int, node_budget: int = 500_000) -> list[SetRectangle]:
    """The exact multi-partition disjoint cover number of ``L_n`` (tiny n).

    >>> cover = minimum_balanced_cover_of_ln(1)
    >>> len(cover)
    1
    """
    target = frozenset(word_to_zset(w) for w in ln_words(n))
    return minimum_balanced_cover(target, n, node_budget)


def all_rectangles_within(target: frozenset[ZSet], n: int) -> list[SetRectangle]:
    """*Every* balanced ordered rectangle fully inside ``target``.

    Complete enumeration: per partition, all row-subset × column-subset
    combinations of the member projections are tried.  Cost is
    ``2^{rows} · 2^{cols}`` per partition, so this is guarded to tiny
    instances (raises ``ValueError`` beyond 2^24 combinations).
    """
    results: list[SetRectangle] = []
    seen: set[frozenset[ZSet]] = set()
    for partition in iter_ordered_balanced_partitions(n):
        pi0, _pi1 = partition.parts
        by_row: dict[ZSet, set[ZSet]] = {}
        for member in target:
            by_row.setdefault(member & pi0, set()).add(member - pi0)
        rows = sorted(by_row, key=sorted)
        cols = sorted({c for cs in by_row.values() for c in cs}, key=sorted)
        if (1 << len(rows)) * (1 << len(cols)) > 1 << 24:
            raise ValueError(
                "all_rectangles_within: instance too large for complete enumeration"
            )
        for row_mask in range(1, 1 << len(rows)):
            row_sel = [rows[i] for i in range(len(rows)) if row_mask >> i & 1]
            # Columns must be compatible with every selected row.
            common = set(cols)
            for r in row_sel:
                common &= by_row[r]
            if not common:
                continue
            common_list = sorted(common, key=sorted)
            for col_mask in range(1, 1 << len(common_list)):
                col_sel = [
                    common_list[i]
                    for i in range(len(common_list))
                    if col_mask >> i & 1
                ]
                rect = SetRectangle(partition, row_sel, col_sel)
                members = rect.member_set()
                if members not in seen:
                    seen.add(members)
                    results.append(rect)
    return results


def exhaustive_minimum_balanced_cover(
    target: frozenset[ZSet], n: int
) -> list[SetRectangle]:
    """The *true* minimum disjoint balanced-rectangle cover, by complete
    search over :func:`all_rectangles_within` — tiny instances only.

    This certifies the restricted branch-and-bound of
    :func:`minimum_balanced_cover`; for ``L_2`` both give 3.
    """
    if not target:
        return []
    rectangles = all_rectangles_within(target, n)
    by_member: dict[ZSet, list[int]] = {member: [] for member in target}
    member_sets = [rect.member_set() for rect in rectangles]
    for index, members in enumerate(member_sets):
        for member in members:
            by_member[member].append(index)
    best: list[int] | None = None

    def search(remaining: frozenset[ZSet], chosen: list[int]) -> None:
        nonlocal best
        if not remaining:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
            return
        if best is not None and len(chosen) + 1 >= len(best):
            return
        seed = min(remaining, key=sorted)
        for index in by_member[seed]:
            members = member_sets[index]
            if members <= remaining:
                chosen.append(index)
                search(remaining - members, chosen)
                chosen.pop()

    search(target, [])
    assert best is not None  # every singleton member is itself a rectangle
    return [rectangles[i] for i in best]


def verify_balanced_cover(
    cover: Iterable[SetRectangle], target: frozenset[ZSet]
) -> bool:
    """Check that ``cover`` is a disjoint, balanced, exact cover of target."""
    union: set[ZSet] = set()
    total = 0
    for rect in cover:
        if not rect.is_balanced:
            return False
        members = rect.member_set()
        total += len(members)
        union |= members
    return union == set(target) and total == len(union)
