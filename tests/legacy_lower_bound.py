"""Frozen search and summation bodies, kept as test oracles.

``_min_ell_against_cube_bound`` in ``src/repro/core/lower_bound.py``
used to find Proposition 16's least ``ℓ`` by doubling and then bisection
on the cubed inequality, and ``example4_size`` in
``src/repro/languages/unambiguous_grammar.py`` used to sum its ``n``-term
series.  Both are closed forms now.  The old bodies are kept verbatim
(modulo the names) so the differential tests can assert that the closed
forms return the same integers.  Do not "improve" them: their value is
that they do not change.

(Same pattern as ``tests/legacy_extract.py`` and the other
``tests/legacy_*.py`` oracles.)
"""

from __future__ import annotations

__all__ = ["legacy_example4_size", "legacy_min_ell_against_cube_bound"]


def legacy_min_ell_against_cube_bound(margin: int, factor: int, m: int) -> int:
    """The least ``ℓ ≥ 0`` with ``factor · ℓ · 2^{10m/3} ≥ margin``.

    Obtained by cubing: ``(factor · ℓ)³ · 2^{10m} ≥ margin³``.
    """
    if margin <= 0:
        return 0
    target = margin**3
    power = 2 ** (10 * m)
    low, high = 0, 1
    while (factor * high) ** 3 * power < target:
        high *= 2
    while low < high:
        mid = (low + high) // 2
        if (factor * mid) ** 3 * power >= target:
            high = mid
        else:
            low = mid + 1
    return low


def legacy_example4_size(n: int) -> int:
    """Exact size of the corrected grammar, summed term by term."""
    if n < 1:
        raise ValueError(f"example4_size is defined for n >= 1, got {n}")
    size = 4 * n - 2 if n > 1 else 2
    size += sum((2**j) * j for j in range(1, n))
    for i in range(1, n + 1):
        body = 6 if i < n else 4
        if i == 1:
            body -= 2
        size += (3 ** (i - 1)) * body
    size += n
    return size
