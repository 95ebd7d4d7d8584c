"""The assembled lower bounds: Theorem 17, Proposition 16, Theorem 12.

Everything is exact integer arithmetic.  The certificate for a given
``n`` carries every quantity the proof chain touches:

* ``margin = |A ∩ L_n| - |B ∩ L_n| = 12^m - 2^{3m}`` (Lemma 18),
* per-rectangle discrepancy caps ``2^{3m}`` (Lemma 19, fixed ``[1, n]``
  partition) and ``2^{10m/3}`` (Lemma 23, any neat balanced partition),
* the Lemma 21 neat-split factor ``2^8`` and the spare-element factor
  ``2^6`` for ``n`` not divisible by four (proof of Proposition 16),
* the cover-size lower bound ``ℓ ≥ margin / (256 · 2^{10m/3})``,
* the resulting uCFG size bounds via Proposition 7
  (``ℓ ≤ 2n · |G_CNF|``) and the CNF conversion (``|G_CNF| ≤ |G|²``).

Comparisons involving the irrational ``2^{10m/3}`` are done by cubing,
never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.core.discrepancy import lemma18_margin, lemma19_bound
from repro.errors import CertificateError, require_int

__all__ = [
    "LowerBoundCertificate",
    "fixed_partition_cover_lower_bound",
    "multipartition_cover_lower_bound",
    "ucfg_cnf_size_lower_bound",
    "ucfg_size_lower_bound",
    "certificate",
    "verify_discrepancy_caps",
]

#: Lemma 21: each balanced ordered rectangle splits into at most 2^8 neat ones.
NEAT_SPLIT_FACTOR = 256
#: Proposition 16's reduction for n not divisible by 4 costs a factor 2^6.
SPARE_ELEMENT_FACTOR = 64


def _ceil_div(numerator: int, denominator: int) -> int:
    """Exact ceiling division for non-negative integers."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def _icbrt_floor(x: int) -> int:
    """``⌊∛x⌋`` for ``x ≥ 1``, exactly.

    Newton's step ``y ↦ ⌊(2y + ⌊x / y²⌋) / 3⌋`` falls strictly while
    ``y > ∛x`` and never below ``⌊∛x⌋`` (AM-GM), so descending from any
    overestimate ends on the floor root.  ``(⌊∛(x >> 3k)⌋ + 1) << k``
    overestimates it, and from the root of ``x``'s top half (precision
    doubling, as in ``math.isqrt``) only two or three full-width
    divisions remain.
    """
    k = x.bit_length() // 6
    if k:
        y = (_icbrt_floor(x >> 3 * k) + 1) << k
    else:
        y = 1 << -(-x.bit_length() // 3)
    while (z := (2 * y + x // (y * y)) // 3) < y:
        y = z
    return y


def _icbrt_ceil(x: int) -> int:
    """The least integer ``y ≥ 0`` with ``y³ ≥ x``."""
    if x <= 0:
        return 0
    y = _icbrt_floor(x)
    return y if y * y * y == x else y + 1


def _min_ell_against_cube_bound(margin: int, factor: int, m: int) -> int:
    """The least ``ℓ ≥ 0`` with ``factor · ℓ · 2^{10m/3} ≥ margin``.

    Obtained by cubing: ``(factor · ℓ)³ · 2^{10m} ≥ margin³``.  The left
    side is an integer cube, so the condition reads ``factor · ℓ ≥ y``
    for ``y`` the least integer with ``y³ ≥ ⌈margin³ / 2^{10m}⌉``, and
    ``ℓ = ⌈y / factor⌉``: one cube, a ceiling shift and an integer cube
    root on ``~0.75m``-bit numbers for the margin ``12^m - 8^m``.
    """
    if margin <= 0:
        return 0
    return _ceil_div(_icbrt_ceil(-(-(margin**3) >> (10 * m))), factor)


def _fixed_partition_bound(margin: int, m: int) -> int:
    """``max(1, ⌈margin / 2^{3m}⌉)``: a ceiling shift by Lemma 19's cap."""
    return max(1, -(-margin >> 3 * m))


def _cover_bound(margin: int, t: int, remainder: int) -> int:
    """Proposition 16's least ``ℓ ≥ 1`` for ``n = 4t + remainder``, ``t ≥ 1``."""
    ell = _min_ell_against_cube_bound(margin, NEAT_SPLIT_FACTOR, t)
    if remainder:
        ell = _ceil_div(ell, SPARE_ELEMENT_FACTOR)
    return max(1, ell)


def _cnf_bound(cover_bound: int, n: int) -> int:
    """Proposition 7: ``ℓ ≤ 2n · |G_CNF|``."""
    return max(1, _ceil_div(cover_bound, 2 * n))


def _general_bound(cnf_bound: int) -> int:
    """CNF conversion: ``|G_CNF| ≤ |G|²``, so ``⌈√cnf_bound⌉``."""
    root = math.isqrt(cnf_bound)
    return root if root * root == cnf_bound else root + 1


def fixed_partition_cover_lower_bound(n: int) -> int:
    """Theorem 17: every disjoint cover of ``L_n`` by ``[1, n]``-rectangles
    has at least this many rectangles (``n`` divisible by 4 required).

    The bound is ``⌈(12^m - 2^{3m}) / 2^{3m}⌉`` with ``m = n/4``, i.e.
    ``⌈1.5^m⌉ - 1``-ish — exponential in ``n``.
    """
    if n % 4:
        raise ValueError("Theorem 17 as computed here needs n divisible by 4")
    m = n // 4
    return _fixed_partition_bound(lemma18_margin(m), m)


def multipartition_cover_lower_bound(n: int) -> int:
    """Proposition 16: every disjoint cover of ``L_n`` by balanced ordered
    rectangles (arbitrary, per-rectangle partitions) has at least this size.

    For ``n = 4m``: ``ℓ ≥ (12^m - 2^{3m}) / (2^8 · 2^{10m/3})``.
    For other ``n``: the spare-element reduction to ``L_{4⌊n/4⌋}`` costs a
    further factor ``2^6``.  Always returns at least 1 (a nonempty language
    needs a rectangle); the bound becomes non-trivial once the exponential
    ``2^{m(log₂12 - 10/3)} ≈ 2^{0.252m}`` overtakes the constant ``2^8``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t, remainder = divmod(n, 4)
    if t == 0:
        return 1
    return _cover_bound(lemma18_margin(t), t, remainder)


def ucfg_cnf_size_lower_bound(n: int) -> int:
    """Theorem 12 for CNF grammars: ``|G| ≥ ℓ_min / (2n)`` via Prop. 7."""
    return _cnf_bound(multipartition_cover_lower_bound(n), n)


def _lemma18_threshold(margin: int, m: int) -> bool:
    """Exact check of ``margin > 2^{7m/2}`` (squared when ``7m`` is odd)."""
    if margin <= 0:
        return False
    if (7 * m) % 2 == 0:
        return margin > 2 ** (7 * m // 2)
    return margin**2 > 2 ** (7 * m)


def ucfg_size_lower_bound(n: int) -> int:
    """Theorem 12 for arbitrary uCFGs.

    An arbitrary grammar first passes through CNF conversion with
    ``|G_CNF| ≤ |G|²`` (Section 2), so the final bound is the ceiling of
    the square root of :func:`ucfg_cnf_size_lower_bound`.
    """
    return _general_bound(ucfg_cnf_size_lower_bound(n))


@dataclass(frozen=True, slots=True)
class LowerBoundCertificate:
    """Every exact quantity in the Theorem 12 proof chain for one ``n``."""

    n: int
    m: int
    remainder: int
    size_script_l: int
    size_a: int
    size_b: int
    size_b_minus_ln: int
    margin: int
    lemma18_threshold_holds: bool
    fixed_partition_bound: int
    cover_bound: int
    ucfg_cnf_bound: int
    ucfg_bound: int

    def to_dict(self) -> dict[str, int | bool | str]:
        """A JSON-ready view; huge integers become exact decimal strings."""
        from dataclasses import asdict

        def encode(value):
            if isinstance(value, bool) or not isinstance(value, int):
                return value
            if value.bit_length() > 64:
                import sys

                digits = sys.get_int_max_str_digits()
                if value.bit_length() > 3.3 * digits:
                    from repro.util.tables import approx_log2

                    return f"~2^{approx_log2(value):.1f}"
            return value

        return {key: encode(value) for key, value in asdict(self).items()}

    def to_key(self) -> str:
        """A canonical, process-stable serialization (for engine cache keys).

        >>> certificate(16).to_key() == certificate(16).to_key()
        True
        """
        from dataclasses import asdict

        from repro.util.canonical import canonical_encode

        return canonical_encode(("LowerBoundCertificate", asdict(self)))

    def verify(self) -> None:
        """Re-check the certificate; raise CertificateError if broken.

        Besides the Lemma 18 identities, every reported bound must be the
        least value ``≥ 1`` that its defining inequality admits: it holds
        at the bound and fails one step below.  The inequalities are
        evaluated directly (Proposition 16's by cubing), so this trusts
        neither :func:`_min_ell_against_cube_bound` nor the bound functions.
        """
        if (self.m, self.remainder) != (max(1, self.n // 4), self.n % 4):
            raise CertificateError("m and remainder do not match n")
        if self.size_a + self.size_b != self.size_script_l:
            raise CertificateError("|A| + |B| != |L|")
        if self.size_b - self.size_a != 2 ** (3 * self.m):
            raise CertificateError("|B| - |A| != 2^{3m}")
        if self.margin != self.size_a - (self.size_b - self.size_b_minus_ln):
            raise CertificateError("margin != |A| - |B ∩ L_n|")
        if self.lemma18_threshold_holds != _lemma18_threshold(self.margin, self.m):
            raise CertificateError("Lemma 18 threshold flag inconsistent")
        n, m, margin = self.n, self.m, self.margin
        # Proposition 16 for 4 ∤ n divides ℓ by the spare-element factor.
        spare = SPARE_ELEMENT_FACTOR if self.remainder else 1
        cube = margin**3
        bounds = (
            # Theorem 17: ℓ · 2^{3m} ≥ margin.
            ("fixed_partition_bound", self.fixed_partition_bound,
             lambda ell: ell * lemma19_bound(m) >= margin),
            # Proposition 16: (2^8 · ℓ)³ · 2^{10m} ≥ margin³.
            ("cover_bound", self.cover_bound,
             lambda ell: (NEAT_SPLIT_FACTOR * spare * ell) ** 3 << 10 * m >= cube),
            # Proposition 7: ℓ ≤ 2n · |G_CNF|.
            ("ucfg_cnf_bound", self.ucfg_cnf_bound,
             lambda size: 2 * n * size >= self.cover_bound),
            # CNF conversion: |G_CNF| ≤ |G|².
            ("ucfg_bound", self.ucfg_bound,
             lambda size: size * size >= self.ucfg_cnf_bound),
        )
        for name, value, holds in bounds:
            if value < 1 or not holds(value) or (value > 1 and holds(value - 1)):
                raise CertificateError(
                    f"{name} = {value} is not the least value >= 1 its inequality admits"
                )


def verify_discrepancy_caps(m: int, *, engine=None) -> dict:
    """Check the Lemma 19/23 discrepancy caps against the exact maxima.

    Dispatches the per-partition sweep as parallel, disk-cacheable
    ``discrepancy.partition`` jobs through :mod:`repro.engine` (one job
    per neat balanced partition, so re-runs and sibling sweeps share
    results), then verifies

    * every neat balanced partition's exact maximum is at most the
      Lemma 23 cap ``2^{10m/3}``, and
    * the split partition ``[1, n] | [n+1, 2n]`` is at most the sharper
      Lemma 19 cap ``2^{3m}``.

    Returns the combined ``discrepancy``-job payload augmented with the
    per-partition margins; raises :class:`CertificateError` on any
    violation.  Feasible for ``m ≤ 2`` (the sweep is exact).
    """
    # Imported lazily: repro.core must stay importable without the engine.
    from repro.core.discrepancy import lemma19_bound, lemma23_bound
    from repro.engine import Engine, Request

    own_engine = engine is None
    if own_engine:
        engine = Engine()
    result = engine.run_one("discrepancy", {"m": m})
    cap19, cap23 = lemma19_bound(m), lemma23_bound(m)
    n = 4 * m
    for row in result["partitions"]:
        if not row["exact"]:
            raise CertificateError(
                f"discrepancy sweep for m={m} returned a non-exact maximum"
            )
        if row["max_disc"] > cap23:
            raise CertificateError(
                f"Lemma 23 violated at partition [{row['lo']}, {row['hi']}]: "
                f"{row['max_disc']} > {cap23}"
            )
        if row["lo"] == 1 and row["hi"] == n and row["max_disc"] > cap19:
            raise CertificateError(
                f"Lemma 19 violated at the split partition: "
                f"{row['max_disc']} > {cap19}"
            )
    return {
        **result,
        "partitions": [
            {**row, "lemma23_margin": cap23 - row["max_disc"]}
            for row in result["partitions"]
        ],
    }


def certificate(n: int) -> LowerBoundCertificate:
    """Assemble and verify the full lower-bound certificate for ``L_n``.

    ``n`` must be an int: ``True`` or ``16.0`` hash equal to ``1`` and
    ``16``, so they are refused before the cache could answer for them.

    >>> cert = certificate(16)
    >>> cert.m, cert.margin
    (4, 16640)
    >>> cert.lemma18_threshold_holds
    True
    """
    require_int("n", n)
    return _certificate(n)


@lru_cache(maxsize=256)
def _certificate(n: int) -> LowerBoundCertificate:
    """Build :func:`certificate`'s result: each bound derived once from the
    one margin, then verified once before it is cached."""
    from repro.core.discrepancy import size_a, size_b, size_b_minus_ln, size_script_l

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    m, remainder = divmod(n, 4)
    m_eff = max(1, m)  # degenerate n < 4: quantities reported for m = 1
    margin = lemma18_margin(m_eff)
    cover_bound = _cover_bound(margin, m, remainder) if m else 1
    cnf_bound = _cnf_bound(cover_bound, n)
    cert = LowerBoundCertificate(
        n=n,
        m=m_eff,
        remainder=remainder,
        size_script_l=size_script_l(m_eff),
        size_a=size_a(m_eff),
        size_b=size_b(m_eff),
        size_b_minus_ln=size_b_minus_ln(m_eff),
        margin=margin,
        lemma18_threshold_holds=_lemma18_threshold(margin, m_eff),
        fixed_partition_bound=_fixed_partition_bound(margin, m_eff) if m else 1,
        cover_bound=cover_bound,
        ucfg_cnf_bound=cnf_bound,
        ucfg_bound=_general_bound(cnf_bound),
    )
    cert.verify()
    return cert
