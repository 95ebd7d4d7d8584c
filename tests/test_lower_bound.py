"""Tests for repro.core.lower_bound: Theorem 17/12 certificates."""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest

from repro.core import lower_bound
from repro.core.discrepancy import lemma18_margin, lemma19_bound
from repro.core.lower_bound import (
    NEAT_SPLIT_FACTOR,
    LowerBoundCertificate,
    _icbrt_ceil,
    _min_ell_against_cube_bound,
    certificate,
    fixed_partition_cover_lower_bound,
    multipartition_cover_lower_bound,
    ucfg_cnf_size_lower_bound,
    ucfg_size_lower_bound,
)
from repro.cli import main
from repro.engine import Engine
from repro.errors import CertificateError, JobFailedError, ReproError
from tests.legacy_lower_bound import legacy_min_ell_against_cube_bound

#: The frozen bisection, memoised: the certificate oracle asks it for the
#: same ``(margin, 2^8, m)`` up to twelve times per ``m`` (three bounds
#: for each of four ``n``), and the grid asks for many of them again.
frozen_min_ell = functools.lru_cache(maxsize=None)(legacy_min_ell_against_cube_bound)

#: The bound fields ``LowerBoundCertificate.verify`` re-derives.
BOUND_FIELDS = ("fixed_partition_bound", "cover_bound", "ucfg_cnf_bound", "ucfg_bound")


class TestFixedPartitionBound:
    def test_requires_divisible_by_four(self):
        with pytest.raises(ValueError):
            fixed_partition_cover_lower_bound(6)

    def test_value_is_ceil_margin_over_bound(self):
        for n in (4, 8, 16, 40):
            m = n // 4
            expected = -(-lemma18_margin(m) // lemma19_bound(m))
            assert fixed_partition_cover_lower_bound(n) == max(1, expected)

    def test_exponential_growth(self):
        # The bound behaves like 1.5^m: it should at least double every
        # couple of doublings of n.
        values = [fixed_partition_cover_lower_bound(n) for n in (8, 16, 32, 64, 128)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 2**10

    def test_nontrivial_from_n8(self):
        assert fixed_partition_cover_lower_bound(4) == 1
        assert fixed_partition_cover_lower_bound(8) >= 2


class TestMultipartitionBound:
    def test_always_at_least_one(self):
        for n in range(1, 40):
            assert multipartition_cover_lower_bound(n) >= 1

    def test_monotone_in_blocks_eventually(self):
        values = [multipartition_cover_lower_bound(n) for n in (128, 256, 512, 1024)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_exponential_asymptotics(self):
        # ℓ ≥ 2^{m(log2 12 - 10/3)} / 2^8 with m = n/4: check a deep value.
        import math

        n = 4096
        m = n // 4
        expected_exponent = m * (math.log2(12) - 10 / 3) - 8
        value = multipartition_cover_lower_bound(n)
        assert value > 2 ** int(expected_exponent - 2)

    def test_spare_element_reduction(self):
        # Non-multiples of 4 lose at most the 2^6 factor vs the rounded-down n.
        for n in (1026, 1027):
            down = multipartition_cover_lower_bound(1024)
            assert multipartition_cover_lower_bound(n) >= max(1, -(-down // 64))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            multipartition_cover_lower_bound(0)


class TestUcfgBounds:
    def test_cnf_bound_relates_to_cover_bound(self):
        for n in (128, 512, 2048):
            cover = multipartition_cover_lower_bound(n)
            assert ucfg_cnf_size_lower_bound(n) == max(1, -(-cover // (2 * n)))

    def test_general_bound_is_sqrt(self):
        import math

        for n in (512, 2048):
            cnf_bound = ucfg_cnf_size_lower_bound(n)
            general = ucfg_size_lower_bound(n)
            assert general >= math.isqrt(cnf_bound)
            assert (general - 1) ** 2 < cnf_bound <= general * general or cnf_bound == general

    def test_bound_exceeds_small_grammar_size_eventually(self):
        # Theorem 1: the uCFG bound dwarfs the Θ(log n) CFG size.
        from repro.languages.small_grammar import small_ln_grammar

        n = 2048
        assert ucfg_cnf_size_lower_bound(n) > small_ln_grammar(n).size

    def test_bound_below_construction_size(self):
        # Soundness vs the corrected Example 4 construction: the lower
        # bound can never exceed the size of an actual uCFG for L_n.
        from repro.languages.unambiguous_grammar import example4_size

        for n in (16, 64, 256, 1024):
            assert ucfg_size_lower_bound(n) <= example4_size(n)


class TestCertificate:
    def test_verify_passes(self):
        # n < 4 reports m = 1 and the trivial bounds; 4 ∤ n undoes the
        # spare-element factor.
        for n in (1, 2, 3, 4, 5, 7, 16, 17, 100, 4097, 4098, 4099):
            certificate(n).verify()

    def test_values_n16(self):
        cert = certificate(16)
        assert cert.m == 4
        assert cert.margin == 12**4 - 2**12
        assert cert.lemma18_threshold_holds

    def test_threshold_false_below_m4(self):
        assert not certificate(12).lemma18_threshold_holds
        assert certificate(16).lemma18_threshold_holds

    def test_broken_certificate_detected(self):
        cert = certificate(16)
        broken = LowerBoundCertificate(
            n=cert.n,
            m=cert.m,
            remainder=cert.remainder,
            size_script_l=cert.size_script_l,
            size_a=cert.size_a + 1,
            size_b=cert.size_b,
            size_b_minus_ln=cert.size_b_minus_ln,
            margin=cert.margin,
            lemma18_threshold_holds=cert.lemma18_threshold_holds,
            fixed_partition_bound=cert.fixed_partition_bound,
            cover_bound=cert.cover_bound,
            ucfg_cnf_bound=cert.ucfg_cnf_bound,
            ucfg_bound=cert.ucfg_bound,
        )
        with pytest.raises(CertificateError):
            broken.verify()
        # A cover bound one above the least ℓ still satisfies Proposition
        # 16's inequality; only the check one step below rejects it.
        with pytest.raises(CertificateError, match="cover_bound"):
            replace(cert, cover_bound=cert.cover_bound + 1).verify()

    @pytest.mark.parametrize("n", [1, 3, 16, 17, 1024, 4099])
    def test_tampered_bounds_detected(self, n):
        cert = certificate(n)
        for field in BOUND_FIELDS:
            for delta in (-1, 1):
                broken = replace(cert, **{field: getattr(cert, field) + delta})
                with pytest.raises(CertificateError, match=field):
                    broken.verify()

    def test_tampered_shape_detected(self):
        # At n = 16 the cover bound is 1 with or without the spare factor,
        # so only the shape check catches a wrong remainder.
        cert = certificate(16)
        for broken in (replace(cert, remainder=1), replace(cert, m=3)):
            with pytest.raises(CertificateError):
                broken.verify()

    def test_certificate_consistent_with_bound_functions(self):
        cert = certificate(64)
        assert cert.cover_bound == multipartition_cover_lower_bound(64)
        assert cert.ucfg_cnf_bound == ucfg_cnf_size_lower_bound(64)
        assert cert.ucfg_bound == ucfg_size_lower_bound(64)


NOT_INTS = pytest.mark.parametrize("bad", [True, 16.0, "16"], ids=["bool", "float", "str"])


class TestCertificateInput:
    @NOT_INTS
    def test_certificate_requires_an_int(self, bad):
        # With certificate(1) and certificate(16) cached, neither may
        # answer for a value that hashes equal to its n.
        certificate(1)
        certificate(16)
        with pytest.raises(ReproError, match="n must be an int"):
            certificate(bad)

    @NOT_INTS
    @pytest.mark.parametrize("job", ["certificate", "sizes.row"])
    def test_jobs_require_an_int(self, job, bad):
        with pytest.raises(JobFailedError) as info:
            Engine(cache=None).run_one(job, {"n": bad})
        cause = info.value.__cause__
        assert isinstance(cause, ReproError) and "n must be an int" in str(cause)

    def test_sizes_row_at_n1(self):
        row = Engine(cache=None).run_one("sizes.row", {"n": 1})
        assert row["n"] == 1 and row["cfg_per_log2"] == "-"

    def test_each_certificate_is_verified_once(self, monkeypatch):
        verified = []
        verify = LowerBoundCertificate.verify

        def counting_verify(cert):
            verified.append(cert.n)
            verify(cert)

        monkeypatch.setattr(LowerBoundCertificate, "verify", counting_verify)
        # An empty cache, so the certificate is built inside this test.
        monkeypatch.setattr(
            lower_bound,
            "_certificate",
            functools.lru_cache(maxsize=256)(lower_bound._certificate.__wrapped__),
        )
        n = 4099
        certificate(n)
        certificate(n)
        Engine(cache=None).run_one("certificate", {"n": n})
        assert main(["certificate", str(n)]) == 0
        assert verified == [n]


class TestCrossValidationWithEnumeration:
    def test_fixed_partition_bound_sound_for_m1(self):
        # For m = 1 the exact maximum rectangle discrepancy is 8 = 2^{3m}
        # (tight), margin = 4, so no disjoint [1,n]-cover smaller than
        # ceil(4/8) = 1 exists: bound must not exceed any achievable cover.
        from repro.core.cover import balanced_rectangle_cover
        from repro.languages.unambiguous_grammar import example4_ucfg

        n = 4
        cover = balanced_rectangle_cover(example4_ucfg(n))
        assert cover.disjoint
        assert fixed_partition_cover_lower_bound(n) <= cover.n_rectangles

    def test_multipartition_bound_sound_for_small_n(self):
        from repro.core.cover import balanced_rectangle_cover
        from repro.languages.unambiguous_grammar import example4_ucfg

        for n in (2, 3, 4):
            cover = balanced_rectangle_cover(example4_ucfg(n))
            assert multipartition_cover_lower_bound(n) <= cover.n_rectangles


def _oracle_certificate_keys(ns, monkeypatch) -> dict[int, tuple]:
    """Per ``n``: the certificate key and the three bounds, computed by the
    certificate's assembly (uncached) around the frozen bisection."""
    out = {}
    with monkeypatch.context() as patch:
        patch.setattr(lower_bound, "_min_ell_against_cube_bound", frozen_min_ell)
        for n in ns:
            cert = lower_bound._certificate.__wrapped__(n)
            out[n] = (cert.to_key(), cert.cover_bound, cert.ucfg_cnf_bound, cert.ucfg_bound)
    return out


class TestClosedFormAgainstFrozenBisection:
    def test_grid(self):
        ms = list(range(401)) + list(range(401, 1401, 7))
        for m in ms:
            margin = lemma18_margin(m)
            for factor in (1, 3, 7, NEAT_SPLIT_FACTOR):
                assert _min_ell_against_cube_bound(
                    margin, factor, m
                ) == frozen_min_ell(margin, factor, m), (m, factor)

    def test_seeded_random_triples(self):
        rng = random.Random(17)
        for _ in range(400):
            m = rng.randrange(300)
            margin = rng.randrange(-4, 1 << rng.randrange(1, 1200))
            factor = rng.randrange(1, 1000)
            assert _min_ell_against_cube_bound(
                margin, factor, m
            ) == legacy_min_ell_against_cube_bound(margin, factor, m), (margin, factor, m)

    def test_certificates_and_bounds_match_oracle(self, monkeypatch):
        ns = list(range(1, 1501)) + list(range(1501, 6001, 37))
        oracle = _oracle_certificate_keys(ns, monkeypatch)
        for n in ns:
            assert (
                certificate(n).to_key(),
                multipartition_cover_lower_bound(n),
                ucfg_cnf_size_lower_bound(n),
                ucfg_size_lower_bound(n),
            ) == oracle[n], n


class TestIntegerCubeRoot:
    def test_brute_force_below_1e5(self):
        y = 0
        for x in range(100_000):
            while y**3 < x:
                y += 1
            assert _icbrt_ceil(x) == y, x

    def test_around_large_cubes(self):
        rng = random.Random(23)
        for _ in range(300):
            k = rng.randrange(2, 1 << rng.randrange(2, 4001))
            assert _icbrt_ceil(k**3 - 1) == k
            assert _icbrt_ceil(k**3) == k
            assert _icbrt_ceil(k**3 + 1) == k + 1

    def test_non_positive(self):
        assert _icbrt_ceil(0) == 0
        assert _icbrt_ceil(-27) == 0
