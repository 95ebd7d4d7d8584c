"""Tests for the exception hierarchy and error-path behaviours."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    AutomatonError,
    CertificateError,
    GrammarError,
    InfiniteAmbiguityError,
    InfiniteLanguageError,
    LanguageTooLargeError,
    MixedLengthLanguageError,
    NotInChomskyNormalFormError,
    NotInLanguageError,
    NotUnambiguousError,
    PartitionError,
    RectangleError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GrammarError,
            NotInLanguageError,
            InfiniteLanguageError,
            LanguageTooLargeError,
            InfiniteAmbiguityError,
            NotUnambiguousError,
            NotInChomskyNormalFormError,
            MixedLengthLanguageError,
            AutomatonError,
            RectangleError,
            PartitionError,
            CertificateError,
        ],
    )
    def test_all_subclass_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_too_large_is_caught_as_infinite(self):
        # Callers that catch InfiniteLanguageError keep catching budget overruns.
        assert issubclass(LanguageTooLargeError, InfiniteLanguageError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise RectangleError("boom")

    def test_reexported_at_top_level(self):
        assert repro.GrammarError is GrammarError
        assert repro.ReproError is ReproError

    def test_all_in_top_level_all(self):
        for name in (
            "ReproError",
            "GrammarError",
            "RectangleError",
            "CertificateError",
        ):
            assert name in repro.__all__


class TestErrorPathsCarryDiagnosis:
    def test_grammar_error_names_symbol(self):
        from repro.grammars.cfg import CFG

        with pytest.raises(GrammarError, match="undeclared symbol"):
            CFG("ab", ["S"], [("S", ("Q",))], "S")

    def test_infinite_language_names_operation(self):
        from repro.grammars.cfg import grammar_from_mapping
        from repro.grammars.language import language

        g = grammar_from_mapping("ab", {"S": ["aS", "a"]}, "S")
        with pytest.raises(InfiniteLanguageError, match="finite"):
            language(g)

    def test_mixed_length_names_nonterminal(self):
        from repro.grammars.analysis import uniform_lengths
        from repro.grammars.cfg import grammar_from_mapping

        g = grammar_from_mapping("ab", {"S": ["a", "ab"]}, "S")
        with pytest.raises(MixedLengthLanguageError, match="Observation 9"):
            uniform_lengths(g)

    def test_rectangle_error_reports_lengths(self):
        from repro.core.rectangles import Rectangle
        from repro.words.alphabet import AB

        with pytest.raises(RectangleError, match="length"):
            Rectangle(outer={"abc"}, inner={"a"}, n1=1, n2=1, n3=1, alphabet=AB)

    def test_certificate_error_on_tampering(self):
        from dataclasses import replace

        from repro.core.lower_bound import certificate

        cert = certificate(16)
        with pytest.raises(CertificateError):
            replace(cert, size_b=cert.size_b + 2).verify()

    def test_not_unambiguous_names_witness(self):
        from repro.grammars.ambiguity import require_unambiguous
        from repro.grammars.cfg import grammar_from_mapping

        g = grammar_from_mapping("ab", {"S": ["ab", "X"], "X": ["ab"]}, "S")
        with pytest.raises(NotUnambiguousError, match="'ab'"):
            require_unambiguous(g, "test")
