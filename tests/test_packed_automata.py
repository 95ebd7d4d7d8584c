"""Property tests: packed automata kernels vs the frozen legacy oracles.

Exact agreement throughout — DFA structure for determinise/minimise,
booleans for the UFA test, arbitrary-precision integers for counting
(no floats anywhere) — on seeded random NFAs and on the paper's ``L_n``
family.  Plus round-trip/`to_key` invariants of the packed
representation, the UFA edge cases from ISSUE 5, and the
``trim_nfa``/`language_up_to` satellite regressions.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from tests.legacy_automata import (
    legacy_count_dfa_words_of_length,
    legacy_count_dfa_words_up_to,
    legacy_count_nfa_runs_of_length,
    legacy_determinise,
    legacy_is_unambiguous_nfa,
    legacy_language_up_to,
    legacy_minimise,
)
from repro.automata import (
    DFA,
    NFA,
    PackedDFA,
    PackedNFA,
    as_packed_dfa,
    as_packed_nfa,
    count_dfa_words_of_length,
    count_dfa_words_up_to,
    count_nfa_runs_of_length,
    determinise,
    is_unambiguous_nfa,
    minimise,
    packed_determinise,
    packed_fixed_length_minimal,
    packed_is_unambiguous,
    packed_minimise,
    trim_nfa,
)
from repro.automata.packed import (
    count_runs_by_power,
    count_words_by_power,
    count_words_by_sweep,
    fold_rows,
)
from repro.backend import available_backends, use_backend
from repro.errors import AutomatonError, ReproError
from repro.extract.compile import column_relation_nfa
from repro.extract.spec import relation_pairs
from repro.languages.dfa_ln import ln_match_minimal_dfa, ln_minimal_dfa
from repro.languages.nfa_ln import ln_match_nfa, ln_nfa_exact
from repro.words.alphabet import AB, Alphabet


def _random_nfa(seed: int, max_states: int = 6) -> NFA:
    """A small seeded random NFA over {a, b} (superset of test_automata's)."""
    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    states = list(range(n_states))
    transitions: dict[tuple[object, str], set[object]] = {}
    for q in states:
        for s in "ab":
            targets = {t for t in states if rng.random() < 0.4}
            if targets:
                transitions[(q, s)] = targets
    initial = {q for q in states if rng.random() < 0.5} or {0}
    accepting = {q for q in states if rng.random() < 0.4}
    return NFA(AB, states, transitions, initial, accepting)


def _assert_same_dfa(ours: DFA, oracle: DFA) -> None:
    """Structural equality — both pipelines emit canonically numbered DFAs."""
    assert ours.alphabet == oracle.alphabet
    assert ours.states == oracle.states
    assert ours.initial == oracle.initial
    assert ours.accepting == oracle.accepting
    assert ours.transitions() == oracle.transitions()


LN_RANGE = range(1, 7)


class TestPackedRepresentation:
    def test_nfa_round_trip_preserves_language_and_key(self):
        for seed in range(60):
            nfa = _random_nfa(seed)
            packed = PackedNFA.from_nfa(nfa)
            back = packed.to_nfa()
            assert back.to_key() == nfa.to_key(), seed
            assert PackedNFA.from_nfa(back).to_key() == packed.to_key(), seed

    def test_dfa_round_trip_is_lossless(self):
        for seed in range(40):
            dfa = legacy_determinise(_random_nfa(seed))
            packed = PackedDFA.from_dfa(dfa)
            back = packed.to_dfa()
            assert back.states == dfa.states, seed
            assert back.transitions() == dfa.transitions(), seed
            assert back.initial == dfa.initial, seed
            assert back.accepting == dfa.accepting, seed

    def test_packed_accepts_matches_nfa(self):
        for seed in range(30):
            nfa = _random_nfa(seed)
            packed = PackedNFA.from_nfa(nfa)
            for word in ("", "a", "b", "ab", "ba", "aabb", "abab", "bbbbb"):
                assert packed.accepts(word) == nfa.accepts(word), (seed, word)

    def test_to_key_is_label_blind(self):
        base = NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, {1})
        renamed = NFA(AB, {"x", "y"}, {("x", "a"): {"y"}}, {"x"}, {"y"})
        assert PackedNFA.from_nfa(base).to_key() == PackedNFA.from_nfa(renamed).to_key()

    def test_to_key_distinguishes_structure(self):
        one = NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, {1})
        other = NFA(AB, {0, 1}, {(0, "b"): {1}}, {0}, {1})
        assert PackedNFA.from_nfa(one).to_key() != PackedNFA.from_nfa(other).to_key()

    def test_as_packed_is_idempotent(self):
        packed = as_packed_nfa(_random_nfa(3))
        assert as_packed_nfa(packed) is packed
        pdfa = as_packed_dfa(legacy_determinise(_random_nfa(3)))
        assert as_packed_dfa(pdfa) is pdfa

    def test_validation_rejects_malformed(self):
        with pytest.raises(AutomatonError):
            PackedNFA(AB, 0, [[], []], 0, 0)
        with pytest.raises(AutomatonError):
            PackedNFA(AB, 1, [[0]], 0, 0)  # one table for two symbols
        with pytest.raises(AutomatonError):
            PackedNFA(AB, 1, [[2], [0]], 0, 0)  # mask overflows state count
        with pytest.raises(AutomatonError):
            PackedDFA(AB, 2, [[1, 0], [0, 2]], 0, 0)  # successor out of range
        with pytest.raises(AutomatonError):
            PackedDFA(AB, 2, [[1, 0], [0, 1]], 2, 0)  # initial out of range

    def test_fold_rows(self):
        assert fold_rows([0b01, 0b10, 0b100], 0b101) == 0b101
        assert fold_rows([0b01, 0b10], 0) == 0


class TestDeterminiseAgreement:
    def test_random_nfas_exact_structure(self):
        for seed in range(80):
            nfa = _random_nfa(seed)
            _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))

    def test_ln_family_exact_structure(self):
        for n in LN_RANGE:
            nfa = ln_match_nfa(n)
            _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))

    def test_ln_exact_family_exact_structure(self):
        for n in range(1, 5):
            nfa = ln_nfa_exact(n)
            _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))


class TestMinimiseAgreement:
    def test_random_nfas_exact_structure(self):
        for seed in range(80):
            dfa = legacy_determinise(_random_nfa(seed))
            _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))

    def test_partial_dfas(self):
        from repro.automata.ops import dfa_from_finite_language

        words = {"", "a", "ab", "ba", "abab", "bb"}
        dfa = dfa_from_finite_language(words, AB)
        _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))

    def test_ln_family_exact_structure(self):
        for n in LN_RANGE:
            dfa = legacy_determinise(ln_match_nfa(n))
            _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))

    def test_ln_minimal_dfa_unchanged(self):
        # End-to-end through the languages module (trie + minimise route).
        for n in range(1, 4):
            dfa = ln_minimal_dfa(n)
            assert dfa.n_states == legacy_minimise(legacy_determinise(ln_nfa_exact(n))).n_states

    def test_minimise_of_minimal_is_identity_sized(self):
        for n in LN_RANGE:
            dfa = ln_match_minimal_dfa(n)
            again = minimise(dfa)
            assert again.n_states == dfa.n_states


class TestUnambiguityAgreement:
    def test_random_nfas(self):
        verdicts = set()
        for seed in range(120):
            nfa = _random_nfa(seed)
            got = is_unambiguous_nfa(nfa)
            assert got == legacy_is_unambiguous_nfa(nfa), seed
            verdicts.add(got)
        assert verdicts == {True, False}  # the corpus exercises both branches

    def test_ln_match_nfa_is_ambiguous_both_paths(self):
        # The Θ(n) guess-and-verify NFA is ambiguous for every n ≥ 1
        # (e.g. a^{2n} has one matching pair per starting position).
        for n in LN_RANGE:
            nfa = ln_match_nfa(n)
            assert legacy_is_unambiguous_nfa(nfa) is False, n
            assert is_unambiguous_nfa(nfa) is False, n
            assert packed_is_unambiguous(PackedNFA.from_nfa(nfa)) is False, n

    def test_ln_exact_nfa_ambiguity_both_paths(self):
        # n = 1 is the degenerate unambiguous case (L_1 = {"aa"}, one run);
        # every n ≥ 2 is ambiguous (a^{2n} has ≥ 2 matching positions).
        for n in range(1, 5):
            nfa = ln_nfa_exact(n)
            expected = n == 1
            assert legacy_is_unambiguous_nfa(nfa) is expected, n
            assert is_unambiguous_nfa(nfa) is expected, n


class TestUnambiguityEdgeCases:
    """The ISSUE 5 edge cases, on both the legacy and packed paths."""

    def _both(self, nfa: NFA) -> tuple[bool, bool]:
        return legacy_is_unambiguous_nfa(nfa), is_unambiguous_nfa(nfa)

    def test_no_initial_states(self):
        nfa = NFA(AB, {0, 1}, {(0, "a"): {1}}, set(), {1})
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True  # empty language: no run at all

    def test_no_accepting_states(self):
        nfa = NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, set())
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True

    def test_initial_intersect_accepting_epsilon_acceptance(self):
        # Two distinct initial states that are both accepting: the empty
        # word has two accepting runs, so the NFA is ambiguous.
        nfa = NFA(
            AB,
            {0, 1},
            {(0, "a"): {0}, (1, "a"): {1}},
            {0, 1},
            {0, 1},
        )
        assert nfa.count_accepting_runs("") == 2
        legacy, packed = self._both(nfa)
        assert legacy is False and packed is False

    def test_single_initial_accepting_state_unambiguous(self):
        nfa = NFA(AB, {0}, {(0, "a"): {0}}, {0}, {0})
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True

    def test_multiple_initial_states_sharing_a_run(self):
        # Both initial states reach the accepting state on "a": "a" has two
        # accepting runs even though each state alone is deterministic.
        nfa = NFA(
            AB,
            {0, 1, 2},
            {(0, "a"): {2}, (1, "a"): {2}},
            {0, 1},
            {2},
        )
        assert nfa.count_accepting_runs("a") == 2
        legacy, packed = self._both(nfa)
        assert legacy is False and packed is False

    def test_multiple_initial_states_disjoint_languages(self):
        # Two initial states with disjoint future alphabets: unambiguous.
        nfa = NFA(
            AB,
            {0, 1, 2, 3},
            {(0, "a"): {2}, (1, "b"): {3}},
            {0, 1},
            {2, 3},
        )
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True


class TestCountingAgreement:
    def test_random_dfa_counts_exact(self):
        for seed in range(40):
            dfa = legacy_determinise(_random_nfa(seed))
            for length in range(7):
                assert count_dfa_words_of_length(dfa, length) == \
                    legacy_count_dfa_words_of_length(dfa, length), (seed, length)

    def test_random_dfa_count_tables_exact(self):
        for seed in range(25):
            dfa = legacy_determinise(_random_nfa(seed))
            assert count_dfa_words_up_to(dfa, 6) == legacy_count_dfa_words_up_to(dfa, 6), seed

    def test_random_nfa_run_counts_exact(self):
        for seed in range(40):
            nfa = _random_nfa(seed)
            for length in range(7):
                assert count_nfa_runs_of_length(nfa, length) == \
                    legacy_count_nfa_runs_of_length(nfa, length), (seed, length)

    def test_power_equals_sweep_on_long_lengths(self):
        # The repeated-squaring path must agree bit-for-bit with the sweep
        # on lengths that actually trigger it (length > 4·|Q|).
        for n in range(1, 5):
            packed = as_packed_dfa(ln_match_minimal_dfa(n))
            for length in (4 * packed.n_states + 1, 64, 257):
                assert count_words_by_power(packed, length) == \
                    count_words_by_sweep(packed, length), (n, length)

    def test_power_run_counts_match_legacy_on_ln(self):
        for n in range(1, 4):
            nfa = ln_match_nfa(n)
            packed = as_packed_nfa(nfa)
            for length in (0, 1, 2 * n, 4 * packed.n_states + 3):
                assert count_runs_by_power(packed, length) == \
                    legacy_count_nfa_runs_of_length(nfa, length), (n, length)

    def test_counts_are_exact_big_ints(self):
        # 2^Θ(n) counts far beyond float precision: exactness is observable.
        dfa = ln_match_minimal_dfa(4)
        value = count_dfa_words_of_length(dfa, 400)
        assert isinstance(value, int)
        assert value > 2**300
        assert value != int(float(value))  # a float round-trip loses bits

    def test_counting_matches_language_enumeration(self):
        for n in (1, 2):
            nfa = ln_nfa_exact(n)
            dfa = minimise(determinise(nfa))
            words = [w for w in nfa.language_up_to(2 * n) if len(w) == 2 * n]
            assert count_dfa_words_of_length(dfa, 2 * n) == len(words)


class TestSatelliteRegressions:
    def test_language_up_to_matches_legacy_enumeration(self):
        for seed in range(40):
            nfa = _random_nfa(seed)
            assert nfa.language_up_to(5) == legacy_language_up_to(nfa, 5), seed

    def test_language_up_to_prunes_dead_prefixes(self):
        # A two-word finite language: the BFS must stay polynomial-small,
        # which we observe by it answering instantly on a length bound
        # whose naive enumeration would be 2^40 words.
        from repro.automata.ops import dfa_from_finite_language

        nfa = dfa_from_finite_language({"ab", "ba"}, AB).to_nfa()
        assert nfa.language_up_to(40) == frozenset({"ab", "ba"})

    def test_language_up_to_empty_and_negative_bounds(self):
        nfa = ln_match_nfa(1)
        assert nfa.language_up_to(-1) == frozenset()
        assert nfa.language_up_to(0) == frozenset()

    def test_trim_nfa_empty_language_is_hash_seed_stable(self):
        # Regression for the `next(iter(...))` fallback: the trimmed empty
        # automaton's to_key() must be identical across hash seeds.
        program = (
            "import sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'tests');\n"
            "from repro.automata.ops import trim_nfa\n"
            "from repro.automata.nfa import NFA\n"
            "from repro.words.alphabet import AB\n"
            "states = ['alpha', 'beta', 'gamma', 'delta', 'omega']\n"
            "nfa = NFA(AB, states, {('alpha', 'a'): {'beta'}}, {'alpha'}, set())\n"
            "print(trim_nfa(nfa).to_key())"
        )
        keys = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                check=True,
            )
            keys.add(out.stdout.strip())
        assert len(keys) == 1, keys

    def test_trim_nfa_empty_language_picks_canonical_minimum(self):
        nfa = NFA(AB, {"zz", "aa", "mm"}, {}, {"zz"}, set())
        trimmed = trim_nfa(nfa)
        assert trimmed.states == frozenset({"aa"})
        assert trimmed.initial == frozenset({"aa"})
        assert trimmed.accepting == frozenset()

    def test_trim_nfa_nonempty_language_unchanged_semantics(self):
        for seed in range(30):
            nfa = _random_nfa(seed)
            trimmed = trim_nfa(nfa)
            for word in ("", "a", "b", "ab", "abab"):
                assert trimmed.accepts(word) == nfa.accepts(word), (seed, word)


class TestUnaryAndWideAlphabets:
    """The kernels must not be hardwired to |Σ| = 2."""

    def test_unary_alphabet(self):
        unary = Alphabet("a")
        nfa = NFA(unary, {0, 1, 2}, {(0, "a"): {1, 2}, (1, "a"): {0}}, {0}, {1})
        _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))
        assert is_unambiguous_nfa(nfa) == legacy_is_unambiguous_nfa(nfa)

    def test_three_symbol_alphabet(self):
        abc = Alphabet("abc")
        rng = random.Random(7)
        states = list(range(5))
        transitions: dict[tuple[object, str], set[object]] = {}
        for q in states:
            for s in "abc":
                targets = {t for t in states if rng.random() < 0.3}
                if targets:
                    transitions[(q, s)] = targets
        nfa = NFA(abc, states, transitions, {0}, {4})
        _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))
        dfa = legacy_determinise(nfa)
        _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))
        for length in range(6):
            assert count_nfa_runs_of_length(nfa, length) == \
                legacy_count_nfa_runs_of_length(nfa, length), length


class TestBenchAndEngine:
    def test_bench_row_cross_checks_and_reports_speedups(self):
        from repro.automata.bench import bench_automata_row

        row = bench_automata_row(3)
        ops = row["ops"]
        for name in ("determinise", "minimise", "ambiguity"):
            op = ops[name]
            assert op["agree"]
            assert "seconds" in op["legacy"] and "seconds" in op["packed"]
        assert ops["ambiguity"]["legacy"]["value"] is False  # exact L_3 NFA

    def test_bench_count_row_matches_closed_form(self):
        from repro.automata.bench import bench_count_row

        row = bench_count_row(10, n=8)
        assert row["count"] == 2**10 - 8
        assert row["agree"] and "seconds" in row["legacy"]

    def test_bench_summary_frontiers(self):
        from repro.automata.bench import (
            bench_automata_row,
            bench_count_row,
            summarise_automata_rows,
        )

        rows = [bench_automata_row(n) for n in (2, 3)]
        count_rows = [bench_count_row(10)]
        summary = summarise_automata_rows(rows, count_rows, budget_s=60.0)
        det = summary["ops"]["determinise"]
        assert det["largest_common_n"] == 3
        assert det["largest_n_within_budget"] == {"legacy": 3, "packed": 3}
        assert summary["ops"]["counting"]["largest_common_exp"] == 10

    def test_automata_bench_job_runs_through_engine(self):
        from repro.engine import Engine

        engine = Engine(cache=None)
        result = engine.run_one(
            "automata.bench",
            {"max_n": 2, "max_count_exp": 10, "budget_s": 60.0},
        )
        assert [row["n"] for row in result["rows"]] == [1, 2]
        assert [row["exp"] for row in result["count_rows"]] == [10]
        assert "determinise" in result["summary"]["ops"]

    def test_automata_jobs(self):
        from repro.engine import Engine
        from repro.languages.ln import count_ln

        engine = Engine(cache=None)
        det = engine.run_one("automata.determinise", {"n": 3})
        assert det["dfa_states"] >= det["min_dfa_states"] == 9
        amb = engine.run_one("automata.ambiguity", {"n": 2, "exact": True})
        assert amb["unambiguous"] is False
        count = engine.run_one("automata.count", {"n": 2, "length": 4})
        from repro.languages.dfa_ln import ln_match_minimal_dfa

        expected = legacy_count_dfa_words_of_length(ln_match_minimal_dfa(2), 4)
        assert count["match_count_bits"] == expected.bit_length()
        assert int(count["match_count_checksum"], 16) == expected % (1 << 64)
        assert count["unique_count"] == 2  # slender closed form: length - n

    def test_cli_bench_automata_smoke(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out_path = tmp_path / "BENCH_automata.json"
        assert (
            main(
                [
                    "bench",
                    "automata",
                    "--max-n",
                    "2",
                    "--max-count-exp",
                    "10",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "packed bit-parallel kernels" in printed
        artifact = json.loads(out_path.read_text())
        assert artifact["kind"] == "automata_bench"
        assert artifact["rows"][0]["n"] == 1


class TestUniqueMatchDfa:
    def test_membership_and_slender_counts(self):
        from repro.languages.dfa_ln import ln_unique_match_dfa

        for n in (1, 2, 4):
            dfa = ln_unique_match_dfa(n)
            assert dfa.n_states == n + 3 and dfa.is_complete()
            assert dfa.accepts("a" + "b" * (n - 1) + "a")
            assert dfa.accepts("b" + "a" + "b" * (n - 1) + "a" + "bb")
            assert not dfa.accepts("a" + "b" * n + "a")  # distance n+1
            assert not dfa.accepts("aa" * 2) or n == 1
            for length in range(n + 4):
                assert count_dfa_words_of_length(dfa, length) == max(0, length - n)

    def test_unique_match_is_within_the_match_language(self):
        from repro.languages.dfa_ln import ln_unique_match_dfa
        from repro.languages.nfa_ln import ln_match_nfa

        n = 3
        unique, match = ln_unique_match_dfa(n), ln_match_nfa(n)
        for word in unique.to_nfa().language_up_to(n + 4):
            assert match.accepts(word)

    def test_rejects_nonpositive_n(self):
        from repro.languages.dfa_ln import ln_unique_match_dfa

        with pytest.raises(ValueError):
            ln_unique_match_dfa(0)


class TestUsefulStateRestriction:
    """The power route must not let completion sinks inflate entries."""

    def test_power_agrees_on_automata_with_dead_states(self):
        from repro.automata.packed import count_words_by_power, count_words_by_sweep
        from repro.languages.dfa_ln import ln_unique_match_dfa

        pdfa = as_packed_dfa(ln_unique_match_dfa(3))
        for length in (0, 1, 5, 37, 200):
            assert count_words_by_power(pdfa, length) == \
                count_words_by_sweep(pdfa, length)

    def test_empty_language_counts_zero(self):
        from repro.automata.packed import count_words_by_power

        dfa = DFA(AB, {0, 1}, {(0, "a"): 0, (0, "b"): 0}, 0, {1})
        pdfa = as_packed_dfa(dfa)
        for length in (0, 1, 8, 1 << 20):
            assert count_words_by_power(pdfa, length) == 0

    def test_length_zero_with_accepting_initial(self):
        from repro.automata.packed import count_words_by_power

        dfa = DFA(AB, {0}, {}, 0, {0})
        assert count_words_by_power(as_packed_dfa(dfa), 0) == 1


def _two_stage(pnfa: PackedNFA) -> PackedDFA:
    """The reference pipeline the layered kernel must reproduce byte for byte."""
    return packed_minimise(packed_determinise(pnfa))


def _random_column_relation(seed: int) -> tuple[NFA, int]:
    """A seeded column-relation NFA (c <= 5, w <= 3) and its word length.

    Random column subset (at most 3 columns at w = 3, which keeps the
    two-stage oracle fast) and 1 to 4 random value pairs.
    """
    from itertools import product

    rng = random.Random(seed)
    w = rng.randint(1, 3)
    c = rng.randint(1, 5)
    cols = rng.sample(range(1, c + 1), rng.randint(1, min(c, 3 if w == 3 else 5)))
    values = ["".join(p) for p in product("ab", repeat=w)]
    pairs = rng.sample([(x, y) for x in values for y in values], rng.randint(1, 4))
    return column_relation_nfa(c, w, cols, pairs), 2 * c * w


def _random_layered_nfa(seed: int, alphabet: Alphabet = AB) -> tuple[NFA, int]:
    """A seeded NFA whose useful part is phase-graded, plus useless clutter.

    ``length + 1`` layers of up to 4 states with random forward edges,
    random initial states in layer 0 and accepting states in the last
    layer; then a dead state with a self-loop and an unreachable state
    pointing into the layers — neither is useful, so the kernel must
    trim them rather than reject the automaton.
    """
    rng = random.Random(seed)
    length = rng.randint(0, 6)
    layers = [[(t, i) for i in range(rng.randint(1, 4))] for t in range(length + 1)]
    transitions: dict[tuple[object, str], set[object]] = {}
    for t in range(length):
        for q in layers[t]:
            for symbol in alphabet:
                targets = {r for r in layers[t + 1] if rng.random() < 0.45}
                if targets:
                    transitions[(q, symbol)] = targets
    dead = ("dead", 0)
    transitions[(dead, alphabet.symbols[0])] = {dead}
    for q in rng.sample([q for layer in layers for q in layer], 2 if length else 1):
        transitions.setdefault((q, alphabet.symbols[-1]), set()).add(dead)
    stray = ("stray", 0)
    transitions[(stray, alphabet.symbols[0])] = {layers[-1][0]}
    states = [q for layer in layers for q in layer] + [dead, stray]
    initial = {q for q in layers[0] if rng.random() < 0.7} or {layers[0][0]}
    accepting = {q for q in layers[-1] if rng.random() < 0.6}
    return NFA(alphabet, states, transitions, initial, accepting), length


class TestFixedLengthMinimal:
    """The layered kernel is ``to_key()``-equal to determinise-then-Hopcroft."""

    def test_random_column_relations(self):
        for seed in range(150):
            nfa, length = _random_column_relation(seed)
            pnfa = PackedNFA.from_nfa(nfa)
            dfa, built = packed_fixed_length_minimal(pnfa, length)
            assert dfa.to_key() == _two_stage(pnfa).to_key(), seed
            assert dfa.n_states <= built, seed

    def test_single_pair_relations(self):
        for c, w, cols in ((1, 1, [1]), (3, 2, [2]), (4, 3, [1, 4]), (5, 2, [1, 3, 5])):
            pnfa = PackedNFA.from_nfa(column_relation_nfa(c, w, cols, [("a" * w, "b" * w)]))
            dfa, _ = packed_fixed_length_minimal(pnfa, 2 * c * w)
            assert dfa.to_key() == _two_stage(pnfa).to_key(), (c, w, cols)

    def test_ln_exact_family(self):
        for n in range(1, 9):
            pnfa = PackedNFA.from_nfa(ln_nfa_exact(n))
            dfa, _ = packed_fixed_length_minimal(pnfa, 2 * n)
            assert dfa.to_key() == _two_stage(pnfa).to_key(), n

    def test_random_layered_nfas_with_useless_states(self):
        for seed in range(120):
            nfa, length = _random_layered_nfa(seed)
            pnfa = PackedNFA.from_nfa(nfa)
            dfa, _ = packed_fixed_length_minimal(pnfa, length)
            assert dfa.to_key() == _two_stage(pnfa).to_key(), seed

    def test_three_symbol_alphabet(self):
        for seed in range(40):
            nfa, length = _random_layered_nfa(seed, Alphabet("abc"))
            pnfa = PackedNFA.from_nfa(nfa)
            dfa, _ = packed_fixed_length_minimal(pnfa, length)
            assert dfa.to_key() == _two_stage(pnfa).to_key(), seed

    def test_empty_language_and_empty_word(self):
        empty = PackedNFA.from_nfa(NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, set()))
        dfa, built = packed_fixed_length_minimal(empty, 1)
        assert dfa.to_key() == _two_stage(empty).to_key()
        assert (dfa.n_states, built) == (1, 1)
        epsilon = PackedNFA.from_nfa(NFA(AB, {0}, {}, {0}, {0}))
        dfa, _ = packed_fixed_length_minimal(epsilon, 0)
        assert dfa.to_key() == _two_stage(epsilon).to_key()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rejects_variable_length_ln_match_nfa(self, n):
        with pytest.raises(ReproError, match="two phases"):
            packed_fixed_length_minimal(PackedNFA.from_nfa(ln_match_nfa(n)), 2 * n)

    @pytest.mark.parametrize("length", [-1, 0, 5, 7, 12])
    def test_rejects_wrong_length(self, length):
        with pytest.raises(ReproError):
            packed_fixed_length_minimal(PackedNFA.from_nfa(ln_nfa_exact(3)), length)

    @pytest.mark.parametrize(
        "relation,cols,n_states",
        [
            ("match", (1, 3), 139),
            ("leq", (2, 5), 93),
            ("leq", (1, 3, 4), 201),
            ("match", (1, 2, 3, 4, 5), 3419),
        ],
    )
    def test_benchmark_query_shapes(self, relation, cols, n_states):
        """The c=5, w=2 standing queries of perfbench's extract-scan."""
        pnfa = PackedNFA.from_nfa(column_relation_nfa(5, 2, cols, relation_pairs(relation, 2)))
        dfa, built = packed_fixed_length_minimal(pnfa, 20)
        det = packed_determinise(pnfa)
        assert dfa.n_states == n_states
        assert dfa.to_key() == packed_minimise(det).to_key()
        assert built < det.n_states

    @pytest.mark.parametrize("backend", available_backends())
    def test_bit_exact_under_every_backend(self, backend):
        with use_backend(backend):
            for seed in range(20):
                nfa, length = _random_column_relation(seed)
                pnfa = PackedNFA.from_nfa(nfa)
                dfa, _ = packed_fixed_length_minimal(pnfa, length)
                assert dfa.to_key() == _two_stage(pnfa).to_key(), (backend, seed)
