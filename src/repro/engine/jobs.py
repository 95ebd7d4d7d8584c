"""The built-in job registry: every paper check as a declared job.

Each job wraps one verifiable computation from the reproduction — a
Theorem 1 size-table row, a Theorem 12 certificate, a Proposition 7
cover, an exhaustive Lemma 18 check, the E7/E8 benchmark cores — behind
typed parameters and an explicit dependency list.  All results are plain
JSON data, so they cache on disk and travel between worker processes.

Job functions are module-level (workers resolve them by reference) and
each declares the ``source_modules`` whose edits must invalidate its
cached results.
"""

from __future__ import annotations

import math
import os
import time
from typing import Any

from repro.engine.registry import JobRegistry, Request
from repro.util.tables import format_int

__all__ = ["REGISTRY", "default_registry"]

REGISTRY = JobRegistry()


def default_registry() -> JobRegistry:
    """The registry holding every built-in paper job."""
    return REGISTRY


#: The semiring chart-parsing kernel.  Every job whose computation routes
#: through parsing (covers, the zoo's disambiguation, the parsing bench)
#: lists these so kernel edits invalidate exactly their cached results.
_KERNEL_MODULES = (
    "repro.kernel.semiring",
    "repro.kernel.forest",
    "repro.kernel.chart",
    "repro.kernel.generic",
    "repro.kernel.earley",
    "repro.kernel.fold",
    "repro.kernel.batch",
    "repro.kernel.prefix",
    "repro.kernel.paths",
)


# ----------------------------------------------------------------------
# Theorem 1: the size table (E1/E2 cores)
# ----------------------------------------------------------------------

_SIZE_MODULES = (
    "repro.languages.small_grammar",
    "repro.languages.nfa_ln",
    "repro.languages.unambiguous_grammar",
    "repro.core.lower_bound",
    "repro.core.discrepancy",
)


@REGISTRY.job(
    "sizes.row",
    params=("n",),
    source_modules=_SIZE_MODULES,
    description="One row of the Theorem 1 size table for L_n",
)
def sizes_row(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.core.lower_bound import certificate
    from repro.languages.nfa_ln import ln_match_nfa
    from repro.languages.small_grammar import small_ln_grammar
    from repro.languages.unambiguous_grammar import example4_size

    n = params["n"]
    cfg_size = small_ln_grammar(n).size
    cert = certificate(n)
    return {
        "n": n,
        "cfg_size": cfg_size,
        "cfg_per_log2": f"{cfg_size / math.log2(n):.1f}",
        "nfa_states": ln_match_nfa(n).n_states,
        "ucfg_constr": format_int(example4_size(n)),
        "ucfg_bound": format_int(cert.ucfg_bound),
    }


def _sizes_table_deps(params: dict[str, Any]) -> list[Request]:
    return [
        Request.make("sizes.row", {"n": 2**exponent})
        for exponent in range(2, params["max_exp"] + 1)
    ]


@REGISTRY.job(
    "sizes.table",
    params=("max_exp",),
    defaults={"max_exp": 10},
    deps=_sizes_table_deps,
    source_modules=_SIZE_MODULES,
    description="The full Theorem 1 size table (fans out one job per n)",
)
def sizes_table(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    return {"max_exp": params["max_exp"], "rows": deps}


# ----------------------------------------------------------------------
# Theorem 12: the lower-bound certificate
# ----------------------------------------------------------------------


@REGISTRY.job(
    "certificate",
    params=("n",),
    source_modules=("repro.core.lower_bound", "repro.core.discrepancy"),
    description="The verified Theorem 12 certificate for one n",
)
def certificate_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.core.lower_bound import certificate

    cert = certificate(params["n"])
    cert.verify()
    return cert.to_dict()


@REGISTRY.job(
    "grammar",
    params=("n",),
    source_modules=("repro.languages.small_grammar", "repro.grammars.cfg"),
    description="The Θ(log n) Appendix A grammar for L_n",
)
def grammar_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.languages.small_grammar import small_ln_grammar

    grammar = small_ln_grammar(params["n"])
    return {
        "n": params["n"],
        "size": grammar.size,
        "n_rules": grammar.n_rules,
        "rules": grammar.pretty().splitlines(),
    }


# ----------------------------------------------------------------------
# Proposition 7: rectangle covers (E5 core)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "cover",
    params=("n",),
    source_modules=(
        "repro.core.cover",
        "repro.core.rectangles",
        "repro.languages.unambiguous_grammar",
        "repro.grammars.cyk",
        "repro.grammars.generic",
    )
    + _KERNEL_MODULES,
    description="Proposition 7 on the Example 4 uCFG for L_n (n <= 4)",
)
def cover_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.core.cover import balanced_rectangle_cover
    from repro.languages.unambiguous_grammar import example4_ucfg

    n = params["n"]
    if n > 4:
        raise ValueError("cover: n > 4 is infeasible (the uCFG explodes); use n <= 4")
    cover = balanced_rectangle_cover(example4_ucfg(n))
    return {
        "n": n,
        "n_rectangles": cover.n_rectangles,
        "proposition7_bound": cover.proposition7_bound,
        "disjoint": cover.disjoint,
        "steps": [
            {
                "nonterminal": str(step.nonterminal),
                "n1": step.rectangle.n1,
                "n2": step.rectangle.n2,
                "n3": step.rectangle.n3,
                "outer": len(step.rectangle.outer),
                "inner": len(step.rectangle.inner),
                "words": step.rectangle.n_words,
            }
            for step in cover.steps
        ],
    }


# ----------------------------------------------------------------------
# Section 4: Lemma 18 / discrepancy (E6/E7 cores)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "lemma18",
    params=("m",),
    source_modules=("repro.core.discrepancy",),
    description="Exhaustive Lemma 18 verification for one m (m <= 5)",
)
def lemma18_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.core.discrepancy import verify_lemma18

    m = params["m"]
    if m > 5:
        raise ValueError("lemma18: m > 5 enumerates over 16^m members; use m <= 5")
    results = verify_lemma18(m)
    return {
        "m": m,
        "quantities": {
            name: {"enumerated": enumerated, "formula": formula}
            for name, (enumerated, formula) in results.items()
        },
    }


_DISC_MODULES = (
    "repro.core.discrepancy",
    "repro.core.partitions",
    "repro.core.setview",
)


@REGISTRY.job(
    "discrepancy.partition",
    params=("m", "lo", "hi"),
    source_modules=_DISC_MODULES,
    description="Exact max discrepancy of one neat balanced partition",
)
def discrepancy_partition_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.core.discrepancy import max_discrepancy_over_partition
    from repro.core.setview import OrderedPartition

    m, lo, hi = params["m"], params["lo"], params["hi"]
    partition = OrderedPartition(n=4 * m, lo=lo, hi=hi, interval_part=0)
    value, exact = max_discrepancy_over_partition(partition, m)
    return {"lo": lo, "hi": hi, "max_disc": value, "exact": exact}


def _discrepancy_deps(params: dict[str, Any]) -> list[Request]:
    from repro.core.partitions import iter_neat_balanced_partitions

    m = params["m"]
    if m > 2:
        raise ValueError("discrepancy: exact maximisation is feasible only for m <= 2")
    return [
        Request.make("discrepancy.partition", {"m": m, "lo": p.lo, "hi": p.hi})
        for p in iter_neat_balanced_partitions(m)
    ]


@REGISTRY.job(
    "discrepancy",
    params=("m",),
    deps=_discrepancy_deps,
    source_modules=_DISC_MODULES,
    description="Exact max discrepancy per neat balanced partition (m <= 2; "
    "fans out one cacheable job per partition)",
)
def discrepancy_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.core.discrepancy import lemma19_bound, lemma23_bound

    m = params["m"]
    return {
        "m": m,
        "lemma19_bound": lemma19_bound(m),
        "lemma23_bound": lemma23_bound(m),
        "partitions": deps,
    }


# ----------------------------------------------------------------------
# The classical communication route (E8 core)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "rank",
    params=("p",),
    source_modules=(
        "repro.comm.rank",
        "repro.comm.matrix",
        "repro.comm.packed",
        "repro.comm.covers",
        "repro.comm.fooling",
    ),
    description="Rank and cover numbers of INTERSECT_p (Theorem 17 route)",
)
def rank_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm import (
        fooling_set_bound,
        greedy_disjoint_cover,
        intersection_matrix,
        rank_over_gf2,
        rank_over_q,
        verify_disjoint_cover,
    )

    p = params["p"]
    matrix = intersection_matrix(p)
    greedy = greedy_disjoint_cover(matrix)
    if not verify_disjoint_cover(matrix, greedy):
        raise ValueError(f"greedy cover of INTERSECT_{p} failed verification")
    return {
        "p": p,
        "rank_q": rank_over_q(matrix),
        "rank_gf2": rank_over_gf2(matrix) if p <= 5 else None,
        "fooling_bound": fooling_set_bound(matrix),
        "greedy_cover": len(greedy),
    }


# ----------------------------------------------------------------------
# The exact cover solver (branch-and-price, arbitrary 0/1 matrices)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "comm.cover.solve",
    params=("matrix", "mode", "node_budget"),
    defaults={"mode": "disjoint", "node_budget": 2_000_000},
    source_modules=(
        "repro.comm.cover",
        "repro.comm.covers",
        "repro.comm.matrix",
        "repro.comm.packed",
        "repro.comm.rank",
    ),
    description="Certified minimum rectangle cover of an arbitrary 0/1 matrix",
)
def comm_cover_solve(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm.cover import solve_cover

    # ``matrix`` is either a named family ("intersection:P") or a 0/1
    # entry grid — the engine canonicalises list params to nested tuples,
    # which matrix_from_spec accepts directly.
    result = solve_cover(
        params["matrix"], mode=params["mode"], node_budget=params["node_budget"]
    )
    return result.to_json()


# ----------------------------------------------------------------------
# Example 3 (E4 core)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "example3",
    params=("k",),
    source_modules=("repro.languages.example3",),
    description="Example 3: G_k of size Θ(k) for L_{2^k+1}",
)
def example3_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.languages.example3 import (
        example3_grammar,
        example3_language_parameter,
        example3_size,
    )

    k = params["k"]
    grammar = example3_grammar(k)
    if grammar.size != example3_size(k):
        raise ValueError(f"example3: measured size {grammar.size} != formula")
    return {
        "k": k,
        "n": example3_language_parameter(k),
        "size": grammar.size,
        "n_rules": grammar.n_rules,
    }


# ----------------------------------------------------------------------
# The representation zoo (E14 core)
# ----------------------------------------------------------------------

_ZOO_MODULES = (
    "repro.languages.small_grammar",
    "repro.languages.nfa_ln",
    "repro.languages.dfa_ln",
    "repro.languages.ln",
    "repro.grammars.disambiguate",
) + _KERNEL_MODULES


@REGISTRY.job(
    "zoo.row",
    params=("n",),
    source_modules=_ZOO_MODULES,
    description="Exact sizes of every representation of L_n (n <= 5)",
)
def zoo_row(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.grammars.disambiguate import disambiguate
    from repro.languages.dfa_ln import ln_minimal_dfa
    from repro.languages.ln import count_ln
    from repro.languages.nfa_ln import ln_match_nfa, ln_nfa_exact
    from repro.languages.small_grammar import small_ln_grammar

    n = params["n"]
    if n > 5:
        raise ValueError("zoo.row: the disambiguated uCFG is infeasible for n > 5")
    grammar = small_ln_grammar(n)
    ucfg, _report = disambiguate(grammar, verify=False)
    return {
        "n": n,
        "count_ln": count_ln(n),
        "cfg": grammar.size,
        "nfa": ln_match_nfa(n).n_states,
        "exact_nfa": ln_nfa_exact(n).n_states,
        "min_dfa": ln_minimal_dfa(n).n_states,
        "ucfg": ucfg.size,
    }


def _zoo_table_deps(params: dict[str, Any]) -> list[Request]:
    top = min(max(params["max_n"], 2), 5)
    return [Request.make("zoo.row", {"n": n}) for n in range(2, top + 1)]


@REGISTRY.job(
    "zoo.table",
    params=("max_n",),
    defaults={"max_n": 4},
    deps=_zoo_table_deps,
    source_modules=_ZOO_MODULES,
    description="The representation zoo table (fans out one job per n)",
)
def zoo_table(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    return {"max_n": params["max_n"], "rows": deps}


# ----------------------------------------------------------------------
# The parsing kernel benchmark (cold vs. batched chart fill)
# ----------------------------------------------------------------------

_PARSING_BENCH_MODULES = _KERNEL_MODULES + (
    "repro.grammars.cnf",
    "repro.languages.small_grammar",
    "repro.languages.ln",
)


@REGISTRY.job(
    "parsing.bench.row",
    params=("n", "n_words", "seed"),
    defaults={"n_words": 24, "seed": 0},
    source_modules=_PARSING_BENCH_MODULES,
    description="Time cold vs. bitset vs. batched recognition over one L_n",
)
def parsing_bench_row(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    """Recognise the same word sample three ways and time each.

    * ``legacy`` — one full counting chart per word (what ``recognises``
      did before the kernel refactor: count the parse trees, compare > 0);
    * ``bitset`` — one bitset boolean chart per word, with early exit;
    * ``batched`` — the shared-prefix batched bitset filler.

    The sample mixes members of ``L_n`` with seeded random words of the
    right length; all three strategies must agree with the direct
    ``is_in_ln`` check or the job fails.
    """
    import itertools
    import random
    from time import perf_counter

    from repro.grammars.cnf import to_cnf
    from repro.kernel.batch import BatchedRecognizer
    from repro.kernel.chart import CNFChart, cnf_bitset_tables, recognise_cnf
    from repro.kernel.semiring import COUNTING
    from repro.languages.ln import is_in_ln, iter_ln
    from repro.languages.small_grammar import small_ln_grammar

    n, n_words, seed = params["n"], params["n_words"], params["seed"]
    grammar = to_cnf(small_ln_grammar(n))
    rng = random.Random(seed)
    members = list(itertools.islice(iter_ln(n), n_words // 2))
    randoms = {
        "".join(rng.choice("ab") for _ in range(2 * n))
        for _ in range(n_words - len(members))
    }
    words = sorted(set(members) | randoms)

    # Warm the per-grammar rule tables so no strategy pays them in-loop.
    cnf_bitset_tables(grammar)

    start = perf_counter()
    legacy = {w: CNFChart(grammar, w, COUNTING).value() > 0 for w in words}
    legacy_s = perf_counter() - start

    start = perf_counter()
    bitset = {w: recognise_cnf(grammar, w) for w in words}
    bitset_s = perf_counter() - start

    start = perf_counter()
    batched = BatchedRecognizer(grammar).recognise_many(words)
    batched_s = perf_counter() - start

    for word in words:
        expected = is_in_ln(word, n)
        if not (legacy[word] == bitset[word] == batched[word] == expected):
            raise ValueError(
                f"parsing.bench.row: strategies disagree on {word!r} "
                f"(legacy={legacy[word]}, bitset={bitset[word]}, "
                f"batched={batched[word]}, is_in_ln={expected})"
            )

    n_members = sum(1 for w in words if legacy[w])
    return {
        "n": n,
        "word_length": 2 * n,
        "n_words": len(words),
        "n_members": n_members,
        "legacy_s": round(legacy_s, 6),
        "bitset_s": round(bitset_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup_bitset": round(legacy_s / bitset_s, 2) if bitset_s else None,
        "speedup_batched": round(legacy_s / batched_s, 2) if batched_s else None,
    }


def _parsing_bench_deps(params: dict[str, Any]) -> list[Request]:
    max_n = params["max_n"]
    ns = sorted({n for n in (2, 4, 8) if n < max_n} | {max_n})
    return [
        Request.make(
            "parsing.bench.row",
            {"n": n, "n_words": params["n_words"], "seed": params["seed"]},
        )
        for n in ns
    ]


@REGISTRY.job(
    "parsing.bench",
    params=("max_n", "n_words", "seed"),
    defaults={"max_n": 12, "n_words": 24, "seed": 0},
    deps=_parsing_bench_deps,
    source_modules=_PARSING_BENCH_MODULES,
    description="The parsing-kernel benchmark sweep (fans out one row per n)",
)
def parsing_bench(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    return {
        "max_n": params["max_n"],
        "n_words": params["n_words"],
        "seed": params["seed"],
        "rows": deps,
    }


# ----------------------------------------------------------------------
# The communication benchmark (legacy vs. bit-parallel substrate)
# ----------------------------------------------------------------------

_COMM_BENCH_MODULES = (
    "repro.comm.bench",
    "repro.comm.matrix",
    "repro.comm.packed",
    "repro.comm.rank",
    "repro.comm.covers",
    "repro.comm.fooling",
)


@REGISTRY.job(
    "comm.bench.row",
    params=("p", "node_budget"),
    defaults={"node_budget": 2_000_000},
    source_modules=_COMM_BENCH_MODULES,
    description="Time legacy vs. packed rank/cover/fooling on INTERSECT_p",
)
def comm_bench_row(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm.bench import bench_comm_row

    return bench_comm_row(params["p"], node_budget=params["node_budget"])


@REGISTRY.job(
    "comm.bench.disc",
    params=("m",),
    source_modules=_COMM_BENCH_MODULES + ("repro.core.discrepancy",),
    description="Time legacy vs. SWAR exact discrepancy on the split sign matrix",
)
def comm_bench_disc(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm.bench import bench_disc_row

    return bench_disc_row(params["m"])


@REGISTRY.job(
    "comm.bench.cover",
    params=("p", "node_budget"),
    defaults={"node_budget": 2_000_000},
    source_modules=_COMM_BENCH_MODULES + ("repro.comm.cover",),
    description="Time the branch-and-price cover solver vs the frozen B&B on INTERSECT_p",
)
def comm_bench_cover(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm.bench import bench_cover_row

    return bench_cover_row(params["p"], node_budget=params["node_budget"])


def _comm_bench_deps(params: dict[str, Any]) -> list[Request]:
    rows = [
        Request.make("comm.bench.row", {"p": p, "node_budget": params["node_budget"]})
        for p in range(2, params["max_p"] + 1)
    ]
    covers = [
        Request.make("comm.bench.cover", {"p": p, "node_budget": params["node_budget"]})
        for p in range(2, params["max_cover_p"] + 1)
    ]
    discs = [
        Request.make("comm.bench.disc", {"m": m})
        for m in range(1, min(params["max_m"], 2) + 1)
    ]
    return rows + covers + discs


@REGISTRY.job(
    "comm.bench",
    params=("max_p", "max_cover_p", "max_m", "node_budget", "budget_s"),
    defaults={
        "max_p": 6,
        "max_cover_p": 6,
        "max_m": 2,
        "node_budget": 2_000_000,
        "budget_s": 5.0,
    },
    deps=_comm_bench_deps,
    source_modules=_COMM_BENCH_MODULES + ("repro.comm.cover", "repro.core.discrepancy"),
    description="The communication benchmark sweep (fans out one row per p / m)",
)
def comm_bench(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm.bench import summarise_cover_rows, summarise_rows

    rows = [row for row in deps if "ops" in row]
    cover_rows = [row for row in deps if "solver" in row]
    disc_rows = [row for row in deps if "m" in row]
    return {
        "max_p": params["max_p"],
        "max_cover_p": params["max_cover_p"],
        "max_m": params["max_m"],
        "node_budget": params["node_budget"],
        "rows": rows,
        "cover_rows": cover_rows,
        "disc_rows": disc_rows,
        "summary": summarise_rows(rows, params["budget_s"]),
        "cover_summary": summarise_cover_rows(cover_rows, params["budget_s"]),
    }


# ----------------------------------------------------------------------
# The automata engine (bit-parallel packed kernels) and its benchmark
# ----------------------------------------------------------------------

_AUTOMATA_MODULES = (
    "repro.automata.packed",
    "repro.automata.nfa",
    "repro.automata.dfa",
    "repro.automata.ops",
    "repro.automata.counting",
    "repro.languages.nfa_ln",
    "repro.languages.dfa_ln",
)


@REGISTRY.job(
    "automata.determinise",
    params=("n",),
    source_modules=_AUTOMATA_MODULES,
    description="Determinise + minimise the L_n match NFA (packed kernels)",
)
def automata_determinise(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.automata.packed import PackedNFA, packed_determinise, packed_minimise
    from repro.languages.nfa_ln import ln_match_nfa

    n = params["n"]
    nfa = ln_match_nfa(n)
    dfa = packed_determinise(PackedNFA.from_nfa(nfa))
    minimal = packed_minimise(dfa)
    return {
        "n": n,
        "nfa_states": nfa.n_states,
        "dfa_states": dfa.n_states,
        "min_dfa_states": minimal.n_states,
    }


@REGISTRY.job(
    "automata.ambiguity",
    params=("n", "exact"),
    defaults={"exact": True},
    source_modules=_AUTOMATA_MODULES,
    description="Unambiguity of the exact (or match) L_n NFA via the packed self-product",
)
def automata_ambiguity(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.automata.ops import is_unambiguous_nfa
    from repro.languages.nfa_ln import ln_match_nfa, ln_nfa_exact

    n, exact = params["n"], params["exact"]
    nfa = ln_nfa_exact(n) if exact else ln_match_nfa(n)
    return {
        "n": n,
        "exact": exact,
        "n_states": nfa.n_states,
        "unambiguous": is_unambiguous_nfa(nfa),
    }


@REGISTRY.job(
    "automata.count",
    params=("n", "length"),
    source_modules=_AUTOMATA_MODULES,
    description="Exact word counts at one length in the L_n match and unique-match DFAs",
)
def automata_count(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.automata.counting import count_dfa_words_of_length
    from repro.languages.dfa_ln import ln_match_minimal_dfa, ln_unique_match_dfa

    n, length = params["n"], params["length"]
    match_count = count_dfa_words_of_length(ln_match_minimal_dfa(n), length)
    unique_count = count_dfa_words_of_length(ln_unique_match_dfa(n), length)
    return {
        "n": n,
        "length": length,
        # Counts can exceed the int→str digit limit; record bits + checksum.
        "match_count_bits": match_count.bit_length(),
        "match_count_checksum": hex(match_count % (1 << 64)),
        "unique_count": unique_count,
    }


_AUTOMATA_BENCH_MODULES = ("repro.automata.bench",) + _AUTOMATA_MODULES


@REGISTRY.job(
    "automata.bench.row",
    params=("n",),
    source_modules=_AUTOMATA_BENCH_MODULES,
    description="Time legacy vs. packed determinise/minimise/ambiguity on L_n",
)
def automata_bench_row(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.automata.bench import bench_automata_row

    return bench_automata_row(params["n"])


@REGISTRY.job(
    "automata.bench.count",
    params=("exp", "n"),
    defaults={"n": 8},
    source_modules=_AUTOMATA_BENCH_MODULES,
    description="Time legacy sweep vs. packed matrix power counting words of length 2^exp",
)
def automata_bench_count(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.automata.bench import bench_count_row

    return bench_count_row(params["exp"], n=params["n"])


def _automata_bench_deps(params: dict[str, Any]) -> list[Request]:
    rows = [
        Request.make("automata.bench.row", {"n": n})
        for n in range(1, params["max_n"] + 1)
    ]
    counts = [
        Request.make("automata.bench.count", {"exp": exp, "n": 8})
        for exp in range(10, params["max_count_exp"] + 1, 2)
    ]
    return rows + counts


@REGISTRY.job(
    "automata.bench",
    params=("max_n", "max_count_exp", "budget_s"),
    defaults={"max_n": 48, "max_count_exp": 24, "budget_s": 5.0},
    deps=_automata_bench_deps,
    source_modules=_AUTOMATA_BENCH_MODULES,
    description="The automata benchmark sweep (fans out one row per n / exp)",
)
def automata_bench(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.automata.bench import summarise_automata_rows

    rows = [row for row in deps if "ops" in row]
    count_rows = [row for row in deps if "exp" in row]
    return {
        "max_n": params["max_n"],
        "max_count_exp": params["max_count_exp"],
        "rows": rows,
        "count_rows": count_rows,
        "summary": summarise_automata_rows(rows, count_rows, params["budget_s"]),
    }


# ----------------------------------------------------------------------
# The kernel-backend benchmark (reference vs. words vs. numpy vs. cext)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "backends.bench",
    params=("repeats", "seed"),
    defaults={"repeats": 5, "seed": 0},
    source_modules=(
        "repro.backend",
        "repro.backend.limbs",
        "repro.backend.reference",
        "repro.backend.words",
        "repro.backend.numpy_backend",
        "repro.backend.cext",
        "repro.backend.bench",
        "repro.extract.compile",
        "repro.extract.spec",
    ),
    description="Time every available kernel backend on each primitive family",
)
def backends_bench(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.backend.bench import bench_backends

    return bench_backends(repeats=params["repeats"], seed=params["seed"])


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------


@REGISTRY.job(
    "member",
    params=("word", "n"),
    source_modules=("repro.languages.ln",),
    description="Membership of a word in L_n, with matching positions",
)
def member_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.languages.ln import is_in_ln, match_positions

    word, n = params["word"], params["n"]
    member = is_in_ln(word, n)
    return {
        "word": word,
        "n": n,
        "member": member,
        "positions": match_positions(word, n) if member else [],
    }


# ----------------------------------------------------------------------
# Streaming spanner extraction (docs/EXTRACT.md)
# ----------------------------------------------------------------------
#
# Stream specs are *generative*: a job parameter set names a seeded
# synthetic stream plus a document shard ``[lo, hi)``, never raw
# documents — so parameters stay small and plain-JSON, every worker can
# regenerate its shard independently, and the content-addressed cache
# keys results by construction.  ``hi = -1`` means "to the end of the
# stream".

_EXTRACT_MODULES = (
    "repro.extract.spec",
    "repro.extract.compile",
    "repro.extract.scan",
    "repro.spanners.csv_match",
    "repro.automata.packed",
    "repro.automata.nfa",
    "repro.backend.limbs",
    "repro.backend.reference",
    "repro.backend.words",
)

_STREAM_PARAMS = ("c", "w", "columns", "relation", "n_docs", "seed", "match_bias")

_STREAM_DEFAULTS: dict[str, Any] = {
    "relation": "match",
    "n_docs": 1000,
    "seed": 0,
    "match_bias": 0.25,
}


def _stream_params(params: dict[str, Any]) -> dict[str, Any]:
    """The spec-defining subset of a job's parameters."""
    return {name: params[name] for name in _STREAM_PARAMS}


@REGISTRY.job(
    "extract.stream",
    params=_STREAM_PARAMS + ("lo", "hi", "chunk_chars"),
    defaults={**_STREAM_DEFAULTS, "lo": 0, "hi": -1, "chunk_chars": 1 << 16},
    source_modules=("repro.extract.spec",),
    description="Generate one shard of a seeded document stream; return its digest",
)
def extract_stream(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    """Materialise a shard chunk-by-chunk and fingerprint it (sha256).

    Proves shard-independent generation: any two decompositions of the
    same range hash identically without the stream ever being held in
    memory at once.
    """
    import hashlib

    from repro.extract.spec import StreamSpec

    spec = StreamSpec.from_params(_stream_params(params))
    lo, hi = spec.resolve_range(params["lo"], params["hi"])
    digest = hashlib.sha256()
    chars = 0
    for chunk in spec.iter_chunks(params["chunk_chars"], lo, hi):
        digest.update(chunk.encode("ascii"))
        chars += len(chunk)
    return {"lo": lo, "hi": hi, "docs": hi - lo, "chars": chars, "sha256": digest.hexdigest()}


@REGISTRY.job(
    "extract.scan",
    params=_STREAM_PARAMS + ("lo", "hi", "chunk_chars", "collect_ids", "timing"),
    defaults={
        **_STREAM_DEFAULTS,
        "lo": 0,
        "hi": -1,
        "chunk_chars": 1 << 16,
        "collect_ids": False,
        "timing": False,
    },
    source_modules=_EXTRACT_MODULES,
    description="Scan one stream shard with the compiled packed scanner",
)
def extract_scan(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    """Compile (memoised per worker) and scan a shard in constant memory.

    The result — counts, an order-sensitive checksum of the match set,
    optionally the shard-relative match ids — is deterministic, so it
    caches and coalesces safely.  ``timing=True`` adds in-worker
    ``compile_s``/``scan_s`` *CPU* seconds (``time.process_time``, so
    workers contending for cores do not inflate each other's figures)
    for the benchmark's per-core throughput accounting; like
    ``debug.storm``, timed runs belong under ``--no-cache``.
    """
    from time import process_time

    from repro.extract.compile import scanner_for_spec
    from repro.extract.scan import StreamScanner, scan_stream
    from repro.extract.spec import StreamSpec

    spec = StreamSpec.from_params(_stream_params(params))
    start = process_time()
    scanner = StreamScanner(scanner_for_spec(spec), collect_ids=params["collect_ids"])
    compile_s = process_time() - start
    start = process_time()
    result = scan_stream(
        spec,
        chunk_chars=params["chunk_chars"],
        lo=params["lo"],
        hi=params["hi"],
        scanner=scanner,
    )
    if params["timing"]:
        result["compile_s"] = round(compile_s, 6)
        result["scan_s"] = round(process_time() - start, 6)
    return result


@REGISTRY.job(
    "extract.verify",
    params=_STREAM_PARAMS + ("lo", "hi", "chunk_chars"),
    defaults={**_STREAM_DEFAULTS, "lo": 0, "hi": -1, "chunk_chars": 1 << 16},
    source_modules=_EXTRACT_MODULES + _KERNEL_MODULES + ("repro.grammars.cnf",),
    description="Cross-check the packed scanner against both oracles on a shard",
)
def extract_verify(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    """Scanner vs. the semantic brute force vs. the batched CFG recogniser.

    All three must produce the identical match-id set or the job fails —
    this is the grammar-side verification path (BatchedRecognizer prefix
    sharing) wired into the fan-out, not just the test suite.
    """
    from repro.extract.scan import batched_oracle_scan, scan_stream, semantic_scan
    from repro.extract.spec import StreamSpec

    spec = StreamSpec.from_params(_stream_params(params))
    lo, hi = params["lo"], params["hi"]
    scanned = scan_stream(
        spec, chunk_chars=params["chunk_chars"], lo=lo, hi=hi, collect_ids=True
    )
    for oracle_name, oracle in (
        ("semantic", semantic_scan),
        ("cfg_batched", batched_oracle_scan),
    ):
        expected = oracle(spec, lo, hi)
        if scanned["match_ids"] != expected["match_ids"]:
            raise ValueError(
                f"extract.verify: scanner disagrees with {oracle_name} oracle on "
                f"shard [{lo}, {hi}): {len(scanned['match_ids'])} vs "
                f"{len(expected['match_ids'])} matches"
            )
    return {
        "lo": scanned["lo"],
        "hi": scanned["hi"],
        "docs": scanned["docs"],
        "matches": scanned["matches"],
        "checksum": scanned["checksum"],
        "oracles": ["semantic", "cfg_batched"],
        "agree": True,
    }


def _extract_aggregate_deps(params: dict[str, Any]) -> list[Request]:
    from repro.extract.spec import StreamSpec

    spec = StreamSpec.from_params(_stream_params(params))
    stream = _stream_params(params)
    requests = []
    verify_docs = min(params["verify_docs"], spec.n_docs)
    if verify_docs:
        requests.append(
            Request.make(
                "extract.verify",
                {**stream, "lo": 0, "hi": verify_docs, "chunk_chars": params["chunk_chars"]},
            )
        )
    for lo, hi in spec.shard_ranges(params["shards"]):
        requests.append(
            Request.make(
                "extract.scan",
                {**stream, "lo": lo, "hi": hi, "chunk_chars": params["chunk_chars"]},
            )
        )
    return requests


@REGISTRY.job(
    "extract.aggregate",
    params=_STREAM_PARAMS + ("shards", "chunk_chars", "verify_docs"),
    defaults={**_STREAM_DEFAULTS, "shards": 4, "chunk_chars": 1 << 16, "verify_docs": 0},
    deps=_extract_aggregate_deps,
    source_modules=_EXTRACT_MODULES,
    description="Fan a stream out as scan shards (plus optional verify) and combine",
)
def extract_aggregate(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    """Combine shard results into stream totals.

    Shard checksums certify shard-relative match sets; the stream-level
    checksum folds ``(lo, checksum)`` pairs in shard order, so any two
    runs over the same stream — whatever the worker count — agree.
    """
    verify_rows = [row for row in deps if row and "agree" in row]
    scan_rows = sorted(
        (row for row in deps if row and "agree" not in row), key=lambda row: row["lo"]
    )
    docs = sum(row["docs"] for row in scan_rows)
    matches = sum(row["matches"] for row in scan_rows)
    checksum = 0
    for row in scan_rows:
        checksum = (checksum * 1000003 + row["lo"] + 1) & ((1 << 64) - 1)
        checksum = (checksum * 1000003 + row["checksum"] + 1) & ((1 << 64) - 1)
    return {
        "docs": docs,
        "matches": matches,
        "density": round(matches / docs, 6) if docs else 0.0,
        "checksum": checksum,
        "verified": bool(verify_rows) and all(row["agree"] for row in verify_rows),
        "shards": [
            {
                "lo": row["lo"],
                "hi": row["hi"],
                "matches": row["matches"],
                "checksum": row["checksum"],
            }
            for row in scan_rows
        ],
    }


# ----------------------------------------------------------------------
# Debug and fault-injection jobs (engine smoke tests; the chaos suite)
# ----------------------------------------------------------------------
#
# The ``debug.flaky`` / ``debug.hang`` / ``debug.crash`` trio exists to
# prove the engine's failure semantics under load (tests/test_faults.py):
# retries with backoff, every-iteration timeout enforcement, and recovery
# from worker death.  ``debug.flaky`` and ``debug.crash`` read the
# reserved ``_attempt`` parameter the scheduler injects into every call,
# so their behaviour is identical under serial and parallel retries.


@REGISTRY.job(
    "debug.echo",
    params=("value",),
    defaults={"value": None},
    description="Return the given value unchanged",
)
def debug_echo(params: dict[str, Any], deps: list[Any]) -> Any:
    return params["value"]


@REGISTRY.job(
    "debug.fail",
    params=("message",),
    defaults={"message": "debug.fail"},
    description="Raise RuntimeError (worker-failure propagation tests)",
)
def debug_fail(params: dict[str, Any], deps: list[Any]) -> Any:
    raise RuntimeError(params["message"])


@REGISTRY.job(
    "debug.sleep",
    params=("seconds", "tag"),
    defaults={"seconds": 0.1, "tag": 0},
    description="Sleep, then return the slept duration (timeout tests)",
)
def debug_sleep(params: dict[str, Any], deps: list[Any]) -> Any:
    """Sleep and return the duration.  ``tag`` only distinguishes cache
    keys, so concurrency tests can mint distinct in-flight identities."""
    time.sleep(params["seconds"])
    return params["seconds"]


@REGISTRY.job(
    "debug.flaky",
    params=("fails", "value"),
    defaults={"fails": 1, "value": "ok"},
    description="Fail the first `fails` attempts, then return the value",
)
def debug_flaky(params: dict[str, Any], deps: list[Any]) -> Any:
    """Raise on attempts 1..``fails``; succeed from attempt ``fails + 1`` on.

    The attempt number is the engine-injected ``_attempt`` counter, so the
    job is deterministic across serial and parallel retry runs.
    """
    attempt = params.get("_attempt", 1)
    if attempt <= params["fails"]:
        raise RuntimeError(
            f"debug.flaky: injected failure on attempt {attempt}/{params['fails']}"
        )
    return {"value": params["value"], "succeeded_on_attempt": attempt}


@REGISTRY.job(
    "debug.hang",
    params=("tag",),
    defaults={"tag": 0},
    description="Sleep forever (timeout-enforcement tests)",
)
def debug_hang(params: dict[str, Any], deps: list[Any]) -> Any:
    """Never return; only a per-job timeout can end this job.

    ``tag`` only distinguishes requests (and cache keys) from each other.
    """
    while True:
        time.sleep(3600)


@REGISTRY.job(
    "debug.crash",
    params=("crashes",),
    defaults={"crashes": 1},
    description="Kill own worker via os._exit for the first `crashes` attempts",
)
def debug_crash(params: dict[str, Any], deps: list[Any]) -> Any:
    """Die without cleanup on attempts 1..``crashes``, then succeed.

    Simulates a worker lost to the OOM killer or a hard signal: the
    parent sees ``BrokenProcessPool``, replaces the pool, and retries.
    Refuses to run outside an engine worker — in-process execution would
    take the caller's interpreter down with it.
    """
    from repro.engine.scheduler import in_worker

    attempt = params.get("_attempt", 1)
    if attempt <= params["crashes"]:
        if not in_worker():
            raise RuntimeError(
                "debug.crash: refusing to os._exit outside an engine worker "
                "(serial runs execute in-process)"
            )
        os._exit(17)
    return {"survived_attempt": attempt}


@REGISTRY.job(
    "debug.storm",
    params=("requests", "concurrency", "seed", "host", "port", "faults"),
    defaults={
        "requests": 60,
        "concurrency": 8,
        "seed": 0,
        "host": "",
        "port": 0,
        "faults": True,
    },
    source_modules=(
        "repro.serve.storm",
        "repro.serve.server",
        "repro.serve.broker",
        "repro.serve.client",
    ),
    description="Replay mixed traffic (hits, sweeps, faults) against a job server",
)
def debug_storm(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    """Drive a live server with the seeded storm mixture (see repro.serve.storm).

    ``host=""`` (the default) boots an embedded server on an ephemeral
    port, drains it afterwards, and reports ``clean_shutdown``; a
    non-empty host targets an already-running server and leaves it up.
    Timings make the result non-deterministic — run it with ``--no-cache``.
    """
    from repro.serve.storm import run_storm

    return run_storm(
        host=params["host"] or None,
        port=params["port"],
        requests=params["requests"],
        concurrency=params["concurrency"],
        seed=params["seed"],
        faults=params["faults"],
    )
