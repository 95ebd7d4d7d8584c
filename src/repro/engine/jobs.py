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
from repro.errors import require_int
from repro.util.tables import format_int

__all__ = ["REGISTRY", "default_registry"]

REGISTRY = JobRegistry()


def default_registry() -> JobRegistry:
    """The registry holding every built-in paper job."""
    return REGISTRY


def _require_ints(params: dict[str, Any], *names: str) -> None:
    """Refuse a bool, float or str for each named integer parameter.

    Every job below calls this first (a job with dependencies, in its
    ``deps`` function, which the engine runs before anything else), so a
    malformed request fails with a :class:`~repro.errors.ReproError`
    naming the parameter instead of computing under the label ``true``
    or crashing deep inside the job.
    """
    for name in names:
        require_int(name, params[name])


#: The semiring chart-parsing kernel.  Every job whose computation routes
#: through parsing (covers, the zoo's disambiguation, extraction's CFG
#: oracle) lists these so kernel edits invalidate exactly their cached
#: results.
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
    """The CFG, NFA and uCFG sizes of Theorem 1 for one ``n``.

    The NFA column is the closed form ``n + 2``
    (:func:`~repro.languages.nfa_ln.ln_match_nfa_states`); the automaton
    itself is never built, which at ``n = 2^20`` would take seconds and
    about 1.5 GB.
    """
    from repro.core.lower_bound import certificate
    from repro.languages.nfa_ln import ln_match_nfa_states
    from repro.languages.small_grammar import small_ln_grammar
    from repro.languages.unambiguous_grammar import example4_size

    _require_ints(params, "n")
    n = params["n"]
    cert = certificate(n)
    cfg_size = small_ln_grammar(n).size
    return {
        "n": n,
        "cfg_size": cfg_size,
        # log2(1) = 0: the ratio has no value at n = 1.
        "cfg_per_log2": f"{cfg_size / math.log2(n):.1f}" if n > 1 else "-",
        "nfa_states": ln_match_nfa_states(n),
        "ucfg_constr": format_int(example4_size(n)),
        "ucfg_bound": format_int(cert.ucfg_bound),
    }


def _sizes_table_deps(params: dict[str, Any]) -> list[Request]:
    _require_ints(params, "max_exp")
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

    _require_ints(params, "n")
    # certificate() verifies every certificate it builds before caching it.
    return certificate(params["n"]).to_dict()


@REGISTRY.job(
    "grammar",
    params=("n",),
    source_modules=("repro.languages.small_grammar", "repro.grammars.cfg"),
    description="The Θ(log n) Appendix A grammar for L_n",
)
def grammar_job(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.languages.small_grammar import small_ln_grammar

    _require_ints(params, "n")
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

    _require_ints(params, "n")
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

    _require_ints(params, "m")
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

    _require_ints(params, "m", "lo", "hi")
    m, lo, hi = params["m"], params["lo"], params["hi"]
    partition = OrderedPartition(n=4 * m, lo=lo, hi=hi, interval_part=0)
    value, exact = max_discrepancy_over_partition(partition, m)
    return {"lo": lo, "hi": hi, "max_disc": value, "exact": exact}


def _discrepancy_deps(params: dict[str, Any]) -> list[Request]:
    from repro.core.partitions import iter_neat_balanced_partitions

    _require_ints(params, "m")
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
        "repro.comm.cover",
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

    _require_ints(params, "p")
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
# The cover solver (branch-and-price, arbitrary 0/1 matrices)
# ----------------------------------------------------------------------


@REGISTRY.job(
    "comm.cover.solve",
    params=("matrix", "mode", "node_budget"),
    defaults={"mode": "disjoint", "node_budget": 2_000_000},
    source_modules=(
        "repro.comm.cover",
        "repro.comm.fooling",
        "repro.comm.matrix",
        "repro.comm.packed",
        "repro.comm.rank",
    ),
    description="Certified minimum rectangle cover of an arbitrary 0/1 matrix",
)
def comm_cover_solve(params: dict[str, Any], deps: list[Any]) -> dict[str, Any]:
    from repro.comm.cover import solve_cover

    _require_ints(params, "node_budget")
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

    _require_ints(params, "k")
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

    _require_ints(params, "n")
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
    _require_ints(params, "max_n")
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
# The automata engine (bit-parallel packed kernels)
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

    _require_ints(params, "n")
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

    _require_ints(params, "n")
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

    _require_ints(params, "n", "length")
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

    _require_ints(params, "repeats", "seed")
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

    _require_ints(params, "n")
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

    _require_ints(params, "lo", "hi", "chunk_chars")
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
    for per-core throughput accounting; like ``debug.storm``, timed runs
    belong under ``--no-cache``.
    """
    from time import process_time

    from repro.extract.compile import scanner_for_spec
    from repro.extract.scan import StreamScanner, scan_stream
    from repro.extract.spec import StreamSpec

    _require_ints(params, "lo", "hi", "chunk_chars")
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

    _require_ints(params, "lo", "hi", "chunk_chars")
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

    _require_ints(params, "shards", "chunk_chars", "verify_docs")
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
