"""Constant-memory chunked scanning with document-parallel bit kernels.

The scanner consumes a stream of chunks whose boundaries fall anywhere.
Per chunk it splits the text into three parts:

1. **head** — the tail of a document begun in an earlier chunk.  The
   carried frontier (:class:`ScanState`: current DFA state + phase)
   advances by a scalar walk over the *same* minimal DFA, so a match
   straddling a boundary is found exactly.
2. **body** — the whole documents fully inside the chunk.  These are
   scanned *in parallel across documents* by the backend's
   ``make_layered_scan`` kernel, which returns the chunk's accept mask
   (bit ``d`` = document ``d`` matched): the reference occupancy walk
   over per-phase bit columns, or numpy's block-table gathers.  The
   backend's ``fold_indices`` then counts the matches and folds their
   ids into the checksum.
3. **tail** — the prefix of a document that will finish in a later
   chunk; it becomes the next carried frontier.

Chunking invariant: for any chunk decomposition of the same stream, the
final ``(docs, matches, checksum, match_ids)`` are identical — the
boundary walk and the bit-parallel body run the same DFA.  A character
other than ``a``/``b`` anywhere in a chunk raises
:class:`~repro.errors.SymbolError` with its chunk offset.

Three oracles live here too: :func:`semantic_scan` (per-document brute
force), :func:`batched_oracle_scan` (grammar-side verification through
:class:`~repro.kernel.batch.BatchedRecognizer` prefix sharing), and
:func:`naive_cfg_scan` — the frozen per-document CFG-chart baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.backend import get_backend
from repro.backend.reference import fold_checksum, foreign_symbol
from repro.errors import SymbolError
from repro.grammars.cnf import to_cnf
from repro.kernel.batch import BatchedRecognizer
from repro.kernel.chart import recognise_cnf
from repro.spanners.csv_match import column_relation_cfg, is_column_related

from repro.extract.compile import CompiledScanner, scanner_for_spec
from repro.extract.spec import StreamSpec

__all__ = [
    "ScanState",
    "StreamScanner",
    "scan_stream",
    "fold_checksum",
    "semantic_scan",
    "batched_oracle_scan",
    "naive_cfg_scan",
]


@dataclass
class ScanState:
    """The frontier carried across chunk boundaries, plus accumulators."""

    state: int
    phase: int = 0
    docs_done: int = 0
    matches: int = 0
    checksum: int = 0
    match_ids: list[int] | None = None

    def result(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "docs": self.docs_done,
            "matches": self.matches,
            "checksum": self.checksum,
        }
        if self.match_ids is not None:
            out["match_ids"] = list(self.match_ids)
        return out


class StreamScanner:
    """Feed chunks of a document stream through a compiled scanner.

    The kernel backend is resolved **once, here**: the active backend
    (see :func:`repro.backend.get_backend`) when the scanner is built
    serves every chunk it is fed, so build it inside the
    ``use_backend`` scope that should run it.  Whole documents go
    through that backend's ``make_layered_scan`` kernel — built once per
    (compiled scanner, backend) by :meth:`CompiledScanner.layered_scan`
    and shared by every ``StreamScanner`` — and its ``fold_indices``;
    the scalar boundary walk is the same for every backend.
    """

    def __init__(self, compiled: CompiledScanner, *, collect_ids: bool = False):
        self.compiled = compiled
        self.doc_len = compiled.doc_len
        self.collect_ids = collect_ids
        dfa = compiled.dfa
        self._table_a = dfa.tables[0]
        self._table_b = dfa.tables[1]
        self._initial = dfa.initial
        self._accepting_mask = dfa.accepting_mask
        self._backend = get_backend()
        self._scan_body = compiled.layered_scan(self._backend)

    def new_state(self) -> ScanState:
        return ScanState(
            state=self._initial,
            match_ids=[] if self.collect_ids else None,
        )

    def feed(self, state: ScanState, chunk: str) -> ScanState:
        """Consume one chunk (possibly empty) and return the new state.

        A character other than ``a``/``b`` raises
        :class:`~repro.errors.SymbolError` naming its offset in
        ``chunk``; ``state`` is then partly advanced and should be
        dropped.
        """
        pos = 0
        length = self.doc_len
        if state.phase:
            take = min(length - state.phase, len(chunk))
            self._scalar(state, chunk, 0, take)
            pos = take
        n_full = (len(chunk) - pos) // length
        if n_full:
            try:
                self._bulk(state, chunk[pos : pos + n_full * length], n_full)
            except SymbolError as exc:
                raise SymbolError(pos + exc.offset, exc.char) from None
            pos += n_full * length
        if pos < len(chunk):
            self._scalar(state, chunk, pos, len(chunk) - pos)
        return state

    def finish(self, state: ScanState) -> dict[str, Any]:
        """Validate end-of-stream (no dangling partial document)."""
        if state.phase:
            raise ValueError(
                f"stream ended mid-document: {state.phase}/{self.doc_len} chars"
            )
        return state.result()

    def scan_chunks(self, chunks) -> dict[str, Any]:
        state = self.new_state()
        for chunk in chunks:
            self.feed(state, chunk)
        return self.finish(state)

    # -- scalar boundary walk -------------------------------------------

    def _scalar(self, state: ScanState, chunk: str, pos: int, count: int) -> None:
        table_a, table_b = self._table_a, self._table_b
        q, phase, length = state.state, state.phase, self.doc_len
        for ch in chunk[pos : pos + count]:
            if ch == "b":
                q = table_b[q]
            elif ch == "a":
                q = table_a[q]
            else:
                raise foreign_symbol(chunk[pos : pos + count], pos)
            phase += 1
            if phase == length:
                if (self._accepting_mask >> q) & 1:
                    doc_id = state.docs_done
                    state.matches += 1
                    state.checksum = fold_checksum(state.checksum, doc_id)
                    if state.match_ids is not None:
                        state.match_ids.append(doc_id)
                state.docs_done += 1
                q, phase = self._initial, 0
        state.state, state.phase = q, phase

    # -- document-parallel body kernel ----------------------------------

    def _bulk(self, state: ScanState, body: str, n_docs: int) -> None:
        accept_mask = self._scan_body(body)
        base = state.docs_done
        count, state.checksum = self._backend.fold_indices(accept_mask, state.checksum, base)
        state.matches += count
        if count and state.match_ids is not None:
            state.match_ids.extend(base + i for i in self._backend.bit_indices(accept_mask))
        state.docs_done += n_docs


def scan_stream(
    spec: StreamSpec,
    *,
    chunk_chars: int = 1 << 16,
    lo: int = 0,
    hi: int | None = None,
    collect_ids: bool = False,
    scanner: StreamScanner | None = None,
) -> dict[str, Any]:
    """Scan a shard of a stream; constant memory in the shard size.

    Document ids in the result are *relative to the shard* (the caller
    re-bases when aggregating shards, see ``extract.aggregate``).
    """
    if scanner is None:
        scanner = StreamScanner(scanner_for_spec(spec), collect_ids=collect_ids)
    lo, hi = spec.resolve_range(lo, hi)
    result = scanner.scan_chunks(spec.iter_chunks(chunk_chars, lo, hi))
    result["lo"], result["hi"] = lo, hi
    result["chars"] = (hi - lo) * spec.doc_len
    return result


# -- oracles -------------------------------------------------------------


def _oracle_result(spec: StreamSpec, lo: int, hi: int, flags) -> dict[str, Any]:
    matches = 0
    checksum = 0
    match_ids: list[int] = []
    for offset, matched in enumerate(flags):
        if matched:
            matches += 1
            checksum = fold_checksum(checksum, offset)
            match_ids.append(offset)
    return {
        "docs": hi - lo,
        "matches": matches,
        "checksum": checksum,
        "match_ids": match_ids,
        "lo": lo,
        "hi": hi,
        "chars": (hi - lo) * spec.doc_len,
    }


def semantic_scan(spec: StreamSpec, lo: int = 0, hi: int | None = None) -> dict[str, Any]:
    """Per-document brute-force oracle (:func:`is_column_related`)."""
    lo, hi = spec.resolve_range(lo, hi)
    pairs = spec.pairs()
    flags = (
        is_column_related(doc, spec.c, spec.w, spec.columns, pairs)
        for doc in spec.iter_documents(lo, hi)
    )
    return _oracle_result(spec, lo, hi, flags)


def batched_oracle_scan(
    spec: StreamSpec, lo: int = 0, hi: int | None = None
) -> dict[str, Any]:
    """Grammar-side oracle: CNF of the relation CFG via prefix-sharing
    :class:`BatchedRecognizer` — the verification path of the pipeline."""
    lo, hi = spec.resolve_range(lo, hi)
    grammar = to_cnf(column_relation_cfg(spec.c, spec.w, spec.columns, spec.pairs()))
    recognizer = BatchedRecognizer(grammar)
    docs = list(spec.iter_documents(lo, hi))
    verdicts = recognizer.recognise_many(docs)
    return _oracle_result(spec, lo, hi, (verdicts[doc] for doc in docs))


def naive_cfg_scan(spec: StreamSpec, lo: int = 0, hi: int | None = None) -> dict[str, Any]:
    """The frozen baseline: an independent CFG chart per document.

    This is exactly what ``repro.spanners`` offered before this module
    existed; the compiled scanner ran 240–253x faster on every backend
    (docs/EXTRACT.md).
    """
    lo, hi = spec.resolve_range(lo, hi)
    grammar = to_cnf(column_relation_cfg(spec.c, spec.w, spec.columns, spec.pairs()))
    flags = (recognise_cnf(grammar, doc) for doc in spec.iter_documents(lo, hi))
    return _oracle_result(spec, lo, hi, flags)
