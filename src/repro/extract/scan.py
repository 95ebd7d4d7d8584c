"""Constant-memory chunked scanning with document-parallel bit kernels.

The scanner consumes a stream of chunks whose boundaries fall anywhere.
Each chunk is **checked as it arrives**: encoded as ASCII and handed to
the backend's ``find_foreign``, so a character other than ``a``/``b``
raises :class:`~repro.errors.SymbolError` with its offset in that chunk
before anything else happens.  The checked text is then **deferred**
(:class:`ScanState`'s ``deferred``, ending in ``carry``, the unfinished
document) until it holds a whole slice of
:data:`~repro.backend.reference.SCAN_SLICE` documents, or until
``finish``.  Only then does the backend's ``layered_scan`` run — **once**,
over every whole document — scanning them *in parallel across
documents* (the reference occupancy walk over per-phase bit columns, or
numpy's block-table gathers), counting the matches and folding their
ids into the checksum.  An op of fewer than a slice of documents thus
makes one kernel call, at ``finish``, however it is chunked.

Chunking invariant: for any chunk decomposition of the same stream, the
final ``(docs, matches, checksum, match_ids)`` are identical — every
document is scanned whole, by the same kernel.

Three oracles live here too: :func:`semantic_scan` (per-document brute
force), :func:`batched_oracle_scan` (grammar-side verification through
:class:`~repro.kernel.batch.BatchedRecognizer` prefix sharing), and
:func:`naive_cfg_scan` — the frozen per-document CFG-chart baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.backend import get_backend
from repro.backend.reference import SCAN_SLICE, fold_checksum
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
    """A scan's accumulators, plus the checked text not yet scanned.

    ``deferred`` holds that text as ASCII bytes: the whole documents after
    the first ``docs_done``, then ``carry``, the unfinished document,
    which is always shorter than the document length.  Once a second
    chunk joins it, ``deferred`` is a ``bytearray`` that later feeds grow
    in place.
    """

    docs_done: int = 0
    matches: int = 0
    checksum: int = 0
    match_ids: list[int] | None = None
    carry: str = ""
    deferred: bytes | bytearray = b""

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
    checks and scans every chunk it is fed, so build it inside the
    ``use_backend`` scope that should run it.  Its ``make_layered_scan``
    kernel is built once per (compiled scanner, backend) by
    :meth:`CompiledScanner.scan_kernel` and shared by every
    ``StreamScanner``; both the check and the scan are calls of backend
    methods, ``find_foreign`` and ``layered_scan``.
    """

    def __init__(self, compiled: CompiledScanner, *, collect_ids: bool = False):
        self.compiled = compiled
        self.doc_len = compiled.doc_len
        self.collect_ids = collect_ids
        self._backend = get_backend()
        self._kernel = compiled.scan_kernel(self._backend)
        self._slice_chars = SCAN_SLICE * self.doc_len

    def new_state(self) -> ScanState:
        return ScanState(match_ids=[] if self.collect_ids else None)

    def feed(self, state: ScanState, chunk: str) -> ScanState:
        """Check one chunk (possibly empty), defer it, and return the new state.

        A character other than ``a``/``b`` raises
        :class:`~repro.errors.SymbolError` naming its offset in
        ``chunk``; ``state`` is then unchanged.  Otherwise the chunk joins
        the deferred text, and once that holds a whole slice of
        documents, every whole document of it is scanned in this call.
        """
        data = chunk.encode("ascii", "replace")
        offset = self._backend.find_foreign(data)
        if offset >= 0:
            raise SymbolError(offset, chunk[offset])
        doc_len = self.doc_len
        pending = state.deferred
        if pending and len(data) >= self._slice_chars + doc_len:
            # Rather than copy a chunk of a slice or more onto the deferred
            # text, finish the carried document from the chunk's head, scan
            # it with the deferred ones, and scan the rest of the chunk in
            # place.
            head = -len(pending) % doc_len
            self._scan(state, pending + data[:head])
            pending, data = b"", memoryview(data)[head:]
        if not pending:
            pending = data
        elif data:
            if not isinstance(pending, bytearray):
                pending = bytearray(pending)  # grown in place from here on
            pending += data
        tail = len(pending) % doc_len
        if len(pending) >= self._slice_chars:
            self._scan(state, pending)
            pending = bytes(pending[len(pending) - tail :])
        state.carry = str(pending[len(pending) - tail :], "ascii")
        state.deferred = pending
        return state

    def _scan(self, state: ScanState, body) -> None:
        """One kernel call over the whole documents of ``body``, checked
        text that starts at document ``docs_done``; none without one."""
        n_docs = len(body) // self.doc_len
        if n_docs:
            count, state.checksum = self._backend.layered_scan(
                self._kernel, body, state.checksum, state.docs_done, state.match_ids
            )
            state.docs_done += n_docs
            state.matches += count

    def finish(self, state: ScanState) -> dict[str, Any]:
        """Scan the deferred documents and return the result.

        A stream that ends mid-document raises ``ValueError`` and leaves
        ``state`` unchanged.
        """
        if state.carry:
            raise ValueError(
                f"stream ended mid-document: {len(state.carry)}/{self.doc_len} chars"
            )
        self._scan(state, state.deferred)
        state.deferred = b""
        return state.result()

    def scan_chunks(self, chunks) -> dict[str, Any]:
        state = self.new_state()
        for chunk in chunks:
            self.feed(state, chunk)
        return self.finish(state)


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
