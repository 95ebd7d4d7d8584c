"""Constant-memory chunked scanning with document-parallel bit kernels.

The scanner consumes a stream of chunks whose boundaries fall anywhere.
It carries the unfinished document between chunks as a string shorter
than the document length (:class:`ScanState`'s ``carry``).  Per chunk,
``carry + chunk`` goes to the backend's ``make_layered_scan`` kernel in
**one call**: the kernel checks every character, scans the whole
documents *in parallel across documents* — the reference occupancy walk
over per-phase bit columns, or numpy's block-table gathers — counts the
matches and folds their ids into the checksum.  What is left after the
last whole document becomes the next carry.

Chunking invariant: for any chunk decomposition of the same stream, the
final ``(docs, matches, checksum, match_ids)`` are identical — every
document is scanned whole, by the same kernel.  A character other than
``a``/``b`` anywhere in a chunk raises
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
from repro.backend.reference import fold_checksum
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
    """A scan's accumulators, plus the unfinished document carried
    between chunks (always shorter than the document length)."""

    docs_done: int = 0
    matches: int = 0
    checksum: int = 0
    match_ids: list[int] | None = None
    carry: str = ""

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
    ``use_backend`` scope that should run it.  Every chunk goes through
    that backend's ``make_layered_scan`` kernel, built once per
    (compiled scanner, backend) by :meth:`CompiledScanner.layered_scan`
    and shared by every ``StreamScanner``.
    """

    def __init__(self, compiled: CompiledScanner, *, collect_ids: bool = False):
        self.compiled = compiled
        self.doc_len = compiled.doc_len
        self.collect_ids = collect_ids
        self._backend = get_backend()
        self._scan = compiled.layered_scan(self._backend)

    def new_state(self) -> ScanState:
        return ScanState(match_ids=[] if self.collect_ids else None)

    def feed(self, state: ScanState, chunk: str) -> ScanState:
        """Consume one chunk (possibly empty) and return the new state.

        The carried document and ``chunk`` go to the kernel in one call.
        A character other than ``a``/``b`` raises
        :class:`~repro.errors.SymbolError` naming its offset in
        ``chunk``; ``state`` is then unchanged.
        """
        carry = state.carry
        text = carry + chunk
        try:
            count, checksum = self._scan(text, state.checksum, state.docs_done, state.match_ids)
        except SymbolError as exc:
            raise SymbolError(exc.offset - len(carry), exc.char) from None
        n_docs = len(text) // self.doc_len
        state.docs_done += n_docs
        state.matches += count
        state.checksum = checksum
        state.carry = text[n_docs * self.doc_len :]
        return state

    def finish(self, state: ScanState) -> dict[str, Any]:
        """Validate end-of-stream (no dangling partial document)."""
        if state.carry:
            raise ValueError(
                f"stream ended mid-document: {len(state.carry)}/{self.doc_len} chars"
            )
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
