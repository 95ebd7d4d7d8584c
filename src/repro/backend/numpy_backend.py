"""The ``numpy`` backend: vectorised kernels, auto-detected, never required.

numpy is imported lazily and probed once; when it is missing the backend
reports itself unavailable and the registry never instantiates it — no
module in this repository hard-depends on numpy.

Only kernels where vectorisation *measurably* beats both the reference
big-int loops and the ``words`` variants are overridden.  That set is
deliberately small: most of this repository's inner loops run on Python
big-int masks whose C-level bitwise ops already process 30-bit digits
per interpreter step, and round-tripping every call through uint64
arrays costs more than it saves (the packed GF(2) elimination, for
example, measured *slower* under numpy than the words xor basis at every
size tried — so it is inherited, not vectorised).  What survives:

* :meth:`NumpyBackend.max_bilinear` — the exact discrepancy
  maximisation enumerates all ``2^dim`` row subsets; the subset→column
  sums table is built by int64 doubling (``sums[S ∪ {i}] = sums[S] +
  row_i``) and reduced with vectorised clamps, ~2–7x over the Gray-code
  SWAR sweep within the guards below.  Inputs that could overflow int64
  or blow the memory cap fall back to the inherited SWAR kernel, so
  results stay bit-exact for every input.
* :meth:`NumpyBackend.make_layered_scan` / :meth:`NumpyBackend.layered_scan`
  — the extraction scan.  The factory composes the DFA's transition
  table into *block tables* over ``_SCAN_BLOCK`` = 4 characters, one
  per block of the document, each over the states reachable where its
  block starts, numbered locally (a final partial block gets a
  narrower table, folded straight into acceptance).  A scan views the
  checked documents' bytes as one little-endian uint32 per block, turns
  each into its 4-bit code with one multiply, and runs ``⌈L/4⌉``
  gathers ``q = T_j[q, code]`` over all documents at once.  A document
  costs the same however many DFA states are live, where the inherited
  occupancy walk pays one Python iteration per live state per phase
  (up to 1,024 for a 5-column query).  The same call folds the matches
  into the checksum in closed form — one wrapping uint64 dot against
  inverse powers of the multiplier — instead of one Python call per
  match.  It works in slices of at most ``SCAN_SLICE`` documents, so
  its temporaries and the powers table stay bounded whatever the
  body's size.  It does not check the body: ``StreamScanner`` checks
  each chunk as it arrives, with :meth:`NumpyBackend.find_foreign` —
  the byte array's min and max on wide chunks, the inherited
  delete-translate on narrow ones.

Everything else — chunked step tables, xor-basis GF(2), word-at-a-time
scans, and the inherited reference kernels — comes from
:class:`~repro.backend.words.WordsBackend`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.backend.limbs import mask_to_bytes
from repro.backend.reference import CHECKSUM_MULTIPLIER, SCAN_SLICE, iter_bits
from repro.backend.words import WordsBackend

__all__ = ["NumpyBackend", "numpy_version"]

try:  # pragma: no cover - exercised implicitly by availability tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def numpy_version() -> str | None:
    """The detected numpy version, or ``None`` when numpy is absent."""
    return None if _np is None else str(_np.__version__)


#: Cap on the subset-sums table (cells); 2^22 int64 cells ≈ 32 MiB.
_BILINEAR_CELL_CAP = 1 << 22

#: Characters per block-table gather in the extraction scan: 16 successors
#: per state, and a block of the body's bytes is one uint32 word.
_SCAN_BLOCK = 4
#: Chunk bytes below which the symbol check delegates: the inherited
#: delete-translate costs ~0.3 ns a byte, the byte array's min and max
#: ~2.2 µs a call, so they cross near 7 KB.
_CHECK_MIN_BYTES = 1 << 13
_U64 = (1 << 64) - 1
#: ``M^-1 mod 2^64``: the multiplier is odd, so it is a unit mod 2^64.
_INVERSE_MULTIPLIER = pow(CHECKSUM_MULTIPLIER, -1, 1 << 64)
_inverse_powers_table = None


def _inverse_powers(count: int):
    """``M^-1 .. M^-n mod 2^64`` for some ``n >= count``, read-only.

    One table serves the whole process.  It is regrown to the next power
    of two when a slice has more matches than it covers, so it never
    holds more than ``SCAN_SLICE`` entries.  uint64 arrays wrap
    silently; numpy *scalar* arithmetic would warn.
    """
    global _inverse_powers_table
    powers = _inverse_powers_table
    if powers is None or len(powers) < count:
        powers = _np.full(1 << (count - 1).bit_length(), _INVERSE_MULTIPLIER, dtype=_np.uint64)
        _np.cumprod(powers, out=powers)
        powers.flags.writeable = False
        _inverse_powers_table = powers
    return powers


def _accepted(raw, doc_len: int, steps, final):
    """Indices of the documents of ``raw`` — whole ``doc_len``-byte ones —
    that the block tables ``steps`` and ``final`` accept."""
    n_docs = len(raw) // doc_len
    n_blocks = len(steps) + 1
    padded = n_blocks * _SCAN_BLOCK
    if padded != doc_len:
        wide = _np.zeros((n_docs, padded), dtype=_np.uint8)
        wide[:, :doc_len] = raw.reshape(n_docs, doc_len)
        raw = wide
    # Bit 1 of a byte is its b-bit ('a' = 0x61, 'b' = 0x62, padding 0);
    # the multiply moves the four b-bits of a little-endian uint32 block
    # to bits 28..31 without carries, the rest off the top.  Row j of
    # ``codes`` is block j of every document.
    codes = raw.view("<u4").reshape(n_docs, n_blocks) & 0x02020202
    codes *= 0x08102040
    codes >>= 28
    codes = codes.T.astype(_np.intp, order="C")
    rows = codes[0]  # the initial state is row 0 of block 0
    for j, step in enumerate(steps, 1):
        rows = step[rows]
        rows += codes[j]
    return _np.flatnonzero(final[rows])


class NumpyBackend(WordsBackend):
    """Vectorised kernels where they win; words/reference elsewhere."""

    name = "numpy"

    @staticmethod
    def available() -> bool:
        return _np is not None

    @staticmethod
    def describe() -> str:
        if _np is None:
            return "unavailable (numpy not importable)"
        return f"vectorised bilinear enumeration, block-table scans (numpy {_np.__version__})"

    @staticmethod
    def unavailable_reason() -> str | None:
        if _np is not None:
            return None
        return "numpy is not importable in this environment (pip install numpy)"

    def bit_indices(self, mask: int) -> list[int]:
        if not mask:
            return []
        data = mask_to_bytes(mask)
        if len(data) < 64:
            # Vectorisation overhead beats the byte-table loop only on
            # wide masks (many-document chunks); delegate below that.
            return super().bit_indices(mask)
        bits = _np.unpackbits(
            _np.frombuffer(data, dtype=_np.uint8), bitorder="little"
        )
        return _np.flatnonzero(bits).tolist()

    def find_foreign(self, data: bytes) -> int:
        if len(data) < _CHECK_MIN_BYTES:
            return super().find_foreign(data)
        raw = _np.frombuffer(data, dtype=_np.uint8)
        if raw.min() >= 0x61 and raw.max() <= 0x62:
            return -1
        return int(_np.argmax((raw < 0x61) | (raw > 0x62)))

    def make_layered_scan(
        self,
        tables: Sequence[Sequence[int]],
        initial: int,
        accepting_mask: int,
        doc_len: int,
    ) -> Any:
        one = _np.array(tables, dtype=_np.intp).T
        n_states = len(one)
        accepting = _np.zeros(n_states, dtype=bool)
        accepting[list(iter_bits(accepting_mask))] = True
        stride = 1 << _SCAN_BLOCK
        # Per block: the states reachable where it starts (global numbers;
        # index = local number), and a table [local state, code] whose
        # entries are the next block's row offsets (local state * stride),
        # so a gather is one add.  ``local`` maps the next layer's states
        # to their row offsets (np.unique would do, but its first call
        # imports numpy.ma: 1.7 MB of resident memory).
        layer = _np.array([initial], dtype=_np.intp)
        local = _np.zeros(n_states, dtype=_np.intp)
        steps = []
        for start in range(0, doc_len, _SCAN_BLOCK):
            width = min(_SCAN_BLOCK, doc_len - start)
            # after[i, code]: the state reached from layer[i] by the
            # ``width`` characters whose b-bits, first character lowest,
            # spell ``code``.
            after = layer[:, None]
            for _ in range(width):
                after = one[after].transpose(0, 2, 1).reshape(len(layer), -1)
            if start + width == doc_len:
                final = _np.zeros((len(layer), stride), dtype=bool)
                final[:, : 1 << width] = accepting[after]
                final = final.ravel()
            else:
                reached = _np.zeros(n_states, dtype=bool)
                reached[after] = True
                layer = _np.flatnonzero(reached)
                local[layer] = _np.arange(len(layer)) * stride
                steps.append(local[after].ravel())
        return doc_len, steps, final

    def layered_scan(
        self,
        kernel: Any,
        body: bytes,
        checksum: int,
        base: int,
        ids: list[int] | None = None,
    ) -> tuple[int, int]:
        doc_len, steps, final = kernel
        raw = _np.frombuffer(body, dtype=_np.uint8)
        n_docs = len(raw) // doc_len
        count = 0
        for lo in range(0, n_docs, SCAN_SLICE):
            hi = min(lo + SCAN_SLICE, n_docs)
            matched = _accepted(raw[lo * doc_len : hi * doc_len], doc_len, steps, final)
            found = len(matched)
            if not found:
                continue
            # Horner in closed form over the values v_j = id_j + 1, in
            # order: checksum' = M^m (checksum + Σ_j v_j M^-j) mod 2^64.
            offset = base + lo
            values = matched.astype(_np.uint64)
            values += _np.uint64((offset + 1) & _U64)
            total = int(_np.dot(values, _inverse_powers(found)[:found]))
            checksum = (checksum + total) * pow(CHECKSUM_MULTIPLIER, found, 1 << 64) & _U64
            if ids is not None:
                ids.extend(map(offset.__add__, matched.tolist()))
            count += found
        return count, checksum

    def max_bilinear(self, base: list[list[int]]) -> int:
        dim = len(base)
        width = len(base[0])
        max_abs = max(abs(v) for row in base for v in row)
        if max_abs == 0:
            return 0
        # Guards: the subset-sums table must fit the memory cap, and every
        # intermediate (|s_j| ≤ dim·max_abs, Σ_j max(s_j, 0) ≤ width·dim·max_abs)
        # must fit int64.  Outside the guards, the SWAR kernel is exact at
        # any size — delegate.
        if (1 << dim) * width > _BILINEAR_CELL_CAP or width * dim * max_abs >= 1 << 62:
            return super().max_bilinear(base)
        rows = _np.array(base, dtype=_np.int64)
        sums = _np.empty((1 << dim, width), dtype=_np.int64)
        sums[0] = 0
        size = 1
        for i in range(dim):
            # sums[S ∪ {i}] = sums[S] + row_i for every subset S of rows < i.
            _np.add(sums[:size], rows[i], out=sums[size : 2 * size])
            size *= 2
        positive = _np.where(sums > 0, sums, 0).sum(axis=1)
        totals = sums.sum(axis=1)
        return int(max(positive.max(), (positive - totals).max()))
