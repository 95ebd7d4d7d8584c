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
* :meth:`NumpyBackend.make_layered_scan` — the extraction body scan.
  The factory composes the DFA's transition table once into a *block
  table* ``T[q, code]`` over ``_SCAN_BLOCK`` = 4 characters (a final
  partial block gets a narrower table, folded straight into
  acceptance).  A call views the body's bytes as one little-endian
  uint32 per block, turns each into its 4-bit code with one multiply,
  and runs ``⌈L/4⌉`` gathers ``q = T[q, code]`` over all documents at
  once.  A document costs the same however many DFA states are live,
  where the inherited occupancy walk pays one Python iteration per
  live state per phase (up to 1,024 for a 5-column query).
* :meth:`NumpyBackend.fold_indices` — the match-set checksum in closed
  form, ``checksum·M^m + Σ_j (base+i_j+1)·M^(m-1-j) mod 2^64`` on
  wrapping uint64 arrays, instead of one Python call per match.

Everything else — chunked step tables, xor-basis GF(2), word-at-a-time
scans, and the inherited reference kernels — comes from
:class:`~repro.backend.words.WordsBackend`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from repro.backend.limbs import mask_to_bytes
from repro.backend.reference import CHECKSUM_MULTIPLIER, foreign_symbol, iter_bits
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
#: per state (219 KB for a 3,419-state DFA), and a block of the body's
#: bytes is one uint32 word.
_SCAN_BLOCK = 4
_U64 = (1 << 64) - 1


@lru_cache(maxsize=None)
def _checksum_powers(log2_size: int):
    """``M^0 .. M^(2^log2_size - 1) mod 2^64``, read-only, for the fold.

    uint64 arrays wrap silently; numpy *scalar* arithmetic would warn.
    """
    powers = _np.full(1 << log2_size, CHECKSUM_MULTIPLIER, dtype=_np.uint64)
    powers[0] = 1
    _np.cumprod(powers, out=powers)
    powers.flags.writeable = False
    return powers


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

    def make_layered_scan(
        self,
        tables: Sequence[Sequence[int]],
        initial: int,
        accepting_mask: int,
        doc_len: int,
    ) -> Callable[[str], int]:
        n_states = len(tables[0])
        one = _np.array(tables, dtype=_np.intp).T
        accepting = _np.zeros(n_states, dtype=bool)
        accepting[list(iter_bits(accepting_mask))] = True

        def block_table(width: int):
            """``[q, code]``: the state after ``width`` characters whose
            b-bits, first character lowest, spell ``code``."""
            table = _np.arange(n_states, dtype=_np.intp)[:, None]
            for _ in range(width):
                table = one[table].transpose(0, 2, 1).reshape(n_states, -1)
            return table

        stride = 1 << _SCAN_BLOCK
        n_steps, last_width = divmod(doc_len, _SCAN_BLOCK)
        if not last_width:
            n_steps, last_width = n_steps - 1, _SCAN_BLOCK
        # Entries are row offsets (state * stride), so a gather is one add.
        step = (block_table(_SCAN_BLOCK) * stride).ravel() if n_steps else None
        final = _np.zeros((n_states, stride), dtype=bool)
        final[:, : 1 << last_width] = accepting[block_table(last_width)]
        final = final.ravel()
        n_blocks = n_steps + 1
        padded = n_blocks * _SCAN_BLOCK
        start = initial * stride

        def scan(body: str) -> int:
            n_docs = len(body) // doc_len
            if not n_docs:
                return 0
            raw = _np.frombuffer(body.encode("ascii", "replace"), dtype=_np.uint8)
            if raw.min() < 0x61 or raw.max() > 0x62:
                raise foreign_symbol(body)
            if padded != doc_len:
                wide = _np.zeros((n_docs, padded), dtype=_np.uint8)
                wide[:, :doc_len] = raw.reshape(n_docs, doc_len)
                raw = wide
            # Bit 1 of a byte is its b-bit ('a' = 0x61, 'b' = 0x62, padding
            # 0); the multiply moves the four b-bits of a little-endian
            # uint32 block to bits 22..25 without carries.
            codes = raw.view("<u4") & 0x02020202
            codes *= 0x00204081
            codes >>= 22
            codes &= stride - 1
            codes = codes.reshape(n_docs, n_blocks).T.astype(_np.intp, order="C")
            rows = _np.full(n_docs, start, dtype=_np.intp)
            for j in range(n_steps):
                rows += codes[j]
                rows = step[rows]
            rows += codes[n_steps]
            accepted = _np.packbits(final[rows], bitorder="little")
            return int.from_bytes(accepted.tobytes(), "little")

        return scan

    def fold_indices(self, mask: int, checksum: int, base: int) -> tuple[int, int]:
        if not mask:
            return 0, checksum
        bits = _np.unpackbits(
            _np.frombuffer(mask_to_bytes(mask), dtype=_np.uint8), bitorder="little"
        )
        ids = _np.flatnonzero(bits.view(bool)).astype(_np.uint64)
        count = len(ids)
        # Horner in closed form, mod 2^64 by wrap-around on uint64 arrays.
        powers = _checksum_powers(count.bit_length())  # powers[j] = M^j
        ids += _np.uint64((base + 1) & _U64)
        ids *= powers[count - 1 :: -1]
        total = _np.array([checksum & _U64], dtype=_np.uint64) * powers[count : count + 1]
        total += ids.sum(dtype=_np.uint64)
        return count, int(total[0])

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
