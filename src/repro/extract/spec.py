"""Seeded stream specifications for the extraction pipeline.

A :class:`StreamSpec` describes a synthetic document stream *by
construction*, never by content: a scenario shape ``(c, w)``, a column
set, a relation, a document count, a seed, and a bias knob.  Documents
are derived from the seed with a per-document mixer, so any shard
``[lo, hi)`` can be regenerated independently by any worker process —
that is what makes specs safe to put in engine job parameters and
content-addressed cache keys (`to_params()` is plain JSON, no raw
documents ever cross a process boundary or land in the cache).

The stream contract: document ``i`` is what
``random.Random(((seed + 1) * _MIX + i) mod 2**64)`` yields from, in
order, ``2*c*w`` calls of ``choice("ab")`` (row 1, then row 2), one
``random()`` and, when that falls below ``match_bias``,
``choice(columns)`` then ``choice(pairs)``, whose pair overwrites the
chosen column of both rows.  Cache keys, stored results and pinned
digests all assume this stream, so it must stay byte-identical; the
decoder below produces it without the per-call API (see
docs/EXTRACT.md).
"""

from __future__ import annotations

import math
import random
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import ReproError, require_int
from repro.words.alphabet import AB
from repro.words.ops import all_words

__all__ = ["StreamSpec", "relation_pairs"]

_RELATIONS = ("match", "leq")
#: The most pairs a relation may hold.  ``relation_pairs`` builds them all
#: (compile reads them, and so does the generator for a planted
#: document), so a wider relation is refused before it is built:
#: ``match`` stops at ``w = 16`` and ``leq`` at ``w = 8``.
MAX_RELATION_PAIRS = 1 << 16

# Odd 64-bit multiplier (splitmix64's golden-ratio constant): the map
# ``i -> (seed + 1) * _MIX + i  (mod 2^64)`` is injective per stream, so
# every document gets a distinct, shard-independent RNG seed.
_MIX = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1

# The block decoder.  Each document's generator is drawn a block of K
# 32-bit words at a time with one ``getrandbits(32 * K)``.  CPython fills
# that integer draw by draw from its least significant word up, so
# ``to_bytes(4 * K, "little")`` puts draw ``i`` at bytes ``4i .. 4i + 3``
# with its top byte at ``4i + 3``.  The decoder replays the per-call API:
#
# * ``choice("ab")`` is ``_randbelow(2)``: ``getrandbits(2)``, the word's
#   top two bits, redrawn while they read 2 or 3.  So the top byte alone
#   decides it: below 0x40 "a", below 0x80 "b", otherwise rejected.
# * ``random()`` reads the next two words as
#   ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53``.
# * ``choice(seq)`` redraws ``seq``'s index on the top
#   ``len(seq).bit_length()`` bits of the following words.
#
# A document that needs more words than one block holds draws another
# block from the same generator, which continues its stream exactly.
_TOP_BYTE = b"a" * 0x40 + b"b" * 0x40 + b"x" * 0x80
_WORD = struct.Struct("<I")
_TWO_WORDS = struct.Struct("<2I")
_TWO_POW_53 = float(1 << 53)
# Documents decoded per block: bounds ``iter_chunks``' working memory.
_BLOCK_DOCS = 256


def _block_words(doc_len: int) -> int:
    """Words per draw: the body expects ``2 * doc_len``; the slack makes a
    second draw rare for a whole document."""
    return 2 * doc_len + 4 * math.isqrt(doc_len) + 16


def _check_pair_budget(relation: str, w: int) -> None:
    """Raise ``ReproError`` unless ``relation`` is known and holds at most
    ``MAX_RELATION_PAIRS`` pairs at width ``w``."""
    if relation not in _RELATIONS:
        raise ReproError(f"unknown relation {relation!r}; expected one of {_RELATIONS}")
    if w < 0:
        raise ReproError(f"w must be non-negative, got {w}")
    # Either relation holds at least 2^w pairs; a huge w is refused
    # without computing a 2^w-bit count.
    if w > 64:
        count: int | str = f"at least 2^{w}"
    else:
        values = 1 << w
        count = values if relation == "match" else values * (values + 1) // 2
        if count <= MAX_RELATION_PAIRS:
            return
    raise ReproError(
        f"relation {relation!r} at w={w} has {count} pairs, "
        f"over the limit of {MAX_RELATION_PAIRS}"
    )


def relation_pairs(relation: str, w: int) -> tuple[tuple[str, str], ...]:
    """The pair set defining a named relation over width-``w`` values.

    >>> relation_pairs("match", 1)
    (('a', 'a'), ('b', 'b'))
    >>> len(relation_pairs("leq", 1))
    3
    """
    _check_pair_budget(relation, w)
    words = list(all_words(AB, w))
    if relation == "match":
        return tuple((x, x) for x in words)
    return tuple((x, y) for x in words for y in words if x <= y)


@dataclass(frozen=True)
class StreamSpec:
    """A reproducible synthetic document stream.

    >>> spec = StreamSpec(c=2, w=1, columns=(1, 2), n_docs=3, seed=7)
    >>> spec.doc_len
    4
    >>> spec.document(1) == spec.document(1)
    True
    >>> "".join(spec.iter_chunks(5)) == spec.text()
    True
    """

    c: int
    w: int
    columns: tuple[int, ...]
    relation: str = "match"
    n_docs: int = 1000
    seed: int = 0
    match_bias: float = 0.25

    def __post_init__(self) -> None:
        for name in ("c", "w", "n_docs", "seed"):
            require_int(name, getattr(self, name))
        if self.c < 1 or self.w < 1:
            raise ReproError("c and w must be positive")
        try:
            given = tuple(self.columns)
        except TypeError:
            raise ReproError(f"columns must be a sequence of ints, got {self.columns!r}") from None
        for j in given:
            require_int("columns", j)
        cols = tuple(sorted(set(given)))
        if not cols:
            raise ReproError("columns must be non-empty")
        if cols[0] < 1 or cols[-1] > self.c:
            raise ReproError(f"columns must lie in [1, {self.c}], got {cols}")
        object.__setattr__(self, "columns", cols)
        _check_pair_budget(self.relation, self.w)
        if self.n_docs < 0:
            raise ReproError("n_docs must be >= 0")
        if isinstance(self.match_bias, bool) or not isinstance(self.match_bias, (int, float)):
            raise ReproError(f"match_bias must be a number, got {self.match_bias!r}")
        if not 0.0 <= self.match_bias <= 1.0:
            raise ReproError("match_bias must lie in [0, 1]")
        object.__setattr__(self, "match_bias", float(self.match_bias))

    @property
    def doc_len(self) -> int:
        return 2 * self.c * self.w

    @property
    def total_chars(self) -> int:
        return self.n_docs * self.doc_len

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return relation_pairs(self.relation, self.w)

    def document(self, index: int) -> str:
        """The ``index``-th document, independent of any other index.

        It is the stream contract's draw sequence from the document's own
        generator (module docstring), decoded like every other document.
        """
        if not 0 <= index < self.n_docs:
            raise ReproError(f"document index {index} out of range [0, {self.n_docs})")
        return self._documents(index, index + 1)[0]

    def _documents(self, lo: int, hi: int) -> list[str]:
        """Documents ``lo .. hi - 1``, each from blocks of its generator's
        words (the decoder described above ``_TOP_BYTE``)."""
        half, w = self.c * self.w, self.w
        words = _block_words(2 * half)
        bits, size = 32 * words, 4 * words
        # The body runs through the (2cw)-th accepted draw; the lookahead
        # asks for the two words ``random()`` reads after it.
        body_of = re.compile(rb"(?:x*+[ab]){%d}(?=..)" % (2 * half)).match
        threshold = self.match_bias * _TWO_POW_53
        key = (self.seed + 1) * _MIX
        # Built seeded for document ``lo``; each later document reseeds it.
        rng = random.Random((key + lo) & _U64)
        reseed, draw = rng.seed, rng.getrandbits
        pairs = None

        def below(n: int) -> int:
            # ``_randbelow(n)`` for ``n < 2**32`` (both sequences are
            # materialised tuples): one word per try.
            nonlocal raw, at
            shift = 32 - n.bit_length()
            while True:
                if at + 4 > len(raw):
                    raw += draw(bits).to_bytes(size, "little")
                r = _WORD.unpack_from(raw, at)[0] >> shift
                at += 4
                if r < n:
                    return r

        docs = []
        for index in range(lo, hi):
            if index != lo:
                reseed((key + index) & _U64)
            raw = draw(bits).to_bytes(size, "little")
            body = body_of(raw[3::4].translate(_TOP_BYTE))
            while body is None:
                raw += draw(bits).to_bytes(size, "little")
                body = body_of(raw[3::4].translate(_TOP_BYTE))
            doc = body.group().translate(None, b"x").decode()
            at = 4 * body.end()
            high, low = _TWO_WORDS.unpack_from(raw, at)
            if ((high >> 5) << 26) + (low >> 6) < threshold:
                # Plant a related column so streams are not all-negative at
                # large w (a random pair rarely lands in the relation).
                at += 8
                j = self.columns[below(len(self.columns))]
                if pairs is None:
                    pairs = self.pairs()
                x, y = pairs[below(len(pairs))]
                p = (j - 1) * w
                doc = doc[:p] + x + doc[p + w : half + p] + y + doc[half + p + w :]
            docs.append(doc)
        return docs

    def resolve_range(self, lo: int = 0, hi: int | None = None) -> tuple[int, int]:
        """Clamp-and-validate a document shard ``[lo, hi)``."""
        if hi is None or hi < 0:
            hi = self.n_docs
        if not (0 <= lo <= hi <= self.n_docs):
            raise ReproError(f"bad shard [{lo}, {hi}) for n_docs={self.n_docs}")
        return lo, hi

    def _blocks(self, lo: int, hi: int | None) -> Iterator[list[str]]:
        lo, hi = self.resolve_range(lo, hi)
        for start in range(lo, hi, _BLOCK_DOCS):
            yield self._documents(start, min(start + _BLOCK_DOCS, hi))

    def iter_documents(self, lo: int = 0, hi: int | None = None) -> Iterator[str]:
        for block in self._blocks(lo, hi):
            yield from block

    def text(self, lo: int = 0, hi: int | None = None) -> str:
        """The shard's documents concatenated (tests / small shards only)."""
        return "".join(self.iter_documents(lo, hi))

    def iter_chunks(
        self, chunk_chars: int, lo: int = 0, hi: int | None = None
    ) -> Iterator[str]:
        """Stream the shard as chunks of ``chunk_chars`` characters.

        Documents are generated a bounded block at a time, so memory stays
        below ``chunk_chars`` plus one block of documents regardless of
        the shard size; chunk boundaries fall at arbitrary offsets, so
        documents routinely straddle them.
        """
        if chunk_chars < 1:
            raise ReproError("chunk_chars must be positive")
        buffer = ""
        for block in self._blocks(lo, hi):
            buffer += "".join(block)
            whole = len(buffer) - len(buffer) % chunk_chars
            for start in range(0, whole, chunk_chars):
                yield buffer[start : start + chunk_chars]
            buffer = buffer[whole:]
        if buffer:
            yield buffer

    def to_params(self) -> dict[str, object]:
        """Plain-JSON parameters for the ``extract.*`` job family."""
        return {
            "c": self.c,
            "w": self.w,
            "columns": list(self.columns),
            "relation": self.relation,
            "n_docs": self.n_docs,
            "seed": self.seed,
            "match_bias": self.match_bias,
        }

    @classmethod
    def from_params(cls, params: dict[str, object]) -> StreamSpec:
        """The spec of ``to_params()``-shaped parameters.  Numbers are
        type-checked, not truncated, so a malformed request fails as a
        ``ReproError`` instead of scanning some other stream."""
        return cls(
            c=params["c"],  # type: ignore[arg-type]
            w=params["w"],  # type: ignore[arg-type]
            columns=params["columns"],  # type: ignore[arg-type]
            relation=str(params.get("relation", "match")),
            n_docs=params.get("n_docs", 1000),  # type: ignore[arg-type]
            seed=params.get("seed", 0),  # type: ignore[arg-type]
            match_bias=params.get("match_bias", 0.25),  # type: ignore[arg-type]
        )

    def to_key(self) -> tuple:
        return (
            "stream",
            self.c,
            self.w,
            self.columns,
            self.relation,
            self.n_docs,
            self.seed,
            self.match_bias,
        )

    def shard_ranges(self, shards: int) -> list[tuple[int, int]]:
        """Split ``[0, n_docs)`` into ``shards`` near-equal ranges."""
        if shards < 1:
            raise ReproError("shards must be positive")
        shards = min(shards, max(self.n_docs, 1))
        bounds = [round(i * self.n_docs / shards) for i in range(shards + 1)]
        return [(bounds[i], bounds[i + 1]) for i in range(shards)]
