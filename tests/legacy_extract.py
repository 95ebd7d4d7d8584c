"""Frozen per-character stream generator, kept as a test oracle.

This is the body that ``StreamSpec.document`` shipped before the block
decoder in ``src/repro/extract/spec.py`` replaced it: one fresh
``random.Random`` per document and one Python-level ``choice``/``random``
call per drawn outcome.  It is kept verbatim (modulo ``self`` -> ``spec``
and imports) so the differential tests can assert that the decoder
reproduces the stream byte for byte.  Do not "improve" it: its value is
that it does not change.

(Same pattern as ``tests/legacy_parsers.py``, ``tests/legacy_comm.py``
and ``tests/legacy_automata.py``.)
"""

from __future__ import annotations

import random

from repro.errors import ReproError
from repro.extract.spec import StreamSpec

__all__ = ["legacy_document"]

_MIX = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def legacy_document(spec: StreamSpec, index: int) -> str:
    """The ``index``-th document, independent of any other index."""
    if not 0 <= index < spec.n_docs:
        raise ReproError(f"document index {index} out of range [0, {spec.n_docs})")
    rng = random.Random(((spec.seed + 1) * _MIX + index) & _U64)
    c, w = spec.c, spec.w
    row1 = [rng.choice("ab") for _ in range(c * w)]
    row2 = [rng.choice("ab") for _ in range(c * w)]
    if rng.random() < spec.match_bias:
        # Plant a related column so streams are not all-negative at
        # large w (a random pair rarely lands in the relation).
        j = rng.choice(spec.columns)
        x, y = rng.choice(spec.pairs())
        lo = (j - 1) * w
        row1[lo : lo + w] = x
        row2[lo : lo + w] = y
    return "".join(row1) + "".join(row2)
