"""Canonical, process-stable encodings of Python values.

The :mod:`repro.engine` disk cache keys every result by *job name +
parameters + code fingerprint*.  For those keys to be stable across
processes (and across ``PYTHONHASHSEED`` values) the encoding must not
depend on dict/set iteration order or on ``id()``-derived ``repr`` output.
This module provides a tiny total encoding for the value shapes the
library actually uses:

* JSON scalars (``None``, ``bool``, ``int``, ``float``, ``str``); an int
  of more than ``DECIMAL_MAX_BITS`` bits is written in hex under its own
  tag, so no int ever meets Python's int-to-str digit limit;
* tuples and lists (encoded positionally);
* dicts (encoded sorted by encoded key);
* sets and frozensets (encoded as sorted multiset of encodings);
* any object exposing a ``to_key() -> str`` method (grammars, automata,
  certificates — see the satellite implementations in
  :meth:`repro.grammars.cfg.CFG.to_key` etc.).

The encoding is injective on the supported shapes: every composite is
length- and type-tagged, so ``("a", "b")`` and ``("a,b",)`` differ.

>>> canonical_encode({"b": 1, "a": (2, 3)})
'd2:s1:a=t2:i2,i3;s1:b=i1;'
>>> canonical_encode({"a": (2, 3), "b": 1}) == canonical_encode({"b": 1, "a": (2, 3)})
True
>>> canonical_encode(-(1 << 3000))[:6]
'h-1000'
"""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["canonical_encode", "canonical_digest", "DECIMAL_MAX_BITS"]

#: Ints up to this many bits are written ``i<decimal>``; longer ones
#: ``h<hex>``.  ``2**2048`` has 617 decimal digits, below the 640-digit
#: floor of ``sys.set_int_max_str_digits``, so the decimal branch works
#: under every digit limit a process can set, and the encoding of an int
#: never depends on that setting.
DECIMAL_MAX_BITS = 2048


def canonical_encode(value: Any) -> str:
    """Encode ``value`` deterministically; raise TypeError on unsupported types."""
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, int):
        if value.bit_length() > DECIMAL_MAX_BITS:
            return f"h{value:x}"
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if isinstance(value, bytes):
        return f"y{len(value)}:{value.hex()}"
    if isinstance(value, tuple):
        return f"t{len(value)}:" + ",".join(canonical_encode(v) for v in value)
    if isinstance(value, list):
        return f"l{len(value)}:" + ",".join(canonical_encode(v) for v in value)
    if isinstance(value, (set, frozenset)):
        parts = sorted(canonical_encode(v) for v in value)
        return f"e{len(parts)}:" + ",".join(parts)
    if isinstance(value, dict):
        items = sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in value.items()
        )
        return f"d{len(items)}:" + "".join(f"{k}={v};" for k, v in items)
    to_key = getattr(value, "to_key", None)
    if callable(to_key):
        key = to_key()
        if not isinstance(key, str):
            raise TypeError(f"{type(value).__name__}.to_key() must return str")
        return f"k{len(key)}:{key}"
    raise TypeError(
        f"canonical_encode: unsupported type {type(value).__name__} "
        "(give the object a to_key() -> str method)"
    )


def canonical_digest(value: Any) -> str:
    """A hex SHA-256 digest of :func:`canonical_encode`.

    >>> canonical_digest({"n": 16}) == canonical_digest({"n": 16})
    True
    >>> len(canonical_digest(0))
    64
    """
    return hashlib.sha256(canonical_encode(value).encode("utf-8")).hexdigest()
