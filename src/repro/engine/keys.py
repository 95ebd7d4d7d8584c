"""Cache keys: canonical parameters + code fingerprints.

A cached result is only valid while (a) the requested computation is the
same and (b) the code that produces it is the same.  The cache key is
therefore a SHA-256 digest over three components:

* the job name,
* the job's parameters under the injective canonical encoding of
  :mod:`repro.util.canonical` (dict order, set order and ``PYTHONHASHSEED``
  do not leak into the key),
* a *code fingerprint*: a digest of the source bytes of every module the
  job declares in ``source_modules``, plus the package version.  Editing
  any implementation module invalidates exactly the jobs that declared it.
"""

from __future__ import annotations

import hashlib
import importlib
from collections.abc import Mapping
from functools import lru_cache
from typing import Any

from repro import __version__
from repro.util.canonical import canonical_encode

__all__ = ["canonical_params", "code_fingerprint", "cache_key"]


def _hashable(value: Any) -> Any:
    """Recursively turn lists into tuples so parameter values hash.

    Sequence-valued parameters (e.g. the ``columns`` of an
    ``extract.*`` stream spec) arrive as JSON lists; a
    :class:`~repro.engine.registry.Request` must be hashable, and list
    vs. tuple is a spurious distinction for a cache key.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    return value


def canonical_params(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Normalise a parameter mapping to a sorted, hashable tuple of pairs.

    >>> canonical_params({"b": 1, "a": 2})
    (('a', 2), ('b', 1))
    >>> canonical_params({"columns": [1, 3]})
    (('columns', (1, 3)),)
    """
    for name in params:
        if not isinstance(name, str):
            raise TypeError(f"parameter names must be str, got {name!r}")
    return tuple(sorted((name, _hashable(value)) for name, value in params.items()))


@lru_cache(maxsize=None)
def code_fingerprint(source_modules: tuple[str, ...]) -> str:
    """Digest the source bytes of ``source_modules`` (plus the version).

    Modules are imported to resolve their files; modules without a source
    file (builtins, namespace packages) contribute their name only.

    >>> a = code_fingerprint(("repro.languages.small_grammar",))
    >>> b = code_fingerprint(("repro.languages.small_grammar",))
    >>> a == b and len(a) == 64
    True
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro=={__version__}".encode())
    for name in sorted(set(source_modules)):
        hasher.update(name.encode())
        module = importlib.import_module(name)
        path = getattr(module, "__file__", None)
        if path:
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()


def cache_key(
    job_name: str,
    params: Mapping[str, Any],
    source_modules: tuple[str, ...] = (),
) -> str:
    """The content-addressed cache key for one job invocation.

    Parameters pass through :func:`canonical_params` first, so a JSON
    list and the equal tuple give one key — whether the caller holds raw
    request params (the serve broker's hot-LRU peek) or the canonical
    tuples the engine stores results under.

    >>> cache_key("certificate", {"n": 16}) == cache_key("certificate", {"n": 16})
    True
    >>> cache_key("certificate", {"n": 16}) != cache_key("certificate", {"n": 32})
    True
    >>> cache_key("extract.scan", {"columns": [1, 3]}) == cache_key("extract.scan", {"columns": (1, 3)})
    True
    """
    payload = canonical_encode(
        (
            job_name,
            dict(canonical_params(params)),
            code_fingerprint(tuple(source_modules)),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
