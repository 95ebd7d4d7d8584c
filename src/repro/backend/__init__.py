"""Selectable kernel backends under the packed substrates.

The hot algorithms of this repository — rectangle covers, rank,
discrepancy, subset construction, Hopcroft minimisation, transfer-matrix
counting, CNF bitset recognition — all bottom out in a small set of
mask/matrix primitives.  This package defines that set as the
:class:`Backend` protocol and ships three interchangeable
implementations:

``reference``
    The pure-python big-int kernels, extracted verbatim from their call
    sites (:mod:`repro.backend.reference`).  Always available; the
    correctness baseline every other backend is differentially tested
    against.
``words``
    Word-at-a-time restructurings of the same loops — chunked 8-bit step
    tables, an xor-basis GF(2) eliminator, multiplicity-split counting
    sweeps (:mod:`repro.backend.words`).  Always available; the default.
``numpy``
    Vectorised kernels where numpy measurably wins, auto-detected and
    never a hard dependency (:mod:`repro.backend.numpy_backend`).
``cext``
    Compiled u64-limb kernels (:mod:`repro.backend.cext` over
    :mod:`repro._cext.kernels`), present only when the optional C
    extension was built — ``python setup.py build_ext --inplace`` —
    and never a hard dependency either.

Every backend produces **bit-exact** results: same integers, same
structures, for every input.  Backends subclass ``reference`` and
override only kernels they beat, so an un-overridden primitive is the
same function object as the reference one — inspectable via
:func:`delegates_to`, which ``bench backends`` uses to report delegation
instead of fake speedups.

Selection order (first match wins):

1. a :func:`use_backend` context (per-call override, contextvar-scoped —
   safe under ``repro.serve``, which runs jobs on connection threads);
2. a process-wide :func:`set_backend`;
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``auto`` — resolves to ``cext`` when the compiled
   artifact is built, else ``numpy`` when importable, else ``words``.

See ``docs/BACKENDS.md`` for the protocol reference and how to register
a new backend (the seam the ROADMAP's optional C extension plugs into).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Protocol, runtime_checkable

from repro.backend.cext import CextBackend
from repro.backend.numpy_backend import NumpyBackend, numpy_version
from repro.backend.reference import ReferenceBackend
from repro.backend.words import WordsBackend

__all__ = [
    "Backend",
    "ReferenceBackend",
    "WordsBackend",
    "NumpyBackend",
    "CextBackend",
    "BACKEND_CLASSES",
    "backend_names",
    "available_backends",
    "backend_info",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "delegates_to",
    "numpy_version",
]

#: The default selection when nothing else is configured.
AUTO = "auto"


@runtime_checkable
class Backend(Protocol):
    """The kernel primitive set every backend implements, bit-exactly.

    Masks are Python ints (bit ``i`` = element ``i``); matrices are
    lists of int lists; all results are exact arbitrary-precision
    integers.  See :class:`~repro.backend.reference.ReferenceBackend`
    for the semantics of each primitive — it is the executable
    specification.
    """

    name: str

    # mask primitives
    def popcount(self, mask: int) -> int: ...
    def popcount_rows(self, masks: Sequence[int]) -> int: ...
    def bit_indices(self, mask: int) -> list[int]: ...
    def transpose_masks(self, row_masks: Sequence[int], n_cols: int) -> list[int]: ...
    def fold_rows(self, table: Sequence[int], mask: int) -> int: ...
    def make_step_fn(self, table: Sequence[int], n_states: int) -> Callable[[int], int]: ...
    def superset_rows(self, allow: Sequence[int], cols: int) -> int: ...
    def and_reduce(self, table: Sequence[int], mask: int) -> int: ...
    def cells_of_rect(self, rows_mask: int, cols_mask: int, n_cols: int) -> int: ...
    def hopcroft_split(self, preimage: int, block_of: Sequence[int]) -> dict[int, int]: ...

    # exact linear algebra
    def bareiss_rank(self, work: list[list[int]]) -> int: ...
    def gf2_rank(self, bitrows: Sequence[int], n_cols: int) -> int: ...
    def mat_mul(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]: ...
    def vec_mat(self, vector: list[int], matrix: list[list[int]]) -> list[int]: ...
    def make_sweep_fn(
        self, adjacency: Sequence[Sequence[tuple[int, int]]], n: int
    ) -> Callable[[list[int]], list[int]]: ...

    # Gray-code SWAR bilinear maximisation
    def max_bilinear(self, base: list[list[int]]) -> int: ...

    # CNF bitset recognition
    def make_binary_step(
        self, binary: Sequence[tuple[int, int, int]]
    ) -> Callable[[int, int], int]: ...

    # document-parallel extraction scanning, with the checksum fold
    def find_foreign(self, data: bytes) -> int: ...
    def make_layered_scan(
        self,
        tables: Sequence[Sequence[int]],
        initial: int,
        accepting_mask: int,
        doc_len: int,
    ) -> Any: ...
    def layered_scan(
        self,
        kernel: Any,
        body: bytes,
        checksum: int,
        base: int,
        ids: list[int] | None = None,
    ) -> tuple[int, int]: ...


#: Registered backend classes, in definition order.  To add a backend,
#: subclass ReferenceBackend (or WordsBackend), give it a unique ``name``
#: and an ``available()`` probe, and insert it here.
BACKEND_CLASSES: dict[str, type[ReferenceBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    WordsBackend.name: WordsBackend,
    NumpyBackend.name: NumpyBackend,
    CextBackend.name: CextBackend,
}

_instances: dict[str, ReferenceBackend] = {}

#: Per-context override installed by :func:`use_backend` (thread/task safe).
_context_backend: ContextVar[str | None] = ContextVar("repro_backend", default=None)

#: Process-wide override installed by :func:`set_backend`.
_process_backend: str | None = None


def backend_names() -> list[str]:
    """All registered backend names, available or not."""
    return list(BACKEND_CLASSES)


def available_backends() -> list[str]:
    """The names whose availability probe passes, in registry order."""
    return [name for name, cls in BACKEND_CLASSES.items() if cls.available()]


def resolve_backend(name: str | None) -> str:
    """Normalise a requested name to a concrete, available backend name.

    ``None`` and ``"auto"`` resolve to the fastest available tier:
    ``cext`` when the compiled artifact is built, else ``numpy`` when
    importable, else ``words``.  Unknown or unavailable names raise
    ``ValueError`` (the CLI surfaces this as a friendly error).
    """
    if name is None or name == AUTO:
        if CextBackend.available():
            return CextBackend.name
        return NumpyBackend.name if NumpyBackend.available() else WordsBackend.name
    cls = BACKEND_CLASSES.get(name)
    if cls is None:
        known = ", ".join([AUTO, *BACKEND_CLASSES])
        raise ValueError(f"unknown backend {name!r} (known: {known})")
    if not cls.available():
        raise ValueError(f"backend {name!r} is not available: {cls.describe()}")
    return name


def get_backend(name: str | None = None) -> Backend:
    """The active backend, or the named one when ``name`` is given.

    Instances are stateless singletons — cheap to look up from hot-path
    entry points on every call, so ``REPRO_BACKEND`` changes and
    :func:`use_backend` scopes take effect immediately.
    """
    if name is None:
        name = _context_backend.get()
    if name is None:
        name = _process_backend
    if name is None:
        name = os.environ.get("REPRO_BACKEND") or AUTO
    resolved = resolve_backend(name)
    instance = _instances.get(resolved)
    if instance is None:
        instance = _instances[resolved] = BACKEND_CLASSES[resolved]()
    return instance


def set_backend(name: str | None) -> None:
    """Install a process-wide backend (``None`` restores env/auto selection)."""
    global _process_backend
    _process_backend = None if name is None else resolve_backend(name)


def _clear_context_backend() -> None:
    """Drop an inherited :func:`use_backend` override in *this* context.

    For pool-worker initializers: the ``fork`` start method copies the
    parent's context, so a worker forked inside a ``use_backend`` scope
    inherits the parent's pin at the highest-priority selection level.
    A worker that had to downgrade an unavailable pin must clear that
    override or every subsequent :func:`get_backend` would re-resolve
    the unavailable name and fail.  Not for application code — inside a
    process, exiting the ``with`` block is the way out of a scope.
    """
    _context_backend.set(None)


@contextmanager
def use_backend(name: str | None) -> Iterator[Backend]:
    """Scope the active backend to a ``with`` block (contextvar-isolated).

    ``None`` is a no-op scope, so adapters can accept an optional
    ``backend=`` parameter and wrap unconditionally:

    >>> with use_backend("reference") as b:
    ...     b.name
    'reference'
    """
    if name is None:
        yield get_backend()
        return
    token = _context_backend.set(resolve_backend(name))
    try:
        yield get_backend()
    finally:
        _context_backend.reset(token)


def backend_info(name: str | None = None) -> dict[str, str | None]:
    """Provenance of the active (or named) backend, for artifact headers.

    ``{"name": ..., "numpy": <version or None>}`` — recorded in every
    ``RunRecord`` and ``BENCH_*.json`` so the perf trajectory is
    attributable per machine and backend.
    """
    backend = get_backend(name)
    return {
        "name": backend.name,
        "numpy": numpy_version() if backend.name == NumpyBackend.name else None,
    }


def delegates_to(backend: Backend, method: str) -> str:
    """The name of the backend class that actually defines ``method``.

    A backend that does not override a primitive inherits the exact
    function object of its parent, so the result is definitionally the
    backend whose kernel runs.  ``bench backends`` uses this to mark
    delegated rows instead of reporting noise as speedup.
    """
    for cls in type(backend).__mro__:
        if method in vars(cls):
            return getattr(cls, "name", backend.name)
    raise AttributeError(f"{type(backend).__name__} has no kernel {method!r}")
