"""Exception hierarchy for the :mod:`repro` package.

Every invariant violation inside the library raises a subclass of
:class:`ReproError`.  Functions never signal failure through sentinel
return values: if a grammar is malformed, a language is infinite where a
finite one is required, or a certificate does not check out, an exception
carrying a human-readable diagnosis is raised instead.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GrammarError",
    "NotInLanguageError",
    "InfiniteLanguageError",
    "LanguageTooLargeError",
    "InfiniteAmbiguityError",
    "NotUnambiguousError",
    "NotInChomskyNormalFormError",
    "MixedLengthLanguageError",
    "AutomatonError",
    "SymbolError",
    "RectangleError",
    "CoverBudgetExceeded",
    "PartitionError",
    "CertificateError",
    "EngineError",
    "UnknownJobError",
    "JobFailedError",
    "JobTimeoutError",
    "require_int",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class GrammarError(ReproError):
    """A context-free grammar is structurally invalid.

    Raised e.g. when a rule mentions a symbol that is neither a declared
    terminal nor a declared non-terminal, when the start symbol is not a
    non-terminal, or when terminals and non-terminals overlap.
    """


class NotInLanguageError(ReproError):
    """A word was required to belong to a language but does not."""


class InfiniteLanguageError(ReproError):
    """An operation that needs a finite language met an infinite one.

    The paper (Section 2) only deals with finite languages; enumeration,
    exact counting and ambiguity checking in this library insist on
    finiteness and raise this error otherwise.
    """


class LanguageTooLargeError(InfiniteLanguageError):
    """A finite language has more words than an enumeration budget allows.

    Raised when a language (or one non-terminal's language) would exceed
    ``max_words``.  It subclasses :class:`InfiniteLanguageError`, so every
    caller that treats "cannot enumerate" as one case keeps working, while
    the type says the language is finite, only too large.
    """


class InfiniteAmbiguityError(ReproError):
    """A word has infinitely many derivations (cyclic unit/epsilon chains)."""


class NotUnambiguousError(ReproError):
    """An operation that requires an unambiguous grammar got an ambiguous one."""


class NotInChomskyNormalFormError(ReproError):
    """A grammar was required to be in Chomsky normal form but is not."""


class MixedLengthLanguageError(ReproError):
    """A language was required to have all words of one length but does not.

    Observation 9 of the paper and everything that builds on it (the
    length-indexing transform of Lemma 10, rectangle extraction of
    Proposition 7) only applies to uniform-length languages.
    """


class AutomatonError(ReproError):
    """A finite automaton is structurally invalid."""


class SymbolError(ReproError):
    """A scanned text holds a character outside the alphabet ``{a, b}``.

    ``offset`` is the position of the first such character in the text
    the raiser was handed (a chunk, for :class:`repro.extract.StreamScanner`)
    and ``char`` the character itself.
    """

    def __init__(self, offset: int, char: str) -> None:
        super().__init__(f"character {char!r} at offset {offset} is not 'a' or 'b'")
        self.offset = offset
        self.char = char


class RectangleError(ReproError):
    """A (set of) combinatorial rectangle(s) violates a required property.

    Used when rectangle parameters are inconsistent (Definition 5), when a
    claimed cover is not a cover, or when a claimed disjoint cover overlaps.
    """


class CoverBudgetExceeded(RectangleError):
    """A cover search ran out of its node budget.

    Unlike a bare failure, the search progress survives: ``best_cover``
    is the best *valid* cover found before exhaustion (at worst the
    greedy cover the search started from — never ``None``) and
    ``nodes_expanded`` the number of search nodes visited
    (:func:`repro.comm.cover.solve_cover` also charges each rectangle it
    enumerates to the budget, so this can be far below it).  Callers may
    use ``best_cover`` as a verified upper bound even though minimality
    was not established.

    ``verified`` reports whether the raiser re-checked ``best_cover``
    against the matrix before attaching it (covers raised by
    :func:`repro.comm.cover.solve_cover` always are), and
    ``uncovered_cells`` makes any partial coverage explicit: the number
    of 1-entries ``best_cover`` misses, ``0`` for a complete cover.
    Both default to the pessimistic values for raisers that predate the
    verification contract.
    """

    def __init__(
        self,
        message: str,
        *,
        best_cover: list,
        nodes_expanded: int,
        verified: bool = False,
        uncovered_cells: int | None = None,
    ) -> None:
        super().__init__(message)
        self.best_cover = best_cover
        self.nodes_expanded = nodes_expanded
        self.verified = verified
        self.uncovered_cells = uncovered_cells


class PartitionError(ReproError):
    """An ordered partition (Definition 13) is malformed or not applicable."""


class CertificateError(ReproError):
    """A lower-bound certificate failed verification.

    The discrepancy-based lower bound of Section 4 is assembled from exact
    integer quantities; if any of the inequalities the proof relies on does
    not hold for the given parameters, this error is raised rather than
    reporting a wrong bound.
    """


class EngineError(ReproError):
    """Base class for failures of the :mod:`repro.engine` execution layer."""


class UnknownJobError(EngineError):
    """A job name was requested that no registry declares."""


class JobFailedError(EngineError):
    """A job raised while executing and its retry budget is exhausted.

    The original exception is attached as ``__cause__``; ``attempts`` is
    the number of executions performed (1 + retries used) before the
    engine gave up.  Raised only after the engine has recorded every
    failed attempt in the run log.
    """

    def __init__(self, message: str, *, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


class JobTimeoutError(EngineError):
    """A job exceeded its per-job wall-clock timeout.

    Raised when the scheduler's deadline sweep finds an overdue job under
    ``on_timeout="raise"`` (the run aborts), or by ``run_one`` when its
    own request was timed out and dropped under ``on_timeout="skip"``
    (sibling jobs keep their results).
    """


def require_int(name: str, value: object) -> None:
    """Raise :class:`ReproError` naming ``name`` unless ``value`` is an int.

    A ``bool`` is refused too.  Parameters that arrive as JSON or as
    ``-p name=value`` may be bools, floats or strings, which Python would
    otherwise accept as ints, truncate, or hash equal to an int.

    >>> require_int("n", 16)
    >>> require_int("n", True)
    Traceback (most recent call last):
    ...
    repro.errors.ReproError: n must be an int, got True
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{name} must be an int, got {value!r}")
