"""Compile a spanner constraint into a phase-layered packed scanner.

The match language ``M(c, w, S)`` (and its relation generalisation) is a
finite language of fixed word length ``L = 2cw``.  We build one small
NFA per ``(column, value-pair)`` witness — a chain of ``L + 1`` states
that pins the two column occurrences to the pair and accepts anything
elsewhere — take their union, and hand the packed form to
:func:`~repro.automata.packed.packed_fixed_length_minimal`, which builds
the minimal *complete* DFA one character position at a time: a layered
subset construction that collapses every macro-state already holding a
universal state (a row pair that has matched no longer cares about the
rest of the document), then one backward pass of per-layer signature
hashing.  No Hopcroft refinement runs.  The result is compiled **once**
per process (``lru_cache``) and reused for every chunk of every stream.

Because every word of the language has the same length, the minimal DFA
is *phase-layered*: each non-sink state is reachable at exactly one
input offset ``t`` (two residuals at different offsets contain words of
different lengths, so only the empty-residual sink can recur).
:func:`compile_scanner` verifies this invariant at compile time and
records the layer decomposition — it is what licenses the document-
parallel scan in :mod:`repro.extract.scan`, where a chunk's documents
advance in lock-step through phase ``t`` and dead documents simply fall
out of the occupancy masks at the sink.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.automata.nfa import NFA
from repro.automata.packed import PackedDFA, PackedNFA, packed_fixed_length_minimal

# Not called here any more: perfbench's traced extract-scan run wraps these
# two names on this module by attribute, so they stay importable (and then
# read zero busy time, showing that compile bypasses the two-stage pipeline).
from repro.automata.packed import packed_determinise, packed_minimise  # noqa: F401
from repro.backend import Backend
from repro.errors import ReproError
from repro.spanners.csv_match import _check_scenario
from repro.words.alphabet import AB

from repro.extract.spec import StreamSpec, relation_pairs

__all__ = [
    "column_relation_nfa",
    "CompiledScanner",
    "compile_scanner",
    "scanner_for_spec",
]


def column_relation_nfa(
    c: int,
    w: int,
    columns: Iterable[int],
    pairs: Iterable[tuple[str, str]],
) -> NFA:
    """An NFA for the relation language: union of per-witness chains.

    States are ``("m", j, x, y, t)`` — "the document read so far is
    consistent with columns ``j`` of both rows carrying the pair
    ``(x, y)``, and ``t`` characters have been consumed".  Positions
    inside row 1's column ``j`` must spell ``x``, positions inside row
    2's column ``j`` must spell ``y``; every other position accepts both
    symbols.  Size is ``|S| · |pairs| · (2cw + 1)`` states.
    """
    _check_scenario(c, w)
    cols = tuple(sorted(set(int(j) for j in columns)))
    pair_list = tuple((str(x), str(y)) for x, y in pairs)
    if not cols or cols[0] < 1 or cols[-1] > c:
        raise ReproError(f"columns must be a non-empty subset of [1, {c}]")
    if not pair_list:
        raise ReproError("pairs must be non-empty")
    for x, y in pair_list:
        if len(x) != w or len(y) != w:
            raise ReproError(f"pair ({x!r}, {y!r}) is not width {w}")
    length = 2 * c * w
    states: list[tuple] = []
    transitions: dict[tuple, list[tuple]] = {}
    initial: list[tuple] = []
    accepting: list[tuple] = []
    for j in cols:
        row1_lo = (j - 1) * w
        row2_lo = c * w + (j - 1) * w
        for x, y in pair_list:
            chain = [("m", j, x, y, t) for t in range(length + 1)]
            states.extend(chain)
            initial.append(chain[0])
            accepting.append(chain[-1])
            for t in range(length):
                if row1_lo <= t < row1_lo + w:
                    allowed = x[t - row1_lo]
                elif row2_lo <= t < row2_lo + w:
                    allowed = y[t - row2_lo]
                else:
                    allowed = "ab"
                for symbol in allowed:
                    transitions[(chain[t], symbol)] = [chain[t + 1]]
    return NFA(
        alphabet=AB,
        states=states,
        transitions=transitions,
        initial=initial,
        accepting=accepting,
    )


@dataclass(frozen=True)
class CompiledScanner:
    """A minimal complete packed DFA plus its phase-layer decomposition.

    ``dfa.tables[s][q]`` gives the successor of state ``q`` on symbol
    index ``s`` (``AB`` order: 0 = ``a``, 1 = ``b``); the DFA is
    complete, so the only dead end is ``sink`` (the unique non-co-
    reachable state, or ``None`` when the constraint matches every
    document).  ``layers[t]`` lists the non-sink states reachable after
    exactly ``t`` characters; accepting states appear only in
    ``layers[doc_len]``.

    ``nfa_states`` is the size of the witness-chain NFA and
    ``det_states`` the number of macro-states the layered construction
    built (the empty one included) — after universal absorption, not
    the plain subset construction's count; ``n_states`` is the minimal
    DFA's size.
    """

    c: int
    w: int
    columns: tuple[int, ...]
    pairs: tuple[tuple[str, str], ...]
    dfa: PackedDFA
    sink: int | None
    layers: tuple[tuple[int, ...], ...]
    nfa_states: int
    det_states: int
    _kernels: dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def doc_len(self) -> int:
        return 2 * self.c * self.w

    @property
    def n_states(self) -> int:
        return self.dfa.n_states

    @property
    def accepting(self) -> tuple[int, ...]:
        mask = self.dfa.accepting_mask
        return tuple(q for q in range(self.dfa.n_states) if (mask >> q) & 1)

    @property
    def max_live_states(self) -> int:
        """The widest phase layer — the scan's per-phase working set."""
        return max(len(layer) for layer in self.layers)

    def accepts(self, document: str) -> bool:
        return self.dfa.accepts(document)

    def scan_kernel(self, backend: Backend) -> Any:
        """``backend.make_layered_scan`` for this DFA, built on first use.

        ``extract.scan`` builds a ``StreamScanner`` per request or shard,
        so the kernel (numpy's block tables: a few ms for a 3,419-state
        DFA) is kept here, one per backend name, for as long as this
        scanner stays compiled.
        """
        kernel = self._kernels.get(backend.name)
        if kernel is None:
            dfa = self.dfa
            kernel = self._kernels[backend.name] = backend.make_layered_scan(
                dfa.tables, dfa.initial, dfa.accepting_mask, self.doc_len
            )
        return kernel

    def to_key(self) -> tuple:
        return ("scanner", self.c, self.w, self.columns, self.pairs)


def _co_reachable(dfa: PackedDFA) -> set[int]:
    """States from which some accepting state is reachable."""
    reverse: dict[int, set[int]] = {q: set() for q in range(dfa.n_states)}
    for table in dfa.tables:
        for q, successor in enumerate(table):
            if successor >= 0:
                reverse[successor].add(q)
    frontier = [q for q in range(dfa.n_states) if (dfa.accepting_mask >> q) & 1]
    seen = set(frontier)
    while frontier:
        state = frontier.pop()
        for prev in reverse[state]:
            if prev not in seen:
                seen.add(prev)
                frontier.append(prev)
    return seen


def _phase_layers(dfa: PackedDFA, sink: int | None, length: int) -> tuple[tuple[int, ...], ...]:
    """BFS the DFA by input offset, asserting the one-phase-per-state law."""
    phase_of: dict[int, int] = {}
    layers: list[tuple[int, ...]] = []
    frontier = {dfa.initial} - {sink}
    for t in range(length + 1):
        for state in frontier:
            if phase_of.setdefault(state, t) != t:
                raise ReproError(
                    f"state {state} reachable at phases {phase_of[state]} and {t}; "
                    "finite fixed-length language should be phase-layered"
                )
        layers.append(tuple(sorted(frontier)))
        if t == length:
            break
        successors = set()
        for state in frontier:
            for table in dfa.tables:
                successors.add(table[state])
        frontier = successors - {sink}
    for t, layer in enumerate(layers[:-1]):
        for state in layer:
            if (dfa.accepting_mask >> state) & 1:
                raise ReproError(f"accepting state {state} at interior phase {t}")
    return tuple(layers)


@lru_cache(maxsize=64)
def _compile_scanner_cached(
    c: int,
    w: int,
    columns: tuple[int, ...],
    pairs: tuple[tuple[str, str], ...],
) -> CompiledScanner:
    nfa = column_relation_nfa(c, w, columns, pairs)
    dfa, macro_states = packed_fixed_length_minimal(PackedNFA.from_nfa(nfa), 2 * c * w)
    if not dfa.is_complete():
        raise ReproError("packed_fixed_length_minimal should return a complete DFA")
    alive = _co_reachable(dfa)
    dead = [q for q in range(dfa.n_states) if q not in alive]
    if len(dead) > 1:
        raise ReproError(f"minimal DFA has {len(dead)} dead states, expected <= 1")
    sink = dead[0] if dead else None
    layers = _phase_layers(dfa, sink, 2 * c * w)
    return CompiledScanner(
        c=c,
        w=w,
        columns=columns,
        pairs=pairs,
        dfa=dfa,
        sink=sink,
        layers=layers,
        nfa_states=nfa.n_states,
        det_states=macro_states,
    )


def compile_scanner(
    c: int,
    w: int,
    columns: Iterable[int],
    pairs: Iterable[tuple[str, str]],
) -> CompiledScanner:
    """Compile (and memoise per process) the scanner for a constraint.

    >>> s = compile_scanner(2, 1, [1, 2], [("a", "a"), ("b", "b")])
    >>> s.accepts("abab"), s.accepts("abba")
    (True, False)
    >>> s is compile_scanner(2, 1, (2, 1), (("a", "a"), ("b", "b")))
    True
    """
    cols = tuple(sorted(set(int(j) for j in columns)))
    pair_list = tuple(sorted((str(x), str(y)) for x, y in pairs))
    return _compile_scanner_cached(c, w, cols, pair_list)


def scanner_for_spec(spec: StreamSpec) -> CompiledScanner:
    """The compiled scanner for a stream's constraint."""
    return compile_scanner(spec.c, spec.w, spec.columns, relation_pairs(spec.relation, spec.w))
