"""Compile a spanner constraint into a phase-layered packed scanner.

The match language ``M(c, w, S)`` (and its relation generalisation) is a
finite language of fixed word length ``L = 2cw``: the union of one
*witness chain* per ``(column, value-pair)``, a run of ``L + 1`` states
that pins the column's two occurrences to the pair and accepts anything
elsewhere (:func:`column_relation_nfa` builds the union as an NFA).

At phase ``t`` every chain holds exactly one state, so the layered
subset construction over the union walks masks over the ``k`` chains: a
macro-state's σ-successor is ``macro & allow[t][σ]``, the chains whose
position ``t`` accepts σ.  A chain with no pinned position left accepts
every remaining suffix, so a successor that meets ``universal[t + 1]``
(those chains) has the full residual and collapses to it — a row pair
that has matched no longer cares about the rest of the document.
:func:`~repro.automata.packed.packed_layered_minimal` then minimises the
layered macro tables in one backward pass of signature hashing (Revuz)
and numbers the result canonically.  No NFA object, packing or backend
primitive is involved; the general fixed-length kernel
:func:`~repro.automata.packed.packed_fixed_length_minimal`, run on the
packed chain NFA, builds the same tables and is the tests' oracle.  The
result is compiled **once** per process (``lru_cache``) and reused for
every chunk of every stream.

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
from repro.automata.packed import PackedDFA, packed_layered_minimal

# Not called here: perfbench's traced extract-scan run wraps these two names
# on this module by attribute, so they stay importable (and then read zero
# busy time, showing that compile bypasses the two-stage pipeline).
from repro.automata.packed import packed_determinise, packed_minimise  # noqa: F401
from repro.backend import Backend
from repro.comm.packed import iter_bits
from repro.errors import AutomatonError, ReproError, require_int
from repro.spanners.csv_match import _check_scenario
from repro.words.alphabet import AB

from repro.extract.spec import StreamSpec, relation_pairs

__all__ = [
    "column_relation_nfa",
    "CompiledScanner",
    "compile_scanner",
    "scanner_for_spec",
]


def _constraint(
    c: int,
    w: int,
    columns: Iterable[int],
    pairs: Iterable[tuple[str, str]],
) -> tuple[tuple[int, ...], tuple[tuple[str, str], ...]]:
    """Check a constraint; its columns and pairs, deduplicated and sorted."""
    require_int("c", c)
    require_int("w", w)
    _check_scenario(c, w)
    cols = tuple(sorted(set(int(j) for j in columns)))
    if not cols or cols[0] < 1 or cols[-1] > c:
        raise ReproError(f"columns must be a non-empty subset of [1, {c}]")
    pair_list = tuple(sorted(set((str(x), str(y)) for x, y in pairs)))
    if not pair_list:
        raise ReproError("pairs must be non-empty")
    for x, y in pair_list:
        if len(x) != w or len(y) != w:
            raise ReproError(f"pair ({x!r}, {y!r}) is not width {w}")
        for symbol in x + y:
            if symbol not in AB:
                raise AutomatonError(f"pair ({x!r}, {y!r}) has symbol {symbol!r}, not 'a' or 'b'")
    return cols, pair_list


def _pins(c: int, w: int, j: int, x: str, y: str) -> dict[int, str]:
    """The positions the witness chain ``(j, x, y)`` pins, each to its symbol.

    Row 1's column ``j`` (positions ``(j-1)w .. jw-1``) must spell ``x``
    and row 2's (``cw`` later) must spell ``y``; the chain accepts both
    symbols at every other position of the ``2cw``-character document.
    """
    row1 = (j - 1) * w
    pins = dict(zip(range(row1, row1 + w), x))
    pins.update(zip(range(c * w + row1, c * w + row1 + w), y))
    return pins


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
    cols, pair_list = _constraint(c, w, columns, pairs)
    length = 2 * c * w
    states: list[tuple] = []
    transitions: dict[tuple, list[tuple]] = {}
    initial: list[tuple] = []
    accepting: list[tuple] = []
    for j in cols:
        for x, y in pair_list:
            pins = _pins(c, w, j, x, y)
            chain = [("m", j, x, y, t) for t in range(length + 1)]
            states.extend(chain)
            initial.append(chain[0])
            accepting.append(chain[-1])
            for t in range(length):
                for symbol in pins.get(t, "ab"):
                    transitions[(chain[t], symbol)] = [chain[t + 1]]
    return NFA(
        alphabet=AB,
        states=states,
        transitions=transitions,
        initial=initial,
        accepting=accepting,
    )


def _chain_layers(
    c: int,
    w: int,
    columns: tuple[int, ...],
    pairs: tuple[tuple[str, str], ...],
) -> tuple[list[list[list[int]]], list[list[bool]], int]:
    """The layered subset construction over the witness chains' masks.

    Returns ``(succ, final, built)`` in the layout of
    :func:`~repro.automata.packed.packed_layered_minimal`; ``built``
    counts the macro-states, the empty one included.  Bit ``i`` of a
    mask is chain ``i``.  ``allow[t][s]`` holds the chains whose
    position ``t`` accepts ``σ_s``, and ``universal[t]`` those pinning
    no position at or after ``t``, which accept every suffix from phase
    ``t`` on.  No chain is universal at phase 0 (each pins ``2w``
    positions), so the start is the full mask.
    """
    length = 2 * c * w
    chains = [_pins(c, w, j, x, y) for j in columns for x, y in pairs]
    full = (1 << len(chains)) - 1
    allow = [[full] * len(AB) for _ in range(length)]
    universal = [0] * (length + 1)
    for i, pins in enumerate(chains):
        for t, symbol in pins.items():
            for s, other in enumerate(AB):
                if other != symbol:
                    allow[t][s] &= ~(1 << i)
        universal[max(pins) + 1] |= 1 << i
    for t in range(length):
        universal[t + 1] |= universal[t]

    layer = [full]
    succ: list[list[list[int]]] = []
    built = 2  # the start and the empty macro-state
    for t in range(length):
        absorbing = universal[t + 1]
        index_of: dict[int, int] = {}
        rows = []
        for allowed in allow[t]:
            row: list[int] = []
            emit = row.append
            for macro in layer:
                nxt = macro & allowed
                if nxt & absorbing:
                    nxt = absorbing
                elif not nxt:
                    emit(-1)
                    continue
                emit(index_of.setdefault(nxt, len(index_of)))
            rows.append(row)
        succ.append(rows)
        layer = list(index_of)
        built += len(layer)
    final = [[False] * len(rows[0]) for rows in succ] + [[True] * len(layer)]
    return succ, final, built


@dataclass(frozen=True)
class CompiledScanner:
    """A minimal complete packed DFA plus its phase-layer decomposition.

    ``dfa.tables[s][q]`` gives the successor of state ``q`` on symbol
    index ``s`` (``AB`` order: 0 = ``a``, 1 = ``b``); the DFA is
    complete, so the only dead end is ``sink``, the unique state from
    which no accepting state is reachable (every word longer than
    ``doc_len`` ends there).  ``layers[t]`` lists the non-sink states
    reachable after exactly ``t`` characters; accepting states appear
    only in ``layers[doc_len]``.

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
    sink: int
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
        so the kernel (numpy's block tables: 1.1–1.7 ms for the four
        extract-scan queries together) is kept here, one per backend
        name, for as long as this scanner stays compiled.
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


def _phase_layers(dfa: PackedDFA, length: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The sink and the phase layers, checked in one forward sweep.

    The sweep collects the states reached after ``t = 0 .. length + 1``
    symbols and raises :class:`ReproError` unless the DFA is complete and

    * after ``length + 1`` symbols it reaches one state, the sink: not
      accepting, and looping to itself on every symbol;
    * every other state sits in exactly one layer ``t <= length``;
    * accepting states sit only at phase ``length``, and every state of
      phase ``length`` accepts while every earlier one has a successor
      other than the sink — so the sink is the only dead state.
    """
    if not dfa.is_complete():
        raise ReproError("a compiled scanner needs a complete DFA")
    tables = dfa.tables
    accepting = set(iter_bits(dfa.accepting_mask))
    reached = [{dfa.initial}]
    for _ in range(length + 1):
        reached.append({table[q] for table in tables for q in reached[-1]})
    if len(reached[-1]) != 1:
        raise ReproError(
            f"{len(reached[-1])} states reached after {length + 1} symbols; "
            "a language inside Σ^L leaves only the sink"
        )
    (sink,) = reached.pop()
    if sink in accepting or any(table[sink] != sink for table in tables):
        raise ReproError(f"state {sink}, reached after every word, is not a dead sink")
    layers: list[tuple[int, ...]] = []
    for t, layer in enumerate(reached):
        layer.discard(sink)
        if t < length:
            if layer & accepting:
                raise ReproError(f"accepting state {min(layer & accepting)} at interior phase {t}")
            live = set()
            for table in tables:
                live.update(q for q in layer if table[q] != sink)
            if live != layer:
                raise ReproError(f"state {min(layer - live)} at phase {t} is a second dead state")
        elif not layer <= accepting:
            raise ReproError(f"state {min(layer - accepting)} at phase {length} does not accept")
        layers.append(tuple(sorted(layer)))
    placed = sum(len(layer) for layer in layers)
    if len(set().union(*layers)) != placed or placed + 1 != dfa.n_states:
        raise ReproError(
            "some state is reachable at two phases or at none; "
            "a language inside Σ^L should be phase-layered"
        )
    return sink, tuple(layers)


@lru_cache(maxsize=64)
def _compile_scanner_cached(
    c: int,
    w: int,
    columns: tuple[int, ...],
    pairs: tuple[tuple[str, str], ...],
) -> CompiledScanner:
    succ, final, built = _chain_layers(c, w, columns, pairs)
    dfa = packed_layered_minimal(AB, succ, final)
    sink, layers = _phase_layers(dfa, 2 * c * w)
    return CompiledScanner(
        c=c,
        w=w,
        columns=columns,
        pairs=pairs,
        dfa=dfa,
        sink=sink,
        layers=layers,
        nfa_states=len(columns) * len(pairs) * (2 * c * w + 1),
        det_states=built,
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
    return _compile_scanner_cached(c, w, *_constraint(c, w, columns, pairs))


def scanner_for_spec(spec: StreamSpec) -> CompiledScanner:
    """The compiled scanner for a stream's constraint."""
    return compile_scanner(spec.c, spec.w, spec.columns, relation_pairs(spec.relation, spec.w))
