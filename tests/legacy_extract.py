"""Frozen extraction code, kept as test oracles.

``legacy_document`` is the body that ``StreamSpec.document`` shipped
before the block decoder in ``src/repro/extract/spec.py`` replaced it:
one fresh ``random.Random`` per document and one Python-level
``choice``/``random`` call per drawn outcome.  It is kept verbatim
(modulo ``self`` -> ``spec`` and imports) so the differential tests can
assert that the decoder reproduces the stream byte for byte.

``legacy_compile`` is the route ``compile_scanner`` took before it
determinised the witness chains' masks directly: the chain NFA as
objects (``column_relation_nfa``), packed in canonical order, then the
general ``packed_fixed_length_minimal`` kernel, followed by the two
checks that found the sink and the phase layers.  The checks are kept
verbatim; the tests assert that every field of the new compile equals
this route's.

Do not "improve" either: their value is that they do not change.
(Same pattern as ``tests/legacy_parsers.py``, ``tests/legacy_comm.py``
and ``tests/legacy_automata.py``.)
"""

from __future__ import annotations

import random
from typing import Any

from repro.automata.packed import PackedDFA, PackedNFA, packed_fixed_length_minimal
from repro.errors import ReproError
from repro.extract.compile import column_relation_nfa
from repro.extract.spec import StreamSpec

__all__ = ["legacy_document", "legacy_compile"]

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


def legacy_compile(
    c: int, w: int, columns: tuple[int, ...], pairs: tuple[tuple[str, str], ...]
) -> dict[str, Any]:
    """The old compile's ``CompiledScanner`` fields, by the old route."""
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
    return {
        "dfa": dfa.to_key(),
        "det_states": macro_states,
        "n_states": dfa.n_states,
        "nfa_states": nfa.n_states,
        "sink": sink,
        "layers": layers,
    }
