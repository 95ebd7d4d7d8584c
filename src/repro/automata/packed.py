"""Bit-parallel packed automata: states as indices, state sets as big-int masks.

The automata substrate's hot algorithms — subset construction, DFA
minimisation, the self-product unambiguity test, and transfer-matrix
counting — all reduce to operations on *sets of states*.  This module
stores those sets the same way :class:`repro.comm.packed.PackedMatrix`
stores matrix rows: one Python big integer per set, bit ``i`` set iff
state ``i`` is in the set.  A :class:`PackedNFA` renumbers the states of
an :class:`~repro.automata.nfa.NFA` to ``0..n-1`` (in canonical-encoding
order, so the numbering is process-stable) and keeps one successor-mask
table per alphabet symbol; one macro-step of the subset construction is
then an OR-fold over the set bits of the current mask instead of a
frozenset union, and the pair states ``(p, q)`` of the unambiguity
self-product are held row-wise — ``R[p]`` is the mask of all ``q`` with
``(p, q)`` reached — so even the ``O(n²)``-state product never handles
anything wider than an ``n``-bit integer.

Bit conventions, used consistently by every kernel:

* ``PackedNFA.tables[s][q]`` has bit ``r`` set iff ``r ∈ δ(q, σ_s)``
  (``σ_s`` is the ``s``-th symbol in alphabet order);
* ``PackedDFA.tables[s][q]`` is the successor *index* (or ``-1`` where
  the partial DFA is undefined);
* a list of ``n`` masks indexed by ``p`` encodes a relation on
  ``Q × Q`` (row ``p`` = the partners of ``p``), the layout of both
  passes of :func:`packed_is_unambiguous`.

Conversion to and from the label-carrying :class:`NFA`/:class:`DFA`
objects is lossless; ``to_key()`` gives a canonical serialization of the
renumbered structure for the :mod:`repro.engine` disk cache.  The public
entry points in :mod:`repro.automata.dfa`, :mod:`repro.automata.ops` and
:mod:`repro.automata.counting` are thin adapters over the kernels here;
the implementations they replaced are frozen in
``tests/legacy_automata.py`` as test oracles.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA, State
from repro.backend import get_backend
from repro.backend.reference import fold_rows
from repro.backend.words import chunked_step_fn, chunked_step_tables, fold_chunked
from repro.comm.packed import iter_bits, mask_of
from repro.errors import AutomatonError
from repro.words.alphabet import Alphabet

__all__ = [
    "PackedNFA",
    "PackedDFA",
    "as_packed_nfa",
    "as_packed_dfa",
    "fold_rows",
    "chunked_step_tables",
    "fold_chunked",
    "chunked_step_fn",
    "packed_determinise",
    "packed_minimise",
    "packed_layered_minimal",
    "packed_fixed_length_minimal",
    "packed_is_unambiguous",
    "transfer_counts",
    "nfa_transfer_counts",
    "count_words_by_power",
    "count_words_by_sweep",
    "count_words_table",
    "count_runs_by_power",
    "count_runs_by_sweep",
]


def _canonical_state_order(states: Iterable[State]) -> list[State]:
    """States sorted by canonical encoding — stable across hash seeds."""
    from repro.util.canonical import canonical_encode

    return sorted(states, key=canonical_encode)


class PackedNFA:
    """An NFA with integer states and per-symbol big-int successor rows.

    ``tables[s][q]`` is the bitmask of ``δ(q, σ_s)``; ``initial_mask``
    and ``accepting_mask`` pack ``I`` and ``F``.  ``labels[i]`` recovers
    the original state object of index ``i`` (identity for automata born
    packed).

    >>> from repro.words import AB
    >>> nfa = NFA(AB, {0, 1}, {(0, "a"): {0, 1}}, {0}, {1})
    >>> pnfa = PackedNFA.from_nfa(nfa)
    >>> bin(pnfa.tables[0][0]), pnfa.accepts("a")
    ('0b11', True)
    """

    __slots__ = ("alphabet", "n_states", "tables", "initial_mask", "accepting_mask", "labels")

    def __init__(
        self,
        alphabet: Alphabet | Iterable[str],
        n_states: int,
        tables: Sequence[Sequence[int]],
        initial_mask: int,
        accepting_mask: int,
        labels: Sequence[State] | None = None,
    ) -> None:
        sigma = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        if n_states < 1:
            raise AutomatonError("an automaton needs at least one state")
        rows = [list(table) for table in tables]
        if len(rows) != len(sigma):
            raise AutomatonError(f"{len(rows)} tables for {len(sigma)} symbols")
        limit = 1 << n_states
        for table in rows:
            if len(table) != n_states:
                raise AutomatonError(f"table of length {len(table)} for {n_states} states")
            for row in table:
                if not 0 <= row < limit:
                    raise AutomatonError(f"successor mask {row:#x} does not fit {n_states} states")
        if not 0 <= initial_mask < limit or not 0 <= accepting_mask < limit:
            raise AutomatonError("initial/accepting mask does not fit the state count")
        self.alphabet = sigma
        self.n_states = n_states
        self.tables = rows
        self.initial_mask = initial_mask
        self.accepting_mask = accepting_mask
        self.labels = list(labels) if labels is not None else list(range(n_states))
        if len(self.labels) != n_states:
            raise AutomatonError("label count does not match the state count")

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "PackedNFA":
        """Pack an :class:`NFA`, numbering states in canonical order.

        The numbering sorts states by their canonical encoding, not by
        hash, so the packed form (and therefore :meth:`to_key`) is
        identical across processes and ``PYTHONHASHSEED`` values.
        """
        ordered = _canonical_state_order(nfa.states)
        index = {state: i for i, state in enumerate(ordered)}
        tables = [[0] * len(ordered) for _ in nfa.alphabet]
        for s, symbol in enumerate(nfa.alphabet):
            table = tables[s]
            for state in ordered:
                successors = nfa.successors(state, symbol)
                if successors:
                    table[index[state]] = mask_of(index[t] for t in successors)
        return cls(
            nfa.alphabet,
            len(ordered),
            tables,
            mask_of(index[q] for q in nfa.initial),
            mask_of(index[q] for q in nfa.accepting),
            ordered,
        )

    def to_nfa(self) -> NFA:
        """Unpack into an :class:`NFA` carrying the original labels."""
        labels = self.labels
        transitions: dict[tuple[State, str], frozenset[State]] = {}
        for s, symbol in enumerate(self.alphabet):
            table = self.tables[s]
            for q in range(self.n_states):
                if table[q]:
                    transitions[(labels[q], symbol)] = frozenset(
                        labels[r] for r in iter_bits(table[q])
                    )
        return NFA._from_validated(
            self.alphabet,
            frozenset(labels),
            transitions,
            frozenset(labels[q] for q in iter_bits(self.initial_mask)),
            frozenset(labels[q] for q in iter_bits(self.accepting_mask)),
        )

    # -- semantics -----------------------------------------------------

    def step(self, mask: int, symbol_index: int) -> int:
        """The successor macro-state (as a mask) on one symbol."""
        return fold_rows(self.tables[symbol_index], mask)

    def accepts(self, word: str) -> bool:
        """Whether some accepting run on ``word`` exists (mask sweep)."""
        current = self.initial_mask
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            current = self.step(current, self.alphabet.index(symbol))
            if not current:
                return False
        return bool(current & self.accepting_mask)

    def predecessor_tables(self) -> list[list[int]]:
        """Per symbol, ``pre[s][q]`` = mask of states ``p`` with ``q ∈ δ(p, σ_s)``."""
        pre = [[0] * self.n_states for _ in self.tables]
        for s, table in enumerate(self.tables):
            rows = pre[s]
            for p in range(self.n_states):
                bit = 1 << p
                for q in iter_bits(table[p]):
                    rows[q] |= bit
        return pre

    def to_key(self) -> str:
        """A canonical serialization of the renumbered structure.

        Labels are deliberately excluded (mirroring
        :meth:`~repro.comm.packed.PackedMatrix.to_key`): every packed
        kernel answers identically on two automata with the same
        renumbered structure.  Because :meth:`from_nfa` numbers states
        canonically, the key is process-stable — fit for the
        :mod:`repro.engine` disk cache.
        """
        from repro.util.canonical import canonical_encode

        return canonical_encode(
            (
                "PackedNFA",
                self.alphabet.symbols,
                self.n_states,
                tuple(tuple(table) for table in self.tables),
                self.initial_mask,
                self.accepting_mask,
            )
        )

    def __repr__(self) -> str:
        n_transitions = sum(row.bit_count() for table in self.tables for row in table)
        return f"PackedNFA(|Q|={self.n_states}, |δ|={n_transitions})"


class PackedDFA:
    """A DFA with integer states and per-symbol successor-index tables.

    ``tables[s][q]`` is the successor index, or ``-1`` where the partial
    DFA is undefined.

    >>> from repro.words import AB
    >>> dfa = DFA(AB, {0, 1}, {(0, "a"): 1}, 0, {1})
    >>> pdfa = PackedDFA.from_dfa(dfa)
    >>> pdfa.tables, pdfa.is_complete()
    ([[1, -1], [-1, -1]], False)
    """

    __slots__ = ("alphabet", "n_states", "tables", "initial", "accepting_mask", "labels")

    def __init__(
        self,
        alphabet: Alphabet | Iterable[str],
        n_states: int,
        tables: Sequence[Sequence[int]],
        initial: int,
        accepting_mask: int,
        labels: Sequence[State] | None = None,
    ) -> None:
        sigma = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        if n_states < 1:
            raise AutomatonError("an automaton needs at least one state")
        rows = [list(table) for table in tables]
        if len(rows) != len(sigma):
            raise AutomatonError(f"{len(rows)} tables for {len(sigma)} symbols")
        for table in rows:
            if len(table) != n_states:
                raise AutomatonError(f"table of length {len(table)} for {n_states} states")
            for succ in table:
                if not -1 <= succ < n_states:
                    raise AutomatonError(f"successor index {succ} outside 0..{n_states - 1}")
        if not 0 <= initial < n_states:
            raise AutomatonError(f"initial index {initial} outside 0..{n_states - 1}")
        if not 0 <= accepting_mask < (1 << n_states):
            raise AutomatonError("accepting mask does not fit the state count")
        self.alphabet = sigma
        self.n_states = n_states
        self.tables = rows
        self.initial = initial
        self.accepting_mask = accepting_mask
        self.labels = list(labels) if labels is not None else list(range(n_states))
        if len(self.labels) != n_states:
            raise AutomatonError("label count does not match the state count")

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_dfa(cls, dfa: DFA) -> "PackedDFA":
        """Pack a :class:`DFA`, numbering states in canonical order."""
        ordered = _canonical_state_order(dfa.states)
        index = {state: i for i, state in enumerate(ordered)}
        tables = [[-1] * len(ordered) for _ in dfa.alphabet]
        for s, symbol in enumerate(dfa.alphabet):
            table = tables[s]
            for state in ordered:
                succ = dfa.successor(state, symbol)
                if succ is not None:
                    table[index[state]] = index[succ]
        return cls(
            dfa.alphabet,
            len(ordered),
            tables,
            index[dfa.initial],
            mask_of(index[q] for q in dfa.accepting),
            ordered,
        )

    def to_dfa(self) -> DFA:
        """Unpack into a :class:`DFA` carrying the original labels."""
        labels = self.labels
        transitions: dict[tuple[State, str], State] = {}
        for s, symbol in enumerate(self.alphabet):
            table = self.tables[s]
            for q in range(self.n_states):
                succ = table[q]
                if succ >= 0:
                    transitions[(labels[q], symbol)] = labels[succ]
        return DFA._from_validated(
            self.alphabet,
            frozenset(labels),
            transitions,
            labels[self.initial],
            frozenset(labels[q] for q in iter_bits(self.accepting_mask)),
        )

    # -- semantics -----------------------------------------------------

    def successor(self, state: int, symbol_index: int) -> int:
        """The successor index, or ``-1`` where undefined."""
        return self.tables[symbol_index][state]

    def accepts(self, word: str) -> bool:
        """Run the word; reject on any undefined transition."""
        current = self.initial
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            current = self.tables[self.alphabet.index(symbol)][current]
            if current < 0:
                return False
        return bool(self.accepting_mask >> current & 1)

    def is_complete(self) -> bool:
        """Whether every (state, symbol) pair has a successor."""
        return all(succ >= 0 for table in self.tables for succ in table)

    def reachable_mask(self) -> int:
        """The mask of states reachable from the initial state."""
        reached = 1 << self.initial
        frontier = [self.initial]
        while frontier:
            q = frontier.pop()
            for table in self.tables:
                succ = table[q]
                if succ >= 0 and not reached >> succ & 1:
                    reached |= 1 << succ
                    frontier.append(succ)
        return reached

    def to_key(self) -> str:
        """A canonical serialization of the renumbered structure (label-blind)."""
        from repro.util.canonical import canonical_encode

        return canonical_encode(
            (
                "PackedDFA",
                self.alphabet.symbols,
                self.n_states,
                tuple(tuple(table) for table in self.tables),
                self.initial,
                self.accepting_mask,
            )
        )

    def __repr__(self) -> str:
        n_transitions = sum(1 for table in self.tables for succ in table if succ >= 0)
        return f"PackedDFA(|Q|={self.n_states}, |δ|={n_transitions})"


def as_packed_nfa(nfa: "NFA | PackedNFA") -> PackedNFA:
    """Coerce either NFA representation to packed form (cf. ``as_packed``)."""
    if isinstance(nfa, PackedNFA):
        return nfa
    return PackedNFA.from_nfa(nfa)


def as_packed_dfa(dfa: "DFA | PackedDFA") -> PackedDFA:
    """Coerce either DFA representation to packed form."""
    if isinstance(dfa, PackedDFA):
        return dfa
    return PackedDFA.from_dfa(dfa)


# ----------------------------------------------------------------------
# Kernel 1: subset construction over int masks
# ----------------------------------------------------------------------


def packed_determinise(pnfa: PackedNFA) -> PackedDFA:
    """Subset construction with macro-states as big-int masks.

    Macro-states are discovered in the same breadth-first order as the
    frozenset-based construction this replaces (FIFO over discovery,
    symbols in alphabet order), so the resulting integer-labelled DFA is
    *identical* to the legacy output — but one macro-step is the active
    backend's fold (under ``words``/``numpy``, a handful of byte-table
    lookups via :func:`chunked_step_tables`) plus one dict probe on an
    int key, instead of a frozenset union plus a frozenset hash.
    """
    backend = get_backend()
    n_symbols = len(pnfa.alphabet)
    tables: list[list[int]] = [[] for _ in range(n_symbols)]
    steps = [
        (backend.make_step_fn(pnfa.tables[s], pnfa.n_states), tables[s].append)
        for s in range(n_symbols)
    ]
    index_of: dict[int, int] = {pnfa.initial_mask: 0}
    index_get = index_of.get
    order: list[int] = [pnfa.initial_mask]
    append_macro = order.append
    position = 0
    if n_symbols == 2:
        # Unrolled two-symbol loop: the benchmark alphabet, and the hot
        # path — per macro-state this is just two fold/probe/emit rounds
        # with no per-symbol iteration overhead.
        (step0, emit0), (step1, emit1) = steps
        while position < len(order):
            current = order[position]
            nxt = step0(current)
            macro_id = index_get(nxt)
            if macro_id is None:
                macro_id = len(order)
                index_of[nxt] = macro_id
                append_macro(nxt)
            emit0(macro_id)
            nxt = step1(current)
            macro_id = index_get(nxt)
            if macro_id is None:
                macro_id = len(order)
                index_of[nxt] = macro_id
                append_macro(nxt)
            emit1(macro_id)
            position += 1
    else:
        while position < len(order):
            current = order[position]
            for step, emit in steps:
                nxt = step(current)
                macro_id = index_get(nxt)
                if macro_id is None:
                    macro_id = len(order)
                    index_of[nxt] = macro_id
                    append_macro(nxt)
                emit(macro_id)
            position += 1
    accepting = mask_of(
        macro_id for macro_id, macro in enumerate(order) if macro & pnfa.accepting_mask
    )
    return PackedDFA(pnfa.alphabet, len(order), tables, 0, accepting)


# ----------------------------------------------------------------------
# Kernel 2: Hopcroft partition refinement over block masks
# ----------------------------------------------------------------------


def _bfs_order(
    start: int, successors: Sequence[Sequence[int]]
) -> tuple[list[int], dict[int, int]]:
    """The canonical numbering of a quotient DFA: BFS from ``start``.

    ``successors[q]`` lists ``q``'s successor ids in alphabet order.
    Returns the ids in discovery order and the ``id -> new index`` map;
    both minimisers number their output this way, which is what makes
    their tables byte-identical.
    """
    relabel = {start: 0}
    order = [start]
    position = 0
    while position < len(order):
        for nxt in successors[order[position]]:
            if nxt not in relabel:
                relabel[nxt] = len(order)
                order.append(nxt)
        position += 1
    return order, relabel


def packed_minimise(pdfa: PackedDFA) -> PackedDFA:
    """The minimal complete DFA of the same language, Hopcroft-style.

    Completes and restricts to reachable states, refines the
    accepting/rejecting partition with Hopcroft's "process the smaller
    half" worklist (blocks and preimages are single big-int masks), and
    relabels the quotient canonically by BFS from the initial block —
    the same canonical numbering as the Moore implementation this
    replaces, so outputs are byte-identical.
    """
    n_symbols = len(pdfa.alphabet)
    n = pdfa.n_states
    tables = [list(table) for table in pdfa.tables]
    # Completion: route undefined transitions to a fresh sink.
    if any(succ < 0 for table in tables for succ in table):
        sink = n
        n += 1
        for table in tables:
            for q in range(len(table)):
                if table[q] < 0:
                    table[q] = sink
            table.append(sink)
    # Restrict to reachable states, renumbered in increasing index order.
    reached = 1 << pdfa.initial
    frontier = [pdfa.initial]
    while frontier:
        q = frontier.pop()
        for table in tables:
            succ = table[q]
            if not reached >> succ & 1:
                reached |= 1 << succ
                frontier.append(succ)
    kept = list(iter_bits(reached))
    m = len(kept)
    compress = {old: new for new, old in enumerate(kept)}
    ctables = [[compress[table[old]] for old in kept] for table in tables]
    initial = compress[pdfa.initial]
    accepting = mask_of(compress[q] for q in iter_bits(pdfa.accepting_mask & reached))

    # Hopcroft refinement.  Blocks are masks over the compressed states,
    # indexed by id; `block_of[q]` tracks each state's block.  The
    # worklist holds block ids, and only blocks actually intersecting a
    # splitter's preimage are touched (found by walking the preimage's
    # set bits), which is what keeps the loop out of the quadratic
    # all-blocks scan.
    backend = get_backend()
    pre = [[0] * m for _ in range(n_symbols)]
    for s in range(n_symbols):
        rows = pre[s]
        table = ctables[s]
        for q in range(m):
            rows[table[q]] |= 1 << q
    full = (1 << m) - 1
    blocks = [block for block in (accepting, full ^ accepting) if block]
    block_of = [0] * m
    for block_id, block in enumerate(blocks):
        for q in iter_bits(block):
            block_of[q] = block_id
    worklist: deque[int] = deque()
    pending: set[int] = set()
    seed = min(range(len(blocks)), key=lambda b: blocks[b].bit_count())
    worklist.append(seed)
    pending.add(seed)
    while worklist:
        splitter_id = worklist.popleft()
        pending.discard(splitter_id)
        splitter = blocks[splitter_id]
        for s in range(n_symbols):
            preimage = backend.fold_rows(pre[s], splitter)
            if not preimage:
                continue
            # Group the preimage by block, touching only affected blocks.
            inside_of = backend.hopcroft_split(preimage, block_of)
            for block_id, inside in inside_of.items():
                block = blocks[block_id]
                if inside == block:
                    continue
                outside = block ^ inside
                blocks[block_id] = outside
                new_id = len(blocks)
                blocks.append(inside)
                for q in iter_bits(inside):
                    block_of[q] = new_id
                if block_id in pending:
                    pending.add(new_id)
                    worklist.append(new_id)
                else:
                    smaller = (
                        new_id if inside.bit_count() <= outside.bit_count() else block_id
                    )
                    pending.add(smaller)
                    worklist.append(smaller)

    # Quotient + canonical BFS relabelling (same as the legacy numbering).
    block_succ = [
        [block_of[ctables[s][(block & -block).bit_length() - 1]] for s in range(n_symbols)]
        for block in blocks
    ]
    order, relabel = _bfs_order(block_of[initial], block_succ)
    out_tables = [[relabel[block_succ[block_id][s]] for block_id in order] for s in range(n_symbols)]
    out_accepting = mask_of(
        relabel[block_id] for block_id in order if blocks[block_id] & accepting
    )
    return PackedDFA(pdfa.alphabet, len(order), out_tables, 0, out_accepting)


# ----------------------------------------------------------------------
# Kernel 2b: minimal DFAs of layered acyclic automata
# ----------------------------------------------------------------------


def packed_layered_minimal(
    alphabet: Alphabet,
    succ: Sequence[Sequence[Sequence[int]]],
    final: Sequence[Sequence[bool]],
) -> PackedDFA:
    """The minimal complete DFA of a layered acyclic DFA, by signature hashing.

    Layer ``t`` holds the states ``0..len(final[t]) - 1``, and layer 0
    holds just the initial state.  ``final[t][k]`` says whether state
    ``k`` of layer ``t`` accepts, and ``succ[t][s][k]`` is the index in
    layer ``t + 1`` of its ``σ_s``-successor, or ``-1`` where undefined.
    ``succ`` has one entry fewer than ``final``: the last layer has no
    successors.

    This is Revuz's linear-time minimisation of acyclic DFAs.  From the
    last layer up, each state's signature (its successors' classes and
    its finality) is hashed into a class, so two states share a class
    iff they have the same right language.  One table serves all layers,
    so states of different depths merge when their right languages
    agree: after ``ab`` and after ``aab`` in ``{ab, aab}``.  Class 0 is
    the sink.  The classes reachable from the initial state's are then
    numbered by BFS, the canonical numbering of :func:`packed_minimise`,
    so the result is ``to_key()``-equal to Hopcroft's on the same
    automaton.  No step looks at more than one layer's tables at once.

    >>> from repro.words import AB
    >>> succ = [[[0], [0]], [[0], [0]]]  # {aa, ab, ba, bb}: one state per layer
    >>> dfa = packed_layered_minimal(AB, succ, [[False], [False], [True]])
    >>> dfa.n_states, dfa.accepting_mask  # the three layers and the sink
    (4, 4)
    """
    n_symbols = len(alphabet)
    sink = 0
    class_of: dict[tuple, int] = {(sink,) * n_symbols + (False,): sink}
    class_succ: list[tuple] = [(sink,) * n_symbols]
    class_final = [False]
    classes: list[int] = []
    for t in range(len(final) - 1, -1, -1):
        if t < len(succ):
            mapped = [[classes[k] if k >= 0 else sink for k in row] for row in succ[t]]
        else:
            mapped = [[sink] * len(final[t])] * n_symbols
        classes = []
        for signature in zip(*mapped, final[t]):
            cls = class_of.get(signature)
            if cls is None:
                cls = class_of[signature] = len(class_succ)
                class_succ.append(signature[:-1])
                class_final.append(signature[-1])
            classes.append(cls)
    order, relabel = _bfs_order(classes[0], class_succ)
    tables = [[relabel[class_succ[cls][s]] for cls in order] for s in range(n_symbols)]
    accepting = mask_of(relabel[cls] for cls in order if class_final[cls])
    return PackedDFA(alphabet, len(order), tables, 0, accepting)


def _coaccessible(pre: Sequence[Sequence[int]], accepting_mask: int) -> int:
    """The mask of states with a path into ``accepting_mask``.

    ``pre`` is :meth:`PackedNFA.predecessor_tables`; each round folds
    only the states added by the previous one.
    """
    coaccessible = frontier = accepting_mask
    while frontier:
        grown = 0
        for rows in pre:
            grown |= fold_rows(rows, frontier)
        frontier = grown & ~coaccessible
        coaccessible |= frontier
    return coaccessible


def _phase_graded_layers(pnfa: PackedNFA, length: int) -> list[int]:
    """The useful states of ``pnfa`` grouped by phase, checked fixed-length.

    Useful = accessible and co-accessible.  ``layers[t]`` is the mask of
    useful states reached after exactly ``t`` symbols.  Raises
    :class:`AutomatonError` unless every useful state has exactly one
    phase and accepting states sit only at phase ``length`` — together
    these say the language is a subset of ``Σ^length``.  An empty
    language gives no layers.
    """
    if length < 0:
        raise AutomatonError(f"length must be non-negative, got {length}")
    coaccessible = _coaccessible(pnfa.predecessor_tables(), pnfa.accepting_mask)
    layers: list[int] = []
    seen = 0
    layer = pnfa.initial_mask & coaccessible
    while layer:
        t = len(layers)
        if t > length:
            raise AutomatonError(f"a useful state is reachable after {t} > {length} symbols")
        if layer & seen:
            state = (layer & seen).bit_length() - 1
            raise AutomatonError(f"useful state {state} is reachable at two phases")
        if t < length and layer & pnfa.accepting_mask:
            raise AutomatonError(f"accepting state at phase {t}, not {length}")
        seen |= layer
        layers.append(layer)
        successors = 0
        for s in range(len(pnfa.alphabet)):
            successors |= pnfa.step(layer, s)
        layer = successors & coaccessible
    return layers


def packed_fixed_length_minimal(pnfa: PackedNFA, length: int) -> tuple[PackedDFA, int]:
    """The minimal complete DFA of a language inside ``Σ^length``, layer by layer.

    Returns ``(dfa, macro_states)``: ``dfa`` is ``to_key()``-equal to
    ``packed_minimise(packed_determinise(pnfa))``, and ``macro_states``
    counts the macro-states the construction built (the empty one
    included).  Three steps:

    1. trim to useful states and split them into phase layers
       (:func:`_phase_graded_layers` raises :class:`AutomatonError` if
       the language is not fixed-length ``length``);
    2. a forward subset construction one layer at a time, each layer's
       macro-states being masks over that layer's states only.  Marked
       *universal*, bottom-up, are the phase-``length`` states and every
       state each of whose symbols has a universal successor; each has
       right language all of ``Σ^(length - t)`` (the converse need not
       hold, and need not for exactness).  A macro-state holding a
       universal state therefore has the full residual, so it collapses
       to the layer's universal mask — this is where the subset
       construction's redundancy goes (a row pair that already matched,
       say, no longer cares about the rest of the document);
    3. :func:`packed_layered_minimal` on the layered macro-states:
       one backward pass of signature hashing (Revuz), then the
       canonical BFS relabelling of :func:`packed_minimise`.

    No partition refinement runs, and no step ever touches a mask wider
    than one layer.

    >>> from repro.words import AB
    >>> delta = {(0, "a"): {1}, (0, "b"): {1, 2}, (1, "a"): {3}, (2, "b"): {3}}
    >>> pnfa = PackedNFA.from_nfa(NFA(AB, {0, 1, 2, 3}, delta, {0}, {3}))
    >>> dfa, built = packed_fixed_length_minimal(pnfa, 2)
    >>> dfa.n_states, built
    (5, 5)
    >>> dfa.to_key() == packed_minimise(packed_determinise(pnfa)).to_key()
    True
    """
    n_symbols = len(pnfa.alphabet)
    layers = _phase_graded_layers(pnfa, length)
    if not layers:  # empty language: the sink alone
        return PackedDFA(pnfa.alphabet, 1, [[0] for _ in range(n_symbols)], 0, 0), 1
    members = [list(iter_bits(layer)) for layer in layers]

    # Local numbering: bit i of a phase-t mask is the i-th state of layer t.
    # local_tables[t][s][i] = successors of that state on σ_s, in layer t + 1.
    local_tables: list[list[list[int]]] = []
    for t in range(length):
        local_index = {q: i for i, q in enumerate(members[t + 1])}
        below = layers[t + 1]
        local_tables.append(
            [
                [
                    mask_of(local_index[r] for r in iter_bits(pnfa.tables[s][q] & below))
                    for q in members[t]
                ]
                for s in range(n_symbols)
            ]
        )
    universal = [0] * (length + 1)
    universal[length] = (1 << len(members[length])) - 1
    for t in range(length - 1, -1, -1):
        below = universal[t + 1]
        universal[t] = mask_of(
            i
            for i in range(len(members[t]))
            if all(rows[i] & below for rows in local_tables[t])
        )

    # Forward: macros[t] lists the phase-t macro-states; succ[t][s][k] is
    # the index in macros[t + 1] of macro k's σ_s-successor (-1 if empty).
    backend = get_backend()
    start = (1 << len(members[0])) - 1
    macros: list[list[int]] = [[universal[0] if start & universal[0] else start]]
    succ: list[list[list[int]]] = []
    for t in range(length):
        absorbing = universal[t + 1]
        index_of: dict[int, int] = {}
        index_get = index_of.get
        found: list[int] = []
        rows_t: list[list[int]] = []
        for table in local_tables[t]:
            step = backend.make_step_fn(table, len(members[t]))
            row: list[int] = []
            emit = row.append
            for macro in macros[t]:
                nxt = step(macro)
                if nxt & absorbing:
                    nxt = absorbing
                elif not nxt:
                    emit(-1)
                    continue
                macro_id = index_get(nxt)
                if macro_id is None:
                    macro_id = index_of[nxt] = len(found)
                    found.append(nxt)
                emit(macro_id)
            rows_t.append(row)
        macros.append(found)
        succ.append(rows_t)

    final = [[False] * len(layer_macros) for layer_macros in macros]
    final[length] = [True] * len(macros[length])
    built = sum(len(layer_macros) for layer_macros in macros) + 1
    return packed_layered_minimal(pnfa.alphabet, succ, final), built


# ----------------------------------------------------------------------
# Kernel 3: the self-product unambiguity test over pair masks
# ----------------------------------------------------------------------


def _compress_mask(mask: int, compress: dict[int, int]) -> int:
    return mask_of(compress[bit] for bit in iter_bits(mask))


def packed_is_unambiguous(pnfa: PackedNFA) -> bool:
    """The classical self-product UFA criterion, entirely on masks.

    Trims the automaton with two mask fixpoints (accessible and
    co-accessible), then explores the self-product row-wise: the reached
    pair set is kept as ``m`` masks, ``R[p]`` = the states ``q`` with
    ``(p, q)`` reachable from ``I × I`` by a common word.  One forward
    step from row ``p`` under symbol ``σ`` adds ``δ(p, σ) ×
    fold(δ(·, σ), R[p])`` — two OR-folds on ``m``-bit integers per
    (row, symbol), never a tuple set and never an ``m²``-bit value.
    Co-reachability to ``F × F`` runs the dual fold over predecessor
    rows, restricted to reached pairs.  The NFA is unambiguous iff no
    off-diagonal pair survives both passes.
    """
    n_symbols = len(pnfa.alphabet)
    # Trim: accessible ∩ co-accessible states, as mask fixpoints.
    accessible = pnfa.initial_mask
    while True:
        grown = 0
        for s in range(n_symbols):
            grown |= pnfa.step(accessible, s)
        grown &= ~accessible
        if not grown:
            break
        accessible |= grown
    pre = pnfa.predecessor_tables()
    keep = accessible & _coaccessible(pre, pnfa.accepting_mask)
    if not keep:
        return True  # empty language: no word has two runs

    kept = list(iter_bits(keep))
    m = len(kept)
    compress = {old: new for new, old in enumerate(kept)}
    tables = [
        [_compress_mask(pnfa.tables[s][old] & keep, compress) for old in kept]
        for s in range(n_symbols)
    ]
    pre_tables = [
        [_compress_mask(pre[s][old] & keep, compress) for old in kept] for s in range(n_symbols)
    ]
    initial = _compress_mask(pnfa.initial_mask & keep, compress)
    accepting = _compress_mask(pnfa.accepting_mask & keep, compress)

    # Forward: R[p] = {q : (p, q) reachable from I × I by a common word}.
    # Successors of row p under σ: pairs δ(p, σ) × ⋃_{q ∈ R[p]} δ(q, σ).
    reached = [initial if initial >> p & 1 else 0 for p in range(m)]
    dirty = list(iter_bits(initial))
    queued = set(dirty)
    while dirty:
        p = dirty.pop()
        queued.discard(p)
        row = reached[p]
        for s in range(n_symbols):
            targets = tables[s][p]
            if not targets:
                continue
            q_successors = fold_rows(tables[s], row)
            if not q_successors:
                continue
            for p2 in iter_bits(targets):
                if q_successors & ~reached[p2]:
                    reached[p2] |= q_successors
                    if p2 not in queued:
                        queued.add(p2)
                        dirty.append(p2)

    # Backward: C[p] = {q : (p, q) reached and co-reachable to F × F}.
    # Predecessors of rows C under σ, row p: the pairs (p, q) with
    # δ(p, σ) ∩ rows ≠ ∅ and δ(q, σ) ∩ ⋃_{p' ∈ δ(p, σ)} C[p'] ≠ ∅ —
    # i.e. fold C over δ(p, σ), then fold the predecessor table over it.
    co = [
        (accepting & reached[p]) if accepting >> p & 1 else 0 for p in range(m)
    ]
    dirty = [p for p in range(m) if co[p]]
    queued = set(dirty)
    while dirty:
        p2 = dirty.pop()
        queued.discard(p2)
        for s in range(n_symbols):
            sources = pre_tables[s][p2]
            if not sources:
                continue
            for p in iter_bits(sources):
                forward = fold_rows(co, tables[s][p])
                if not forward:
                    continue
                q_predecessors = fold_rows(pre_tables[s], forward) & reached[p]
                if q_predecessors & ~co[p]:
                    co[p] |= q_predecessors
                    if p not in queued:
                        queued.add(p)
                        dirty.append(p)

    return all(not (co[p] & ~(1 << p)) for p in range(m))


# ----------------------------------------------------------------------
# Kernel 4: exact transfer-matrix counting with repeated squaring
# ----------------------------------------------------------------------


def transfer_counts(pdfa: PackedDFA) -> list[list[int]]:
    """``M[i][j]`` = number of symbols taking state ``i`` to state ``j``.

    Dense, for repeated squaring; the sweeps read the same counts as
    sparse rows (``_transfer_rows``).
    """
    n = pdfa.n_states
    matrix = [[0] * n for _ in range(n)]
    for table in pdfa.tables:
        for q in range(n):
            succ = table[q]
            if succ >= 0:
                matrix[q][succ] += 1
    return matrix


def nfa_transfer_counts(pnfa: PackedNFA) -> list[list[int]]:
    """``M[i][j]`` = number of transitions ``(i, σ, j)`` (counts runs)."""
    n = pnfa.n_states
    matrix = [[0] * n for _ in range(n)]
    for table in pnfa.tables:
        for q in range(n):
            for succ in iter_bits(table[q]):
                matrix[q][succ] += 1
    return matrix


def _transfer_rows(pdfa: PackedDFA) -> list[list[tuple[int, int]]]:
    """Row ``i`` of :func:`transfer_counts` as its ``(j, count)`` non-zeros,
    ``j`` ascending, read straight off the successor tables."""
    rows = []
    for q in range(pdfa.n_states):
        counts: dict[int, int] = {}
        for table in pdfa.tables:
            succ = table[q]
            if succ >= 0:
                counts[succ] = counts.get(succ, 0) + 1
        rows.append(sorted(counts.items()))
    return rows


def _nfa_transfer_rows(pnfa: PackedNFA) -> list[list[tuple[int, int]]]:
    """Row ``i`` of :func:`nfa_transfer_counts` as its ``(j, count)``
    non-zeros, ``j`` ascending, read straight off the transition masks."""
    rows = []
    for q in range(pnfa.n_states):
        counts: dict[int, int] = {}
        for table in pnfa.tables:
            for succ in iter_bits(table[q]):
                counts[succ] = counts.get(succ, 0) + 1
        rows.append(sorted(counts.items()))
    return rows


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return get_backend().mat_mul(a, b)


def _vec_mat(vector: list[int], matrix: list[list[int]]) -> list[int]:
    return get_backend().vec_mat(vector, matrix)


def _accepting_sum(vector: list[int], accepting_mask: int) -> int:
    return sum(vector[j] for j in iter_bits(accepting_mask))


def _useful_restriction(
    matrix: list[list[int]], vector: list[int], accepting_mask: int
) -> tuple[list[list[int]], list[int], int]:
    """Restrict the counting problem to states on some initial→accepting path.

    A state off every such path contributes nothing to the final sum, but
    can dominate the *intermediate* entries of ``M^k`` — a completion
    sink's self-loops count all ``|Σ|^k`` dead paths, turning entries
    into ``Θ(k)``-bit integers even when the answer itself is small.
    Dropping non-useful states keeps repeated squaring honest: entry
    growth then reflects the counted language, not the completion.
    """
    n = len(vector)
    forward = {i for i, value in enumerate(vector) if value}
    stack = list(forward)
    while stack:
        i = stack.pop()
        for j, count in enumerate(matrix[i]):
            if count and j not in forward:
                forward.add(j)
                stack.append(j)
    backward = {j for j in range(n) if accepting_mask >> j & 1}
    stack = list(backward)
    while stack:
        j = stack.pop()
        for i in range(n):
            if matrix[i][j] and i not in backward:
                backward.add(i)
                stack.append(i)
    keep = sorted(forward & backward)
    if len(keep) == n:
        return matrix, vector, accepting_mask
    sub_matrix = [[matrix[i][j] for j in keep] for i in keep]
    sub_vector = [vector[i] for i in keep]
    sub_accepting = sum(1 << k for k, i in enumerate(keep) if accepting_mask >> i & 1)
    return sub_matrix, sub_vector, sub_accepting


def _count_by_power(matrix: list[list[int]], vector: list[int], accepting_mask: int, length: int) -> int:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    matrix, vector, accepting_mask = _useful_restriction(matrix, vector, accepting_mask)
    if not vector:
        return 0
    backend = get_backend()
    remaining = length
    while remaining:
        if remaining & 1:
            vector = backend.vec_mat(vector, matrix)
        remaining >>= 1
        if remaining:
            matrix = backend.mat_mul(matrix, matrix)
    return _accepting_sum(vector, accepting_mask)


def count_words_by_power(pdfa: PackedDFA, length: int) -> int:
    """Exact accepted-word count at one length via repeated squaring.

    ``O(|Q|³ log length)`` exact integer matrix products instead of
    ``length`` state sweeps — the win for long words over small automata
    (``count_dfa_words_of_length(d, 2n)`` in ``O(log n)`` products).
    """
    vector = [0] * pdfa.n_states
    vector[pdfa.initial] = 1
    return _count_by_power(transfer_counts(pdfa), vector, pdfa.accepting_mask, length)


def count_words_by_sweep(pdfa: PackedDFA, length: int) -> int:
    """Exact accepted-word count at one length via ``length`` vector sweeps.

    ``O(length · |δ|)`` — the better regime for short words or large
    automata; exactly the legacy recurrence on integer vectors instead of
    per-state dicts.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    vector = [0] * pdfa.n_states
    vector[pdfa.initial] = 1
    adjacency = _transfer_rows(pdfa)
    sweep = get_backend().make_sweep_fn(adjacency, pdfa.n_states)
    for _ in range(length):
        vector = sweep(vector)
    return _accepting_sum(vector, pdfa.accepting_mask)


def count_words_table(pdfa: PackedDFA, max_length: int) -> dict[int, int]:
    """``{length: #accepted words}`` for every length up to the bound.

    One incremental sweep — each length extends the previous vector, so
    the whole table costs ``O(max_length · |δ|)``.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    vector = [0] * pdfa.n_states
    vector[pdfa.initial] = 1
    adjacency = _transfer_rows(pdfa)
    sweep = get_backend().make_sweep_fn(adjacency, pdfa.n_states)
    table = {0: _accepting_sum(vector, pdfa.accepting_mask)}
    for length in range(1, max_length + 1):
        vector = sweep(vector)
        table[length] = _accepting_sum(vector, pdfa.accepting_mask)
    return table


def count_runs_by_power(pnfa: PackedNFA, length: int) -> int:
    """Exact accepting-run count at one length via repeated squaring."""
    vector = [1 if pnfa.initial_mask >> q & 1 else 0 for q in range(pnfa.n_states)]
    return _count_by_power(nfa_transfer_counts(pnfa), vector, pnfa.accepting_mask, length)


def count_runs_by_sweep(pnfa: PackedNFA, length: int) -> int:
    """Exact accepting-run count at one length via vector sweeps."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    vector = [1 if pnfa.initial_mask >> q & 1 else 0 for q in range(pnfa.n_states)]
    adjacency = _nfa_transfer_rows(pnfa)
    sweep = get_backend().make_sweep_fn(adjacency, pnfa.n_states)
    for _ in range(length):
        vector = sweep(vector)
    return _accepting_sum(vector, pnfa.accepting_mask)
