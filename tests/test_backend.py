"""The backend tier: bit-exact differential tests and selection mechanics.

Every backend must return *identical* integers to the reference backend
on every primitive — the differential tests below throw seeded random
inputs at each primitive family and compare.  The selection tests pin
the documented resolution order (context > process > environment >
auto) and the engine/adapters' ``backend=`` plumbing.
"""

from __future__ import annotations

import random
import threading
from functools import lru_cache

import pytest

from repro.backend import (
    BACKEND_CLASSES,
    available_backends,
    backend_info,
    backend_names,
    delegates_to,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.backend.reference import ReferenceBackend, fold_checksum
from repro.backend.words import WordsBackend, from_words, to_words
from repro.errors import SymbolError

REFERENCE = ReferenceBackend()

#: Every available non-reference backend, compared against reference.
OTHERS = [name for name in available_backends() if name != "reference"]


@pytest.fixture(params=OTHERS)
def other(request):
    """Each available backend that must match the reference bit-exactly."""
    return get_backend(request.param)


def _rng(salt: int = 0) -> random.Random:
    return random.Random(0xBACE + salt)


def _masks(rng: random.Random, count: int, bits: int) -> list[int]:
    return [rng.getrandbits(bits) for _ in range(count)]


# ----------------------------------------------------------------------
# Differential: every primitive, every backend, random inputs
# ----------------------------------------------------------------------


def test_popcounts_match(other):
    rng = _rng(1)
    for bits in (1, 7, 64, 200):
        masks = _masks(rng, 20, bits)
        for mask in masks:
            assert other.popcount(mask) == REFERENCE.popcount(mask)
        assert other.popcount_rows(masks) == REFERENCE.popcount_rows(masks)


def test_bit_indices_match(other):
    rng = _rng(11)
    cases = [0, 1, 2, 1 << 63, (1 << 64) - 1, (1 << 100) + 1]
    for bits in (1, 7, 64, 200, 1000, 5000):
        cases.extend(_masks(rng, 10, bits))
        # Sparse masks exercise the zero-byte skipping paths.
        cases.append(sum(1 << rng.randrange(bits) for _ in range(3)))
    for mask in cases:
        expected = REFERENCE.bit_indices(mask)
        got = other.bit_indices(mask)
        assert got == expected
        assert got == sorted(got)
        assert all(isinstance(index, int) for index in got)
        assert len(got) == REFERENCE.popcount(mask)


def test_bit_indices_frozen_oracle():
    # The reference semantics, pinned: ascending positions of set bits.
    assert REFERENCE.bit_indices(0) == []
    assert REFERENCE.bit_indices(0b1011) == [0, 1, 3]
    assert REFERENCE.bit_indices(1 << 977) == [977]


def test_transpose_and_fold_match(other):
    rng = _rng(2)
    for n_rows, n_cols in ((1, 1), (5, 9), (64, 64), (70, 33)):
        rows = _masks(rng, n_rows, n_cols)
        assert other.transpose_masks(rows, n_cols) == REFERENCE.transpose_masks(
            rows, n_cols
        )
        for mask in _masks(rng, 10, n_rows):
            assert other.fold_rows(rows, mask) == REFERENCE.fold_rows(rows, mask)


def test_step_fn_matches(other):
    rng = _rng(3)
    for n_states in (1, 8, 24, 64, 130):
        table = _masks(rng, n_states, n_states)
        ours = other.make_step_fn(table, n_states)
        theirs = REFERENCE.make_step_fn(table, n_states)
        for mask in _masks(rng, 25, n_states) + [0, (1 << n_states) - 1]:
            assert ours(mask) == theirs(mask)


def test_superset_and_and_reduce_match(other):
    rng = _rng(4)
    for n in (1, 9, 40, 100):
        # OR of two samples biases rows dense so supersets actually occur.
        allow = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)]
        for _ in range(20):
            cols = 1 << rng.randrange(n)
            assert other.superset_rows(allow, cols) == REFERENCE.superset_rows(
                allow, cols
            )
        for mask in _masks(rng, 10, n) + [0]:
            assert other.and_reduce(allow, mask) == REFERENCE.and_reduce(allow, mask)


def test_cells_of_rect_matches(other):
    rng = _rng(15)
    for n_rows, n_cols in ((1, 1), (6, 4), (17, 9), (64, 64), (70, 33)):
        cases = _masks(rng, 12, n_rows) + [0, (1 << n_rows) - 1]
        # Long contiguous runs exercise the run-doubling fill.
        cases.append(((1 << (n_rows - n_rows // 3)) - 1) << (n_rows // 3))
        for rows_mask in cases:
            for cols_mask in _masks(rng, 4, n_cols) + [0, (1 << n_cols) - 1]:
                assert other.cells_of_rect(
                    rows_mask, cols_mask, n_cols
                ) == REFERENCE.cells_of_rect(rows_mask, cols_mask, n_cols)


def test_cells_of_rect_frozen_oracle():
    # Bit i*n_cols + j set iff row i and column j are both members.
    assert REFERENCE.cells_of_rect(0b11, 0b10, 2) == 0b1010
    assert REFERENCE.cells_of_rect(0, 0b11, 4) == 0
    assert REFERENCE.cells_of_rect(0b101, 0b1, 3) == (1 << 6) | 1


def test_hopcroft_split_matches(other):
    rng = _rng(5)
    for n in (1, 10, 63, 90):
        block_of = [rng.randrange(4) for _ in range(n)]
        for preimage in _masks(rng, 15, n) + [0, (1 << n) - 1]:
            assert other.hopcroft_split(preimage, block_of) == REFERENCE.hopcroft_split(
                preimage, block_of
            )


def test_bareiss_rank_matches(other):
    rng = _rng(6)
    for side in (1, 4, 9, 16):
        matrix = [
            [rng.randrange(-3, 4) for _ in range(side)] for _ in range(side)
        ]
        # bareiss_rank mutates its working copy; each backend gets its own.
        ours = other.bareiss_rank([row[:] for row in matrix])
        theirs = REFERENCE.bareiss_rank([row[:] for row in matrix])
        assert ours == theirs


def test_gf2_rank_matches(other):
    rng = _rng(7)
    for n_rows, n_cols in ((1, 1), (8, 8), (40, 25), (64, 100), (128, 128)):
        bitrows = _masks(rng, n_rows, n_cols)
        assert other.gf2_rank(bitrows, n_cols) == REFERENCE.gf2_rank(bitrows, n_cols)
    # Linearly dependent rows must not inflate the rank.
    rows = [0b101, 0b011, 0b110, 0b101]
    assert other.gf2_rank(rows, 3) == REFERENCE.gf2_rank(rows, 3) == 2


def test_matrix_products_match(other):
    rng = _rng(8)
    for side in (1, 3, 8):
        a = [[rng.randrange(0, 5) for _ in range(side)] for _ in range(side)]
        b = [[rng.randrange(0, 5) for _ in range(side)] for _ in range(side)]
        vec = [rng.randrange(0, 5) for _ in range(side)]
        assert other.mat_mul(a, b) == REFERENCE.mat_mul(a, b)
        assert other.vec_mat(vec, a) == REFERENCE.vec_mat(vec, a)


def test_sweep_fn_matches(other):
    rng = _rng(9)
    for n in (1, 12, 48):
        adjacency = [
            [
                (rng.randrange(n), rng.randrange(1, 4))
                for _ in range(rng.randrange(0, 3))
            ]
            for _ in range(n)
        ]
        ours = other.make_sweep_fn(adjacency, n)
        theirs = REFERENCE.make_sweep_fn(adjacency, n)
        vector = [1] * n
        expected = list(vector)
        for _ in range(30):
            vector = ours(vector)
            expected = theirs(expected)
            assert vector == expected


def test_max_bilinear_matches(other):
    rng = _rng(10)
    for dim, width in ((1, 1), (3, 5), (8, 16), (11, 40)):
        base = [
            [rng.randrange(-2, 3) for _ in range(width)] for _ in range(dim)
        ]
        assert other.max_bilinear(base) == REFERENCE.max_bilinear(base)


def test_max_bilinear_huge_entries_match(other):
    # Entries wide enough to trip the numpy int64-overflow guard: the
    # backend must fall back to the exact SWAR path, bit-identically.
    rng = _rng(11)
    base = [[rng.randrange(-(1 << 60), 1 << 60) for _ in range(4)] for _ in range(4)]
    assert other.max_bilinear(base) == REFERENCE.max_bilinear(base)


def test_binary_step_matches(other):
    rng = _rng(12)
    for n_nts, n_rules in ((1, 1), (10, 20), (30, 80)):
        binary = [
            (
                1 << rng.randrange(n_nts),
                1 << rng.randrange(n_nts),
                1 << rng.randrange(n_nts),
            )
            for _ in range(n_rules)
        ]
        ours = other.make_binary_step(binary)
        theirs = REFERENCE.make_binary_step(binary)
        for _ in range(25):
            left, right = rng.getrandbits(n_nts), rng.getrandbits(n_nts)
            assert ours(left, right) == theirs(left, right)


#: Document lengths 2, 6, 8, 10, 16 and 20 (2, 6 and 10 are not multiples
#: of the numpy scan's 4-character block), then extract-scan's widest
#: queries: the 3,419-state five-column ``match`` and the three-column ``leq``.
SCAN_SHAPES = [
    pytest.param(1, 1, (1,), "match", id="len2"),
    pytest.param(3, 1, (1, 3), "match", id="len6"),
    pytest.param(2, 2, (1, 2), "match", id="len8"),
    pytest.param(5, 1, (2, 4), "match", id="len10"),
    pytest.param(4, 2, (1, 4), "match", id="len16"),
    pytest.param(5, 2, (1, 3, 4), "match", id="len20"),
    pytest.param(5, 2, (1, 2, 3, 4, 5), "match", id="len20-match5"),
    pytest.param(5, 2, (1, 3, 4), "leq", id="len20-leq3"),
]
#: Body sizes in documents, across a 64-bit word, a power of two (4,096)
#: and the numpy scan's 2^16-document slice.
SCAN_DOCS = (0, 1, 63, 64, 65, 4095, 4096, 4097, 70_000)
_TOP = (1 << 64) - 1
#: ``(checksum, base)`` starts for the fold: zero, near 2^64, and bases
#: at and beyond 2^40.
FOLD_STARTS = [(0, 0), (_TOP, 1 << 40), (_TOP - 0xBEEF, (1 << 40) + 0xCAFE), (12345, _TOP)]
_TO_AB = str.maketrans("01", "ab")


def _random_body(rng: random.Random, n_chars: int) -> str:
    if not n_chars:
        return ""
    return format(rng.getrandbits(n_chars), f"0{n_chars}b").translate(_TO_AB)


def _folded(ids: list[int], checksum: int, base: int) -> int:
    """The frozen Horner fold of ``base + i`` over ``ids``, one id at a time."""
    for index in ids:
        checksum = fold_checksum(checksum, base + index)
    return checksum


@lru_cache(maxsize=None)
def _scan_case(c: int, w: int, columns: tuple[int, ...], relation: str):
    """The DFA's factory arguments and seeded bodies of checked text (each
    with a trailing partial document), with the reference scan's match
    ids per body."""
    from repro.extract import compile_scanner, relation_pairs

    compiled = compile_scanner(c, w, columns, relation_pairs(relation, w))
    dfa, length = compiled.dfa, compiled.doc_len
    args = (dfa.tables, dfa.initial, dfa.accepting_mask, length)
    kernel = REFERENCE.make_layered_scan(*args)
    rng = _rng(23)
    cases = []
    for n_docs in SCAN_DOCS:
        body = _random_body(rng, n_docs * length + rng.randrange(length)).encode("ascii")
        ids: list[int] = []
        count, checksum = REFERENCE.layered_scan(kernel, body, 0, 0, ids)
        assert (count, checksum) == (len(ids), _folded(ids, 0, 0))
        if n_docs <= 65:  # the reference walk against per-document runs
            docs = (body[d * length : (d + 1) * length].decode() for d in range(n_docs))
            assert ids == [d for d, doc in enumerate(docs) if dfa.accepts(doc)]
        cases.append((body, ids))
    return args, cases


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, w, columns, relation", SCAN_SHAPES)
def test_layered_scan_matches(other, c, w, columns, relation):
    args, cases = _scan_case(c, w, columns, relation)
    kernel = other.make_layered_scan(*args)
    for k, (body, ids) in enumerate(cases):
        checksum, base = FOLD_STARTS[k % len(FOLD_STARTS)]
        expected = (len(ids), _folded(ids, checksum, base))
        if k % 2:
            assert other.layered_scan(kernel, body, checksum, base) == expected, len(body)
            continue
        collected: list[int] = []
        assert other.layered_scan(kernel, body, checksum, base, collected) == expected, len(body)
        assert collected == [base + i for i in ids]
    # Foreign characters are the check's to find, before any scan: in a
    # whole document, in the trailing partial one, and past the numpy
    # scan's first slice.  A rejected chunk reaches no kernel, so no ids
    # are appended.
    from repro.extract import StreamScanner, compile_scanner, relation_pairs

    length = args[-1]
    bad_body = "a" * (length + 1) + "c" + "b" * (length - 2)
    bad_tail = "b" * length + "é"
    late = 66_000 * length
    bad_late = cases[-1][0][:late].decode() + "c" + cases[-1][0][late + 1 :].decode()
    compiled = compile_scanner(c, w, columns, relation_pairs(relation, w))
    for body, offset in ((bad_body, length + 1), (bad_tail, length), (bad_late, late)):
        for backend in (other, REFERENCE):
            assert backend.find_foreign(body.encode("ascii", "replace")) == offset
            with use_backend(backend.name):
                scanner = StreamScanner(compiled, collect_ids=True)
            state = scanner.new_state()
            with pytest.raises(SymbolError) as info:
                scanner.feed(state, body)
            assert (info.value.offset, info.value.char) == (offset, body[offset])
            assert state.match_ids == []


@pytest.mark.filterwarnings("error")
def test_find_foreign_matches(other):
    # Bodies on both sides of numpy's delegation threshold, with a foreign
    # byte at the start, inside or at the end, including the neighbours of
    # 'a' and 'b' (0x60, 0x63) that a min/max test must not miss.
    rng = _rng(29)
    for n_chars in (0, 1, 8191, 8192, 8193, 100_000):
        body = _random_body(rng, n_chars).encode("ascii")
        assert other.find_foreign(body) == REFERENCE.find_foreign(body) == -1
        if not n_chars:
            continue
        for at in sorted({0, n_chars // 2, rng.randrange(n_chars), n_chars - 1}):
            for byte in b"`c?\x00\xff":
                bad = body[:at] + bytes([byte]) + body[at + 1 :]
                assert other.find_foreign(bad) == REFERENCE.find_foreign(bad) == at


@lru_cache(maxsize=None)
def _fold_cases():
    """Bodies of two-character documents for the one-character-row
    ``match`` DFA, which matches a document iff it is ``aa`` or ``bb``,
    with the reference scan's match ids per body."""
    from repro.extract import compile_scanner, relation_pairs

    dfa = compile_scanner(1, 1, (1,), relation_pairs("match", 1)).dfa
    args = (dfa.tables, dfa.initial, dfa.accepting_mask, 2)
    kernel = REFERENCE.make_layered_scan(*args)
    # Every document matching crosses the numpy fold's table and slice
    # edges at exactly the body's size; the rest match none or a few.
    bodies = [b"aa" * n_docs for n_docs in (1, 63, 64, 65, 4095, 4096, 4097, 1 << 16, 70_000)]
    bodies += [b"ab" * 5000, b"aa" * 70_000 + b"b"]
    sparse = [b"ab"] * 70_000
    for d in _rng(25).sample(range(70_000), 3):
        sparse[d] = b"bb"
    bodies.append(b"".join(sparse))
    cases = []
    for body in bodies:
        ids: list[int] = []
        assert REFERENCE.layered_scan(kernel, body, 0, 0, ids) == (len(ids), _folded(ids, 0, 0))
        cases.append((body, ids))
    return args, cases


@pytest.mark.filterwarnings("error")
def test_fold_indices_matches(other):
    args, cases = _fold_cases()
    kernel = other.make_layered_scan(*args)
    for body, ids in cases:
        for k, (checksum, base) in enumerate(FOLD_STARTS):
            expected = (len(ids), _folded(ids, checksum, base))
            if k % 2:
                assert other.layered_scan(kernel, body, checksum, base) == expected, (len(body), k)
                continue
            collected: list[int] = []
            assert other.layered_scan(kernel, body, checksum, base, collected) == expected, (
                len(body),
                k,
            )
            assert collected == [base + i for i in ids]


def test_fold_indices_frozen_oracle():
    # One-character documents matching iff "b": documents 0, 1 and 3 of "bbab".
    kernel = REFERENCE.make_layered_scan([[2, 2, 2], [1, 2, 2]], 0, 0b10, 1)
    assert REFERENCE.layered_scan(kernel, b"aa", 77, 5) == (0, 77)
    ids: list[int] = []
    expected = fold_checksum(fold_checksum(fold_checksum(9, 10), 11), 13)
    assert REFERENCE.layered_scan(kernel, b"bbab", 9, 10, ids) == (3, expected)
    assert ids == [10, 11, 13]


# ----------------------------------------------------------------------
# Word-array helpers
# ----------------------------------------------------------------------


def test_to_words_round_trip():
    rng = _rng(13)
    for bits in (1, 63, 64, 65, 200, 1000):
        for mask in _masks(rng, 10, bits) + [0]:
            assert from_words(to_words(mask, bits)) == mask


def test_limb_helpers_round_trip():
    from repro.backend.limbs import (
        LIMB_BYTES,
        limb_width_bytes,
        limbs_for_bits,
        limbs_to_mask,
        mask_to_bytes,
        mask_to_limbs,
        masks_to_limbs,
    )

    # Limb counts round up to whole u64 words; zero bits still get one.
    assert [limbs_for_bits(bits) for bits in (0, 1, 64, 65, 128, 129)] == [
        1, 1, 1, 2, 2, 3,
    ]
    rng = _rng(16)
    for bits in (1, 63, 64, 65, 200, 1000):
        width = limb_width_bytes(bits)
        assert width == limbs_for_bits(bits) * LIMB_BYTES
        masks = _masks(rng, 8, bits) + [0, (1 << bits) - 1]
        for mask in masks:
            buf = mask_to_limbs(mask, bits)
            assert len(buf) == width
            assert limbs_to_mask(buf) == mask
            # Minimal-width buffers drop trailing zero bytes but keep
            # the value (the width-independent kernel path).
            assert limbs_to_mask(mask_to_bytes(mask)) == mask
        joined = masks_to_limbs(masks, bits)
        assert len(joined) == width * len(masks)
        for index, mask in enumerate(masks):
            row = joined[index * width : (index + 1) * width]
            assert limbs_to_mask(row) == mask


# ----------------------------------------------------------------------
# Selection mechanics
# ----------------------------------------------------------------------


def test_registry_names_and_availability():
    assert backend_names() == ["reference", "words", "numpy", "cext"]
    available = available_backends()
    assert "reference" in available and "words" in available
    assert set(available) <= set(backend_names())


def test_resolve_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("simd")
    assert resolve_backend("auto") in ("cext", "numpy", "words")
    assert resolve_backend(None) == resolve_backend("auto")


def test_auto_prefers_the_fastest_available_tier():
    # cext > numpy > words, skipping whatever is not built/importable.
    expected = "words"
    if "numpy" in available_backends():
        expected = "numpy"
    if "cext" in available_backends():
        expected = "cext"
    assert resolve_backend("auto") == expected


def test_unavailable_reason_contract():
    # Available tiers have nothing to explain; unavailable tiers must
    # say why (this is what `python -m repro backends` prints).
    for name, cls in BACKEND_CLASSES.items():
        reason = cls.unavailable_reason()
        if cls.available():
            assert reason is None, name
        else:
            assert isinstance(reason, str) and reason, name


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert get_backend().name == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "words")
    assert get_backend().name == "words"


def test_set_backend_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "words")
    set_backend("reference")
    try:
        assert get_backend().name == "reference"
    finally:
        set_backend(None)
    assert get_backend().name == "words"


def test_use_backend_overrides_everything(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "words")
    set_backend("words")
    try:
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert get_backend().name == "reference"
        assert get_backend().name == "words"
    finally:
        set_backend(None)


def test_use_backend_none_is_a_no_op_scope():
    before = get_backend().name
    with use_backend(None) as backend:
        assert backend.name == before
    assert get_backend().name == before


def test_use_backend_is_thread_isolated():
    seen: dict[str, str] = {}
    barrier = threading.Barrier(2)

    def pinned(name: str) -> None:
        with use_backend(name):
            barrier.wait(timeout=5)  # both threads inside their scopes
            seen[name] = get_backend().name

    threads = [
        threading.Thread(target=pinned, args=(name,))
        for name in ("reference", "words")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == {"reference": "reference", "words": "words"}


def test_use_backend_thread_isolation_covers_every_available_tier():
    # Same contextvar-isolation property, across the full tier ladder —
    # the threaded ``repro.serve`` executor relies on this holding for
    # cext/numpy too, not just the always-available pair.
    names = available_backends()
    seen: dict[str, str] = {}
    barrier = threading.Barrier(len(names))

    def pinned(name: str) -> None:
        with use_backend(name):
            barrier.wait(timeout=10)
            seen[name] = get_backend().name

    threads = [threading.Thread(target=pinned, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == {name: name for name in names}


def test_backend_instances_are_cached_singletons():
    assert get_backend("words") is get_backend("words")
    assert get_backend("reference") is get_backend("reference")


def test_backend_info_shape():
    info = backend_info("words")
    assert info == {"name": "words", "numpy": None}
    if "numpy" in available_backends():
        info = backend_info("numpy")
        assert info["name"] == "numpy"
        assert isinstance(info["numpy"], str)


# ----------------------------------------------------------------------
# Delegation introspection
# ----------------------------------------------------------------------


def test_delegates_to_reports_the_defining_class():
    words = WordsBackend()
    # Overridden kernels are owned; everything else delegates to reference.
    assert delegates_to(words, "gf2_rank") == "words"
    assert delegates_to(words, "make_step_fn") == "words"
    assert delegates_to(words, "bit_indices") == "words"
    assert delegates_to(words, "bareiss_rank") == "reference"
    assert delegates_to(words, "mat_mul") == "reference"
    assert delegates_to(words, "max_bilinear") == "reference"
    # The extraction check and scan: numpy owns them, words inherits them.
    for method in ("find_foreign", "make_layered_scan", "layered_scan"):
        assert delegates_to(words, method) == "reference"
        assert delegates_to(BACKEND_CLASSES["numpy"](), method) == "numpy"
    with pytest.raises(AttributeError):
        delegates_to(words, "not_a_kernel")


def test_inherited_kernels_are_the_same_function_object():
    # The bit-exactness argument for un-overridden primitives: they are
    # literally the same function, not a reimplementation.
    assert WordsBackend.bareiss_rank is ReferenceBackend.bareiss_rank
    assert WordsBackend.mat_mul is ReferenceBackend.mat_mul
    if "numpy" in available_backends():
        numpy_cls = BACKEND_CLASSES["numpy"]
        assert numpy_cls.gf2_rank is WordsBackend.gf2_rank
        assert numpy_cls.max_bilinear is not ReferenceBackend.max_bilinear


def test_cext_delegation_rules():
    # The compiled tier overrides only mask-kernel primitives where C
    # measurably wins; scan loops stay words, exact-integer kernels stay
    # reference — so their results are definitionally bit-exact.
    from repro.backend.cext import CextBackend

    for method in (
        "popcount_rows",
        "bit_indices",
        "transpose_masks",
        "fold_rows",
        "make_step_fn",
        "cells_of_rect",
        "hopcroft_split",
        "gf2_rank",
    ):
        assert method in vars(CextBackend)  # overridden on the class itself
    # popcount is int.bit_count under the hood — C cannot beat it.
    assert CextBackend.popcount is ReferenceBackend.popcount
    # Word-at-a-time scans without a limb-buffer win stay delegated.
    assert CextBackend.superset_rows is WordsBackend.superset_rows
    assert CextBackend.and_reduce is WordsBackend.and_reduce
    assert CextBackend.make_sweep_fn is WordsBackend.make_sweep_fn
    # Exact-integer kernels never cross the u64-limb boundary.
    assert CextBackend.bareiss_rank is ReferenceBackend.bareiss_rank
    assert CextBackend.mat_mul is ReferenceBackend.mat_mul
    assert CextBackend.max_bilinear is ReferenceBackend.max_bilinear
    assert CextBackend.make_binary_step is ReferenceBackend.make_binary_step
    # The extraction check and scan stay the reference ones; the walk
    # expands its accept mask with self.bit_indices, so the C kernel
    # still runs inside it.
    assert CextBackend.find_foreign is ReferenceBackend.find_foreign
    assert CextBackend.make_layered_scan is ReferenceBackend.make_layered_scan
    assert CextBackend.layered_scan is ReferenceBackend.layered_scan


@pytest.mark.skipif("cext" not in available_backends(), reason="cext not built")
def test_cext_module_pins_the_limb_abi():
    from repro import _cext
    from repro.backend.limbs import LIMB_BYTES

    kernels = _cext.load()
    assert kernels is not None
    assert kernels.ABI_VERSION == _cext.EXPECTED_ABI_VERSION == 1
    assert kernels.LIMB_BYTES == LIMB_BYTES == 8


@pytest.mark.skipif("cext" not in available_backends(), reason="cext not built")
def test_cext_step_fn_delegates_below_threshold():
    # Tiny alphabets stay on the words closure (C call overhead loses);
    # at/above the threshold the compiled StepTable takes over.  Both
    # paths were differentially tested above; this pins the switch.
    from repro._cext import load
    from repro.backend.cext import _STEP_C_MIN_STATES, CextBackend

    backend = CextBackend()
    rng = _rng(17)
    small_n = _STEP_C_MIN_STATES - 1
    small = backend.make_step_fn(_masks(rng, small_n, small_n), small_n)
    big_n = _STEP_C_MIN_STATES
    big = backend.make_step_fn(_masks(rng, big_n, big_n), big_n)
    step_table_type = load().StepTable

    def carries_step_table(fn) -> bool:
        cells = [cell.cell_contents for cell in (fn.__closure__ or [])]
        return any(
            isinstance(value, step_table_type)
            for value in [*cells, *(fn.__defaults__ or [])]
        )

    assert not carries_step_table(small)
    assert carries_step_table(big)


# ----------------------------------------------------------------------
# Plumbing: adapters, engine, run records
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", available_backends())
def test_counting_adapters_take_backend_kwarg(name):
    from repro.automata.counting import (
        count_dfa_words_of_length,
        count_dfa_words_up_to,
        count_nfa_runs_of_length,
    )
    from repro.languages.dfa_ln import ln_unique_match_dfa
    from repro.languages.nfa_ln import ln_match_nfa

    dfa = ln_unique_match_dfa(3)
    assert count_dfa_words_of_length(dfa, 6, backend=name) == count_dfa_words_of_length(
        dfa, 6
    )
    assert count_dfa_words_up_to(dfa, 7, backend=name) == count_dfa_words_up_to(dfa, 7)
    nfa = ln_match_nfa(3)
    assert count_nfa_runs_of_length(nfa, 6, backend=name) == count_nfa_runs_of_length(
        nfa, 6
    )


def test_engine_rejects_unknown_backend():
    from repro.engine import Engine
    from repro.errors import EngineError

    with pytest.raises(EngineError, match="unknown backend"):
        Engine(cache=None, backend="simd")


@pytest.mark.parametrize("name", available_backends())
def test_engine_stamps_backend_into_run_records(name):
    from repro.engine import Engine

    engine = Engine(cache=None, backend=name)
    assert engine.run_one("debug.echo", {"value": 7}) == 7
    records = engine.run_log.records
    assert records and all(record.backend == name for record in records)
    payload = records[-1].to_json()
    assert payload["backend"] == name


def test_engine_parallel_workers_use_the_pinned_backend():
    from repro.engine import Engine
    from repro.engine.registry import Request

    engine = Engine(cache=None, jobs=2, backend="reference")
    results = engine.run(
        [Request.make("debug.echo", {"value": value}) for value in (1, 2, 3)]
    )
    assert sorted(results.values()) == [1, 2, 3]
    assert all(record.backend == "reference" for record in engine.run_log.records)


def test_engine_workers_downgrade_an_unavailable_pin():
    # A build-dependent tier (the cext artifact) can exist in the parent
    # but not in a worker's environment.  Workers must fall back to the
    # best available tier — and the run records must stamp the backend
    # that actually ran, not the parent's pin.
    import os

    from repro.backend import _instances
    from repro.engine import Engine
    from repro.engine.registry import Request

    parent_pid = os.getpid()

    class ParentOnlyBackend(WordsBackend):
        """Probes available in this process only — forked workers see no."""

        name = "parent-only"

        @staticmethod
        def available() -> bool:
            return os.getpid() == parent_pid

    BACKEND_CLASSES[ParentOnlyBackend.name] = ParentOnlyBackend
    try:
        engine = Engine(cache=None, jobs=2, backend=ParentOnlyBackend.name)
        results = engine.run(
            [Request.make("debug.echo", {"value": value}) for value in (1, 2, 3)]
        )
        assert sorted(results.values()) == [1, 2, 3]
        downgraded = resolve_backend(None)
        stamped = {record.backend for record in engine.run_log.records}
        assert stamped == {downgraded}
        assert ParentOnlyBackend.name not in stamped
    finally:
        del BACKEND_CLASSES[ParentOnlyBackend.name]
        _instances.pop(ParentOnlyBackend.name, None)


# ----------------------------------------------------------------------
# Frozen oracles, per backend: the PR 2/3/5 pattern one level down
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", available_backends())
def test_frozen_comm_oracles_under_each_backend(name):
    from tests.legacy_comm import (
        legacy_greedy_disjoint_cover,
        legacy_max_bilinear_form_exact,
        legacy_rank_over_gf2,
        legacy_rank_over_q,
    )

    from repro.comm import (
        greedy_disjoint_cover,
        intersection_matrix,
        rank_over_gf2,
        rank_over_q,
    )
    from repro.core.discrepancy import _packed_exact_max_bilinear

    matrix = intersection_matrix(4)
    with use_backend(name):
        assert rank_over_q(matrix) == legacy_rank_over_q(matrix)
        assert rank_over_gf2(matrix) == legacy_rank_over_gf2(matrix)
        packed_cover = greedy_disjoint_cover(matrix)
        assert len(packed_cover) == len(legacy_greedy_disjoint_cover(matrix))
        rng = _rng(14)
        base = [[rng.choice((-1, 1)) for _ in range(9)] for _ in range(7)]
        assert _packed_exact_max_bilinear(base) == legacy_max_bilinear_form_exact(base)


@pytest.mark.parametrize("name", available_backends())
def test_frozen_automata_oracles_under_each_backend(name):
    from tests.legacy_automata import (
        legacy_count_dfa_words_of_length,
        legacy_determinise,
        legacy_minimise,
    )

    from repro.automata.packed import PackedNFA, packed_determinise, packed_minimise
    from repro.languages.dfa_ln import ln_unique_match_dfa
    from repro.languages.nfa_ln import ln_match_nfa

    nfa = ln_match_nfa(5)
    with use_backend(name):
        dfa = packed_determinise(PackedNFA.from_nfa(nfa))
        minimal = packed_minimise(dfa)
        assert dfa.n_states == legacy_determinise(nfa).n_states
        assert minimal.n_states == legacy_minimise(legacy_determinise(nfa)).n_states
        small = ln_unique_match_dfa(3)
        from repro.automata.counting import count_dfa_words_of_length

        for length in (0, 3, 6, 9):
            assert count_dfa_words_of_length(
                small, length
            ) == legacy_count_dfa_words_of_length(small, length)


# ----------------------------------------------------------------------
# The backend micro-benchmark (smoke: structure + bit-exact cross-check)
# ----------------------------------------------------------------------


def test_bench_backends_smoke():
    from repro.backend.bench import bench_backends

    result = bench_backends(repeats=1, seed=1)
    assert result["backends"] == available_backends()
    assert [row["op"] for row in result["rows"]] == [
        "rank",
        "cover",
        "determinise",
        "count",
        "discrepancy",
        "indices",
        "transpose",
        "rect",
        "split",
        "scan",
    ]
    for row in result["rows"]:
        for name, cell in row["backends"].items():
            assert cell["seconds"] >= 0
            assert cell["kernel"] in available_backends()
            assert cell["speedup"] is None or cell["speedup"] > 0


def test_bench_backends_rejects_bad_repeats():
    from repro.backend.bench import bench_backends

    with pytest.raises(ValueError, match="repeats"):
        bench_backends(repeats=0)
