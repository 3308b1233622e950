"""Reverse map semantics against a plain dictionary-of-lists oracle."""

import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from aqf import revmap
from aqf.errors import (
    FormatError,
    InvalidConfigError,
    NotFoundError,
    UnsortedInputError,
)
from aqf.filter import AdaptiveFilter
from aqf.hashing import FilterConfig
from aqf.revmap import ReverseMap
from aqf.snapshot import section
from aqf.workbench import fill_to_load
from oracles import encode_map, entry, map_lists, mutants, reseal

NO_IDS = np.zeros(0, dtype=np.uint64)
MASK64 = (1 << 64) - 1
# entry bits below the minirun id, as at q + r = 24, and the largest id
W = 40
TOP = (1 << 64 - W) - 1


def e(mid: int, low: int) -> int:
    """The entry of minirun mid with the low W bits of low."""
    return entry(mid, low, W)


def model_ids(entries: dict) -> np.ndarray:
    """The minirun id of every entry in hash order (ascending ids), as the
    slot array hands them to the map's decoder."""
    return np.array([mid for mid in sorted(entries) for _ in entries[mid]], dtype=np.uint64)


def ids_of(m: ReverseMap) -> np.ndarray:
    return model_ids(map_lists(m))


def block_layout(m: ReverseMap) -> tuple[list, int]:
    """The row count of each of m's blocks, and the shift that takes an
    id to its block."""
    return [len(blk.entries) for blk in m._blocks], m._shift


def assert_blocks_hold(m: ReverseMap) -> None:
    """m's blocks are the slices of its ids' top k bits: 2**k blocks,
    block i holding exactly the rows whose ids' top k bits are i, in
    ascending id order, and a value per row when it holds values.  The
    rows fill them to _ROWS rows on average or fewer, unless the ids
    have no bit left to slice by."""
    blocks, w = m._blocks, m._w
    k = 64 - w - m._shift
    assert 0 <= k <= 64 - w and len(blocks) == 1 << k
    assert m.key_count <= revmap._ROWS * len(blocks) or not m._shift
    for i, blk in enumerate(blocks):
        ids = np.frombuffer(blk.entries, dtype=np.uint64) >> np.uint64(w)
        assert (ids[1:] >= ids[:-1]).all()
        assert (ids >> np.uint64(m._shift) == i).all()
        assert blk.vals is None or len(blk.vals) == len(blk.entries)


def assert_same_content(m: ReverseMap, entries: dict) -> None:
    """m holds exactly the lists of entries, a dict of non-empty lists,
    in hash order."""
    assert list(map_lists(m).items()) == sorted(entries.items())
    assert len(map_lists(m)) == len(entries)
    assert m.key_count == sum(map(len, entries.values()))
    for mid, lst in entries.items():
        assert m.list_size(mid) == len(lst)


class TestBasicOps:
    def test_first_insert_starts_a_list(self):
        m = ReverseMap(W)
        m.map_insert(42, 0, e(42, 1001))
        assert m.map_get(42, 0) == (e(42, 1001), None)
        assert m.list_size(42) == 1

    def test_insert_at_tail_extends(self):
        m = ReverseMap(W)
        m.map_insert(42, 0, e(42, 1))
        m.map_insert(42, 1, e(42, 2), b"v")
        assert [m.map_get(42, k) for k in range(2)] == [(e(42, 1), None), (e(42, 2), b"v")]

    def test_insert_mid_list_shifts_later_ranks(self):
        m = ReverseMap(W)
        m.map_insert(42, 0, e(42, 1))
        m.map_insert(42, 1, e(42, 3))
        m.map_insert(42, 1, e(42, 2))
        assert [m.map_get(42, k)[0] for k in range(3)] == [e(42, 1), e(42, 2), e(42, 3)]

    def test_out_of_bounds_are_not_found(self):
        m = ReverseMap(W)
        with pytest.raises(NotFoundError):
            m.map_get(42, 0)
        m.map_insert(42, 0, e(42, 1))
        with pytest.raises(NotFoundError):
            m.map_get(42, 1)
        with pytest.raises(NotFoundError):
            m.map_insert(42, 2, e(42, 9))
        with pytest.raises(NotFoundError):
            m.map_remove(43, 0)

    def test_remove_drops_empty_ids(self):
        m = ReverseMap(W)
        m.map_insert(7, 0, e(7, 11))
        assert m.map_remove(7, 0) == (e(7, 11), None)
        assert m.list_size(7) == 0
        assert map_lists(m) == {}

    def test_remove_head_keeps_tail(self):
        m = ReverseMap(W)
        m.map_insert(7, 0, e(7, 11))
        m.map_insert(7, 1, e(7, 22))
        m.map_remove(7, 0)
        assert m.map_get(7, 0) == (e(7, 22), None)

    def test_find_rank_returns_first_occurrence(self):
        m = ReverseMap(W)
        for rank, key in enumerate([5, 6, 5]):
            m.map_insert(9, rank, e(9, key))
        assert m.find_rank(9, e(9, 5)) == 0
        assert m.find_rank(9, e(9, 6)) == 1
        assert m.find_rank(9, e(9, 99)) is None

    def test_rejects_oversized_keys_and_non_byte_values(self):
        m = ReverseMap(W)
        with pytest.raises(InvalidConfigError):
            m.map_insert(1, 0, 1 << 64)
        with pytest.raises(InvalidConfigError):
            m.map_insert(1, 0, e(1, 5), value="text")

    def test_access_counter_covers_reads_and_writes(self):
        m = ReverseMap(W)
        base = m.accesses
        m.map_insert(1, 0, e(1, 5))
        m.map_get(1, 0)
        m.find_rank(1, e(1, 5))
        m.map_remove(1, 0)
        assert m.accesses == base + 4
        assert m.list_size(1) == 0 and m.accesses == base + 4

    @pytest.mark.parametrize("w", [-1, 64, 1.5, "40"])
    def test_a_width_outside_0_to_63_is_refused(self, w):
        with pytest.raises(InvalidConfigError):
            ReverseMap(w)


def rows_of(m: ReverseMap) -> tuple[list, list | None]:
    """m's _rows() as lists."""
    entries, values = m._rows()
    return entries.tolist(), values


class TestIdRange:
    """Ids are the top 64 - W bits of an entry, any of [0, 2**(64 - W)):
    map_insert refuses an id outside it, as an entry that does not carry
    its id, and reads of one answer as for an id the map does not hold."""

    OUT = (-1, TOP + 1)

    def test_map_insert_refuses_an_id_out_of_range_and_leaves_the_map(self):
        m = ReverseMap._from_columns(np.array([e(0x2A, 7), e(1 << 63 - W, 8)], dtype=np.uint64),
                                     None, W)
        m.map_insert(0x2A, 1, e(0x2A, 9))
        before = (m.to_bytes(), m.key_count, m.accesses, map_lists(m))
        for mid in self.OUT:
            with pytest.raises(InvalidConfigError, match="does not carry minirun id"):
                m.map_insert(mid, 0, 5)
            assert (m.to_bytes(), m.key_count, m.accesses, map_lists(m)) == before
        m.map_insert(TOP, 0, e(TOP, 5))
        assert m.map_get(TOP, 0) == (e(TOP, 5), None) and m.key_count == 4

    def test_map_insert_refuses_an_entry_that_does_not_carry_its_id(self):
        """Refused before anything changes, in a block as built and after
        a write to it: another id's entry, a flipped id bit, the entry
        of an id's neighbour, and a low part with no id above it."""
        m = ReverseMap._from_columns(np.array([e(0x2A, 7), e(0x40, 8)], dtype=np.uint64),
                                     [b"a", None], W)
        for written in (False, True):
            if written:
                m.map_insert(0x2A, 1, e(0x2A, 9))
                assert m.list_size(0x2A) == 2 and m.key_count == 3
            before = (rows_of(m), m.accesses, m.key_count, m.to_bytes())
            for mid, key in ((0x2A, e(0x40, 7)), (0x2A, e(0x2A, 7) ^ 1 << 63), (0x2A, e(0x2B, 7)),
                             (0x2A, 7), (0x40, e(0x2A, 9))):
                with pytest.raises(InvalidConfigError, match="does not carry minirun id"):
                    m.map_insert(mid, 0, key, b"v")
                assert (rows_of(m), m.accesses, m.key_count, m.to_bytes()) == before

    @pytest.mark.parametrize("rank", [0.5, "x"])
    def test_a_rank_that_is_no_int_is_refused_and_leaves_the_map(self, rank):
        """Refused before anything changes, the blocks' rows included;
        so is an id that is no int, a float that equals the id included,
        by every call that takes one."""
        m = ReverseMap._from_columns(np.array([e(0x2A, 7)], dtype=np.uint64), None, W)
        before = (m.to_bytes(), m.key_count, m.accesses, map_lists(m), block_layout(m))
        for call in (partial(m.map_insert, 0x2A, rank, e(0x2A, 9)),
                     partial(m.map_remove, 0x2A, rank), partial(m.map_get, 0x2A, rank)):
            with pytest.raises(InvalidConfigError, match="rank"):
                call()
        for mid in (float(0x2A), 0x2A + 0.5, rank):
            for call in (partial(m.map_insert, mid, 0, e(0x2A, 9)), partial(m.map_remove, mid, 0),
                         partial(m.map_get, mid, 0), partial(m.find_rank, mid, e(0x2A, 7)),
                         partial(m.list_size, mid)):
                with pytest.raises(InvalidConfigError, match="minirun id"):
                    call()
        assert (m.to_bytes(), m.key_count, m.accesses, map_lists(m), block_layout(m)) == before

    def test_reads_of_an_absent_id_find_nothing(self):
        """Past every stored id, below them, and outside [0, 2**(64 - W))."""
        m = ReverseMap._from_columns(np.array([e(0x2A, 7), e(1 << 20, 8)], dtype=np.uint64),
                                     None, W)
        for mid in ((1 << 20) + 1, TOP, 0x29, *self.OUT):
            with pytest.raises(NotFoundError):
                m.map_get(mid, 0)
            with pytest.raises(NotFoundError):
                m.map_remove(mid, 0)
            assert m.find_rank(mid, e(0x2A, 7)) is None and m.list_size(mid) == 0
        assert m.map_get(0x2A, 0) == (e(0x2A, 7), None) and m.key_count == 2

    def test_from_bytes_takes_every_uint64_id(self):
        """Every id that a uint64 entry carries above its low W bits, up
        to TOP."""
        m = ReverseMap(W)
        for mid in (3, 1 << 63 - W, TOP):
            m.map_insert(mid, 0, e(mid, mid >> 1))
        back = ReverseMap.from_bytes(m.to_bytes(), ids_of(m), W)
        assert back == m
        assert [back.map_get(mid, 0) for mid in (3, 1 << 63 - W, TOP)] == [
            (e(3, 1), None), (e(1 << 63 - W, 1 << 62 - W), None), (e(TOP, TOP >> 1), None)]

    def test_from_columns_takes_every_uint64_id(self):
        """As for from_bytes."""
        entries = np.array([e(3, 0), e(5, 1), e(TOP, 2)], dtype=np.uint64)
        m = ReverseMap._from_columns(entries, None, W)
        assert list(map_lists(m)) == [3, 5, TOP]
        # out of order, as the top id ahead of the others, is refused
        with pytest.raises(UnsortedInputError):
            ReverseMap._from_columns(entries[[2, 0, 1]], None, W)


class TestDictOracle:
    def test_random_op_stream(self):
        rng = np.random.default_rng(41)
        m = ReverseMap(W)
        oracle: dict[int, list] = {}
        for _ in range(100_000):
            mid = int(rng.integers(0, 160))
            lst = oracle.get(mid, [])
            op = rng.random()
            if op < 0.45:
                rank = int(rng.integers(0, len(lst) + 1))
                key = e(mid, int(rng.integers(0, 1 << 64, dtype=np.uint64)))
                value = None if rng.random() < 0.5 else bytes(rng.bytes(3))
                m.map_insert(mid, rank, key, value)
                oracle.setdefault(mid, []).insert(rank, (key, value))
            elif op < 0.70:
                rank = int(rng.integers(0, len(lst) + 2))
                if rank < len(lst):
                    assert m.map_get(mid, rank) == lst[rank]
                else:
                    with pytest.raises(NotFoundError):
                        m.map_get(mid, rank)
            elif op < 0.90:
                if lst:
                    rank = int(rng.integers(0, len(lst)))
                    assert m.map_remove(mid, rank) == lst.pop(rank)
                    if not lst:
                        del oracle[mid]
                else:
                    with pytest.raises(NotFoundError):
                        m.map_remove(mid, 0)
            else:
                assert m.list_size(mid) == len(lst)
        assert_same_content(m, oracle)


class TestSnapshot:
    def test_single_entry_roundtrip(self):
        m = ReverseMap(W)
        m.map_insert(3, 0, e(3, 123), b"payload")
        assert ReverseMap.from_bytes(m.to_bytes(), ids_of(m), W) == m

    def test_empty_roundtrip_needs_explicit_ids(self):
        m = ReverseMap(W)
        blob = m.to_bytes()
        assert ReverseMap.from_bytes(blob, NO_IDS, W) == m
        # the bytes record no ids: the caller hands them in
        with pytest.raises(TypeError):
            ReverseMap.from_bytes(blob)

    def test_large_random_roundtrip(self):
        rng = np.random.default_rng(43)
        m = ReverseMap(W)
        for _ in range(100_000):
            mid = int(rng.integers(0, 40_000))
            value = None if rng.random() < 0.7 else bytes(rng.bytes(int(rng.integers(0, 9))))
            m.map_insert(mid, m.list_size(mid),
                         e(mid, int(rng.integers(0, 1 << 64, dtype=np.uint64))), value)
        back = ReverseMap.from_bytes(m.to_bytes(), ids_of(m), W)
        assert back == m
        assert back.to_bytes() == m.to_bytes()

    def test_rejects_corruption(self):
        m = ReverseMap(W)
        m.map_insert(3, 0, e(3, 123))
        blob, ids = m.to_bytes(), ids_of(m)
        for bad in (bytes([blob[0] ^ 1]) + blob[1:], blob[:-2], blob + b"\0"):
            with pytest.raises(FormatError, match="checksum"):
                ReverseMap.from_bytes(bad, ids, W)
        # a section whose size does not fit the id count
        for other in (NO_IDS, np.repeat(ids, 2)):
            with pytest.raises(FormatError):
                ReverseMap.from_bytes(blob, other, W)


# (low part of an entry, value)
entry_st = st.tuples(
    st.integers(0, (1 << 64) - 1),
    st.one_of(st.none(), st.just(b""), st.binary(min_size=1, max_size=6)),
)


@st.composite
def maps(draw):
    """(map, its entries as a dict of lists): ids anywhere in [0, TOP]
    mixed with small ones, or small ones only, all at the bottom of the
    id range."""
    low = st.integers(0, 63)
    ids = draw(st.sampled_from([low, st.one_of(st.integers(0, TOP), low)]))
    m = ReverseMap(W)
    drawn = draw(st.dictionaries(ids, st.lists(entry_st, min_size=1, max_size=4),
                                 max_size=12))
    entries = {mid: [(e(mid, key), value) for key, value in lst] for mid, lst in drawn.items()}
    for mid, lst in entries.items():
        for key, value in lst:
            m.map_insert(mid, m.list_size(mid), key, value)
    return m, entries


class TestColumnarSnapshot:
    @settings(max_examples=300, deadline=None)
    @given(drawn=maps())
    def test_bytes_equal_the_entry_by_entry_encoder(self, drawn):
        m, entries = drawn
        blob = m.to_bytes()
        assert blob == encode_map(entries, W)
        ids = model_ids(entries)
        back = ReverseMap.from_bytes(blob, ids, W)
        assert back == m and back.to_bytes() == blob
        assert back.accesses == 0
        # more ids than the section holds entries for
        extra = np.full(len(blob) // 5 + 1 - len(ids), TOP, dtype=np.uint64)
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(blob, np.append(ids, extra), W)

    @pytest.mark.parametrize("w", [0, 7, 8, 31, 32, 33, 48, 63])
    def test_bytes_equal_the_entry_by_entry_encoder_at_every_width(self, w):
        entries = {0: [(entry(0, 0, w), None), (entry(0, MASK64, w), b"v")],
                   1: [(entry(1, 0x0123456789ABCDEF, w), None)]}
        m = ReverseMap._from_columns(np.array([k for lst in entries.values() for k, _ in lst],
                                              dtype=np.uint64), [None, b"v", None], w)
        assert m.to_bytes() == encode_map(entries, w)
        assert ReverseMap.from_bytes(m.to_bytes(), model_ids(entries), w) == m

    def test_empty_map_is_just_the_trailer(self):
        assert ReverseMap(W).to_bytes() == encode_map({}, W) == bytes(4)

    def test_columns_come_in_hash_order(self):
        """Ids (quotient << 4) | remainder: quotient 1 remainders 2 and 3,
        then quotient 2 remainder 1, whatever order they were written in."""
        m = ReverseMap(W)
        for mid, key in [(0x13, 1), (0x21, 2), (0x12, 3), (0x12, 4)]:
            m.map_insert(mid, m.list_size(mid), e(mid, key), None if key % 2 else b"v")
        assert list(map_lists(m).items()) == [(0x12, [(e(0x12, 3), None), (e(0x12, 4), b"v")]),
                                              (0x13, [(e(0x13, 1), None)]),
                                              (0x21, [(e(0x21, 2), b"v")])]
        entries, values = m._rows()
        assert (entries >> np.uint64(W)).tolist() == [0x12, 0x12, 0x13, 0x21]
        assert (entries & np.uint64((1 << W) - 1)).tolist() == [3, 4, 1, 2]
        assert values == [None, b"v", None, b"v"]

    def test_from_columns_slices_one_list_per_id(self):
        mids = [5, 5, 7, 7, 7, 9]
        entries = np.array([e(mid, key) for mid, key in zip(mids, [0, 1, 3, 4, 5, 2])],
                           dtype=np.uint64)
        values = [None, b"", None, b"bc", None, b"a"]
        m = ReverseMap._from_columns(entries, values, W)
        want = ReverseMap(W)
        for mid, key, value in zip(mids, entries.tolist(), values):
            want.map_insert(mid, want.list_size(mid), key, value)
        assert m == want and m.accesses == want.accesses == 6
        assert ReverseMap._from_columns(entries[:0], [], W) == ReverseMap(W)
        # maps of other widths differ, whatever their entries
        assert m != ReverseMap._from_columns(entries, values, W - 1)
        # rows out of hash order are refused, not sorted
        with pytest.raises(UnsortedInputError):
            ReverseMap._from_columns(entries[[0, 1, 5, 2, 3, 4]], values, W)


def two_records():
    m = ReverseMap(W)
    m.map_insert(1, 0, e(1, 10), b"x")
    m.map_insert(2, 0, e(2, 20))
    return m.to_bytes()


TWO_IDS = np.array([1, 2], dtype=np.uint64)


class TestDecoderRejects:
    @pytest.mark.parametrize("swap", [True, False])
    def test_records_out_of_hash_order(self, swap):
        """The ids handed in must be in hash order, which is ascending:
        two swapped, or all reversed, they are refused."""
        m = ReverseMap(W)
        ids = [(1 << 3) | 2, (3 << 3) | 1, (3 << 3) | 5]  # at r=3: (1, 2), (3, 1), (3, 5)
        for mid in ids:
            m.map_insert(mid, 0, e(mid, mid))
        blob = m.to_bytes()
        assert ReverseMap.from_bytes(blob, np.array(ids, dtype=np.uint64), W) == m
        bad = [ids[1], ids[0], ids[2]] if swap else ids[::-1]
        with pytest.raises(UnsortedInputError):
            ReverseMap.from_bytes(blob, np.array(bad, dtype=np.uint64), W)

    @pytest.mark.parametrize("q", [0, 57, 255])
    def test_record_width_out_of_range(self, q):
        """The map section records no width; a combined snapshot reads it
        under the slot array's q, which must be in range."""
        f = AdaptiveFilter(FilterConfig(q=6, r=4, seed=1))
        f.insert(10, b"x")
        f.insert(20)
        arr = bytearray(f.arr.to_bytes())
        arr[8] = q
        blob = b"".join([f.to_bytes()[:36], *section([reseal(arr)]),
                         *section([f.map.to_bytes()]), bytes(4)])
        with pytest.raises(FormatError, match="q must be"):
            AdaptiveFilter.from_bytes(reseal(blob))


@pytest.fixture(scope="module")
def small_snapshot():
    """12 entries under 8 ids below 2**8, with None, empty and longer
    values, and the hash-ordered id of each entry."""
    rng = np.random.default_rng(44)
    ids = rng.choice(1 << 8, size=8, replace=False).tolist()
    m = ReverseMap(W)
    for i in range(12):
        value = [None, b"", b"val", bytes([i])][i % 4]
        m.map_insert(ids[i % 8], m.list_size(ids[i % 8]),
                     e(ids[i % 8], int(rng.integers(0, 1 << 64, dtype=np.uint64))), value)
    return m.to_bytes(), ids_of(m)


def test_every_bit_flip_and_truncation_fails(small_snapshot):
    """No mutant loads: the trailer catches every single-bit flip and
    every cut, key and value bits included."""
    snapshot, ids = small_snapshot
    assert len(map_lists(ReverseMap.from_bytes(snapshot, ids, W))) == 8
    for blob in mutants(snapshot):
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(blob, ids, W)


def test_every_bit_flip_and_truncation_fails_cleanly_or_reencodes_identically(small_snapshot):
    """Behind the trailer: with the trailer recomputed, a mutant either
    fails a field check or loads a map that encodes to the same bytes."""
    snapshot, ids = small_snapshot
    loaded = 0
    for blob in mutants(snapshot[:-4]):
        blob = reseal(blob + bytes(4))
        try:
            m = ReverseMap.from_bytes(blob, ids, W)
        except FormatError:
            continue
        assert m.to_bytes() == blob
        loaded += 1
    # the W written bits of each entry and the value bits carry no
    # redundancy, so their flips must load
    assert loaded >= 12 * W


class TestDecoderBounds:
    """Count and length fields are never trusted ahead of the bytes."""

    @staticmethod
    def fails_fast(blob: bytes, ids: np.ndarray, match: str) -> None:
        tracemalloc.start()
        t = time.perf_counter()
        try:
            with pytest.raises(FormatError, match=match):
                ReverseMap.from_bytes(blob, ids, W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t < 1.0
        assert peak < 4 << 20

    def test_ids_claiming_more_keys_than_the_section(self):
        self.fails_fast(two_records(), np.repeat(TWO_IDS, 1 << 22), "short of")

    def test_value_length_of_two_to_the_32_minus_1(self):
        """The first entry's length field, after the two entries' u32
        and u8 columns, claims 2^32-1 bytes, which reads as no value and
        leaves no value at all, or 2^32-2 bytes."""
        for length, match in ((0xFFFFFFFF, "without a value"), (0xFFFFFFFE, "add up to")):
            blob = bytearray(two_records())
            blob[10:14] = length.to_bytes(4, "little")
            self.fails_fast(reseal(blob), TWO_IDS, match)


# few ids, so lists grow, and some anywhere in [0, TOP], up to its top
machine_ids = st.one_of(st.integers(0, 24), st.sampled_from([TOP, 1 << 63 - W, (1 << 20) + 3]),
                        st.integers(0, TOP))
# the low parts of entries
machine_keys = st.one_of(st.integers(0, 40), st.integers(0, MASK64))
machine_values = st.one_of(st.none(), st.just(b""), st.binary(min_size=1, max_size=3))


class MapMachine(RuleBasedStateMachine):
    """ReverseMap against a dict of lists, inserts driving it through
    slicings anew (the test shrinks the blocks)."""

    # maps sliced anew by an insert, over all runs
    recuts = 0

    def __init__(self):
        super().__init__()
        self.m = ReverseMap(W)
        self.model: dict[int, list] = {}
        self.accesses = 0

    @initialize(mids=st.lists(machine_ids, min_size=9, max_size=11, unique=True),
                key=machine_keys, value=machine_values)
    def spread(self, mids, key, value):
        """Write more rows than the shrunken block holds, so that every
        run slices the map anew before its rules take over."""
        assert len(mids) > revmap._ROWS
        for mid in mids:
            self.insert(mid, 0, key, value)

    def state(self):
        return self.m.to_bytes(), map_lists(self.m), self.m.key_count, self.m.accesses

    def refused(self, call, *args):
        """call raises NotFoundError and leaves the map as it was."""
        before = self.state()
        with pytest.raises(NotFoundError):
            call(*args)
        assert self.state() == before

    @rule(mid=machine_ids, rank=st.integers(-1, 4), key=machine_keys, value=machine_values)
    def insert(self, mid, rank, key, value):
        key = e(mid, key)
        args = (mid, rank, key) if value is None else (mid, rank, key, value)
        lst = self.model.get(mid, [])
        if not 0 <= rank <= len(lst):
            self.refused(self.m.map_insert, *args)
            return
        self.m.map_insert(*args)
        self.model[mid] = lst
        lst.insert(rank, (key, value))
        self.accesses += 1

    @rule(mid=machine_ids, rank=st.integers(-1, 4))
    def get(self, mid, rank):
        lst = self.model.get(mid, [])
        if not 0 <= rank < len(lst):
            self.refused(self.m.map_get, mid, rank)
            return
        assert self.m.map_get(mid, rank) == lst[rank]
        self.accesses += 1

    @rule(mid=machine_ids, rank=st.integers(-1, 4))
    def remove(self, mid, rank):
        lst = self.model.get(mid, [])
        if not 0 <= rank < len(lst):
            self.refused(self.m.map_remove, mid, rank)
            return
        assert self.m.map_remove(mid, rank) == lst.pop(rank)
        if not lst:
            del self.model[mid]
        self.accesses += 1

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 1 << 16), rank=st.integers(0, 4))
    def remove_stored(self, pick, rank):
        """Remove an entry the map holds, so that blocks shrink."""
        mid = sorted(self.model)[pick % len(self.model)]
        self.remove(mid, rank % len(self.model[mid]))

    @rule(mid=machine_ids, pick=st.integers(0, 4), key=machine_keys)
    def find_rank(self, mid, pick, key):
        lst = self.model.get(mid, [])
        key = lst[pick][0] if pick < len(lst) else e(mid, key)
        want = next((rank for rank, (k, _) in enumerate(lst) if k == key), None)
        assert self.m.find_rank(mid, key) == want
        self.accesses += 1

    @rule(mid=machine_ids)
    def list_size(self, mid):
        assert self.m.list_size(mid) == len(self.model.get(mid, []))

    @rule()
    def roundtrip(self):
        self.m = ReverseMap.from_bytes(self.m.to_bytes(), model_ids(self.model), W)
        self.accesses = 0

    @invariant()
    def agrees(self):
        assert_same_content(self.m, self.model)
        assert self.m.accesses == self.accesses
        blob = self.m.to_bytes()
        assert blob == encode_map(self.model, W)
        # as a load slices them; self.m may hold blocks written since
        flat = ReverseMap.from_bytes(blob, model_ids(self.model), W)
        assert flat == self.m and self.m == flat
        assert_blocks_hold(self.m)


def counting_recuts(monkeypatch, counts) -> None:
    """Make ReverseMap._split add 1 to counts.recuts each time an insert
    slices the map anew with one more bit."""
    split = ReverseMap._split

    def counted(m):
        counts.recuts += 1
        split(m)

    monkeypatch.setattr(ReverseMap, "_split", counted)


class BlockCounts:
    """Slicings anew that counting_recuts adds up, for one run."""

    recuts = 0


def test_map_machine_through_splits_and_joins(monkeypatch):
    counting_recuts(monkeypatch, MapMachine)
    monkeypatch.setattr(revmap, "_ROWS", 8)
    MapMachine.recuts = 0
    run_state_machine_as_test(MapMachine, settings=settings(
        max_examples=150, stateful_step_count=40, deadline=None))
    assert MapMachine.recuts > 0


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(4, 8), data=st.data())
def test_value_maps_in_small_blocks_match_the_lists(rows, data):
    """Maps with values, in blocks shrunk to a few rows, against
    oracles.map_lists of a dict of lists through map_insert, map_remove
    and find_rank: a fill of several blocks' rows slices the map anew,
    a drain down to a few rows keeps its blocks, and a save and load
    gives the map back."""
    m, model, counts = ReverseMap(W), {}, BlockCounts()
    mids = st.one_of(st.integers(0, 63), st.integers(0, TOP))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(revmap, "_ROWS", rows)
        counting_recuts(mp, counts)

        def insert(mid, key, value):
            key = e(mid, key)
            rank = data.draw(st.integers(0, len(model.get(mid, []))))
            m.map_insert(mid, rank, key, value)
            model.setdefault(mid, []).insert(rank, (key, value))

        def remove():
            mid = data.draw(st.sampled_from(sorted(model)))
            rank = data.draw(st.integers(0, len(model[mid]) - 1))
            assert m.map_remove(mid, rank) == model[mid].pop(rank)
            if not model[mid]:
                del model[mid]

        # distinct ids, so that the fill spreads over the blocks
        fill = data.draw(st.lists(mids, min_size=3 * rows, max_size=6 * rows, unique=True))
        for mid, (key, value) in zip(fill, data.draw(st.lists(entry_st, min_size=len(fill),
                                                              max_size=len(fill)))):
            insert(mid, key, value)
        assert len(m._blocks) > 1
        for step in data.draw(st.lists(st.sampled_from(["insert", "remove", "find"]),
                                       max_size=3 * rows)):
            if step == "insert":
                insert(data.draw(mids), *data.draw(entry_st))
            elif step == "remove":
                remove()
            else:
                mid = data.draw(st.sampled_from(sorted(model)))
                lst = model[mid]
                key = data.draw(st.one_of(st.sampled_from([k for k, _ in lst]),
                                          st.integers(0, MASK64).map(partial(e, mid))))
                want = next((rank for rank, (k, _) in enumerate(lst) if k == key), None)
                assert m.find_rank(mid, key) == want
            assert list(map_lists(m).items()) == sorted(model.items())
        layout, recuts = block_layout(m)[1], counts.recuts
        while sum(map(len, model.values())) > 2:
            remove()
        assert list(map_lists(m).items()) == sorted(model.items())
        assert_blocks_hold(m)
        assert counts.recuts == recuts > 0 and block_layout(m)[1] == layout
        back = ReverseMap.from_bytes(m.to_bytes(), model_ids(model), W)
    assert back == m and m == back
    assert list(map_lists(back).items()) == sorted(model.items())


def test_a_minirun_past_rows_takes_writes_without_recuts(monkeypatch):
    """An id of more rows than _ROWS fills one block, which no slice can
    split, and its writes slice the map anew no more often than any
    rows do: one id takes inserts at every rank while fresh ids land
    just past it and just before it, then the id is drained.  The map
    is sliced anew only as it doubles, at most ceil(log2(n / _ROWS))
    times for n rows, the drain slices nothing, and the blocks keep
    their slices and the map its lists throughout."""
    monkeypatch.setattr(revmap, "_ROWS", 16)
    counts = BlockCounts()
    counting_recuts(monkeypatch, counts)
    rng = np.random.default_rng(90)
    m, model, big = ReverseMap(W), {}, 1000

    def insert(mid, rank, key):
        m.map_insert(mid, rank, e(mid, key))
        model.setdefault(mid, []).insert(rank, (e(mid, key), None))

    for mid in (500, 600, 2000, 2100):
        insert(mid, 0, mid)
    for i in range(2000):
        insert(big, int(rng.integers(0, len(model.get(big, [])) + 1)), i)
        if i % 8 == 0:
            insert(big + 250 - i // 8, 0, i)
            insert(big - 1 - i // 8, 0, i)
    largest = len(model[big])
    assert largest > 100 * revmap._ROWS
    assert_blocks_hold(m)
    assert_same_content(m, model)
    assert 0 < counts.recuts <= math.ceil(math.log2(m.key_count / revmap._ROWS))
    recuts, layout = counts.recuts, block_layout(m)[1]
    while model[big]:
        rank = int(rng.integers(0, len(model[big])))
        assert m.map_remove(big, rank) == model[big].pop(rank)
    del model[big]
    assert_blocks_hold(m)
    assert_same_content(m, model)
    assert counts.recuts == recuts and block_layout(m)[1] == layout


def test_removes_beside_a_large_id_copy_no_rows(monkeypatch):
    """Removes never cut the map: 10 removes from ids of a few rows next
    to an id of 2,000 rows copy no row into a new block, where joining
    the short block with the large id's would copy its rows again at
    each later remove."""
    monkeypatch.setattr(revmap, "_ROWS", 16)
    m, big = ReverseMap(W), 1000
    for i in range(2000):
        m.map_insert(big, i, e(big, i))
    for mid in range(big + 1, big + 11):
        m.map_insert(mid, 0, e(mid, mid))
    copied = [0]
    init = revmap._Block.__init__

    def counted(blk, rows, vals):
        copied[0] += len(rows)
        init(blk, rows, vals)

    monkeypatch.setattr(revmap._Block, "__init__", counted)
    for mid in range(big + 1, big + 11):
        assert m.map_remove(mid, 0) == (e(mid, mid), None)
    assert copied[0] == 0
    assert m.key_count == 2000 and m.list_size(big) == 2000


def test_fresh_inserts_keep_the_blocks_of_a_load():
    """A load slices the map so that its blocks hold up to _ROWS rows on
    average, so 100 fresh inserts into a loaded q=16 filter write into
    them in place and keep its layout."""
    f, _ = fill_to_load(FilterConfig(q=16, r=9, seed=3), 0.9, seed=5)
    f = AdaptiveFilter.from_bytes(f.to_bytes())
    blocks = len(f.map._blocks)
    shift = f.map._shift
    for key in np.random.default_rng(6).integers(1 << 62, 1 << 63, size=100,
                                                  dtype=np.uint64).tolist():
        f.insert(key)
    assert len(f.map._blocks) == blocks > 1 and f.map._shift == shift
    assert_blocks_hold(f.map)
    f.check_consistency()


def test_a_map_grown_by_inserts_is_sliced_as_a_build_and_a_load():
    """A filter's map grown by inserts alone has the blocks that
    _from_columns and a load of the same rows give it: the slices of
    the fewest top bits that keep a block at _ROWS rows on average."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(revmap, "_ROWS", 64)
        f = AdaptiveFilter(FilterConfig(q=12, r=8, seed=91))
        for key in np.random.default_rng(92).integers(0, 1 << 62, size=3000).tolist():
            f.insert(key)
        entries, values = f.map._rows()
        built = ReverseMap._from_columns(entries, values, f.map._w)
        loaded = AdaptiveFilter.from_bytes(f.to_bytes()).map
        assert len(f.map._blocks) == 64
        for m in (f.map, built, loaded):
            assert_blocks_hold(m)
        assert block_layout(f.map) == block_layout(built) == block_layout(loaded)


@pytest.mark.parametrize("n", [1, 16, 17, 1000, 4097])
def test_growth_from_empty_cuts_once_per_doubling(n, monkeypatch):
    """A map grown from empty to n rows by inserts is sliced anew
    ceil(log2(n / _ROWS)) times, once each time it passes _ROWS rows a
    block, with one bit more each time."""
    monkeypatch.setattr(revmap, "_ROWS", 16)
    counts = BlockCounts()
    counting_recuts(monkeypatch, counts)
    m = ReverseMap(W)
    for mid in np.random.default_rng(n).integers(0, TOP + 1, size=n).tolist():
        m.map_insert(mid, 0, e(mid, n))
    assert_blocks_hold(m)
    assert counts.recuts == max(0, math.ceil(math.log2(n / revmap._ROWS)))
    assert len(m._blocks) == 1 << counts.recuts


@pytest.mark.parametrize("w", [W, 40 + 8])
def test_a_drained_map_saves_the_bytes_of_the_encoder(w, monkeypatch):
    """Removes never slice the map anew, so a drained map keeps blocks of
    a few rows among full ones; a save still writes the bytes of the
    entry-by-entry encoder, and a load gives the map back.  Here blocks
    2-5 and 7 are drained to a few rows and the others keep theirs."""
    monkeypatch.setattr(revmap, "_ROWS", 64)
    top = (1 << 64 - w) - 1
    ids = np.sort(np.random.default_rng(w).integers(0, top + 1, size=500, dtype=np.uint64))
    m = ReverseMap._from_columns(ids << np.uint64(w) | ids, None, w)
    assert len(m._blocks) == 8
    for b in (2, 3, 4, 5, 7):
        for mid in sorted(set((np.frombuffer(m._blocks[b].entries, dtype=np.uint64)
                               >> np.uint64(w)).tolist()))[3:]:
            while m.list_size(mid):
                m.map_remove(mid, 0)
    lengths = [len(blk.entries) for blk in m._blocks]
    assert [x < 16 for x in lengths] == [False, False, True, True, True, True, False, True]
    blob = m.to_bytes()
    assert blob == encode_map(map_lists(m), w)
    assert ReverseMap.from_bytes(blob, ids_of(m), w) == m
