"""Reverse map semantics against a plain dictionary-of-lists oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf.errors import (
    ConfigMismatchError,
    FilterError,
    FormatError,
    InvalidConfigError,
    NotFoundError,
)
from aqf.revmap import ReverseMap
from oracles import encode_map_v1


class TestBasicOps:
    def test_first_insert_starts_a_list(self):
        m = ReverseMap(8)
        m.map_insert(42, 0, 1001)
        assert m.map_get(42, 0) == (1001, None)
        assert m.list_size(42) == 1

    def test_insert_at_tail_extends(self):
        m = ReverseMap(8)
        m.map_insert(42, 0, 1)
        m.map_insert(42, 1, 2, b"v")
        assert [m.map_get(42, k) for k in range(2)] == [(1, None), (2, b"v")]

    def test_insert_mid_list_shifts_later_ranks(self):
        m = ReverseMap(8)
        m.map_insert(42, 0, 1)
        m.map_insert(42, 1, 3)
        m.map_insert(42, 1, 2)
        assert [m.map_get(42, k)[0] for k in range(3)] == [1, 2, 3]

    def test_out_of_bounds_are_not_found(self):
        m = ReverseMap(8)
        with pytest.raises(NotFoundError):
            m.map_get(42, 0)
        m.map_insert(42, 0, 1)
        with pytest.raises(NotFoundError):
            m.map_get(42, 1)
        with pytest.raises(NotFoundError):
            m.map_insert(42, 2, 9)
        with pytest.raises(NotFoundError):
            m.map_remove(43, 0)

    def test_remove_drops_empty_ids(self):
        m = ReverseMap(8)
        m.map_insert(7, 0, 11)
        assert m.map_remove(7, 0) == (11, None)
        assert m.list_size(7) == 0
        assert len(m) == 0

    def test_remove_head_keeps_tail(self):
        m = ReverseMap(8)
        m.map_insert(7, 0, 11)
        m.map_insert(7, 1, 22)
        m.map_remove(7, 0)
        assert m.map_get(7, 0) == (22, None)

    def test_find_rank_returns_first_occurrence(self):
        m = ReverseMap(8)
        for rank, key in enumerate([5, 6, 5]):
            m.map_insert(9, rank, key)
        assert m.find_rank(9, 5) == 0
        assert m.find_rank(9, 6) == 1
        assert m.find_rank(9, 99) is None

    def test_rejects_oversized_keys_and_non_byte_values(self):
        m = ReverseMap(8)
        with pytest.raises(InvalidConfigError):
            m.map_insert(1, 0, 1 << 64)
        with pytest.raises(InvalidConfigError):
            m.map_insert(1, 0, 5, value="text")

    def test_access_counter_covers_reads_and_writes(self):
        m = ReverseMap(8)
        base = m.accesses
        m.map_insert(1, 0, 5)
        m.map_get(1, 0)
        m.find_rank(1, 5)
        m.map_remove(1, 0)
        assert m.accesses == base + 4
        assert m.list_size(1) == 0 and m.accesses == base + 4


class TestDictOracle:
    def test_random_op_stream(self):
        rng = np.random.default_rng(41)
        m = ReverseMap(10)
        oracle: dict[int, list] = {}
        for _ in range(100_000):
            mid = int(rng.integers(0, 160))
            lst = oracle.get(mid, [])
            op = rng.random()
            if op < 0.45:
                rank = int(rng.integers(0, len(lst) + 1))
                key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
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
        assert m.entries == oracle
        assert m.key_count == sum(len(v) for v in oracle.values())


class TestConcat:
    def test_disjoint_union(self):
        a, b = ReverseMap(8), ReverseMap(8)
        a.map_insert(1, 0, 10)
        b.map_insert(2, 0, 20)
        c = a.map_concat(b)
        assert c.map_get(1, 0)[0] == 10 and c.map_get(2, 0)[0] == 20
        assert len(c) == 2

    def test_shared_id_appends_in_argument_order(self):
        a, b = ReverseMap(8), ReverseMap(8)
        a.map_insert(1, 0, 10)
        b.map_insert(1, 0, 20)
        c = a.map_concat(b)
        assert [c.map_get(1, k)[0] for k in range(2)] == [10, 20]
        # inputs untouched
        assert a.list_size(1) == 1 and b.list_size(1) == 1

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ConfigMismatchError):
            ReverseMap(8).map_concat(ReverseMap(9))


class TestSnapshot:
    def test_single_entry_roundtrip(self):
        m = ReverseMap(8)
        m.map_insert(3, 0, 123, b"payload")
        assert ReverseMap.from_bytes(m.to_bytes()) == m

    def test_empty_roundtrip_needs_explicit_width(self):
        m = ReverseMap(8)
        blob = m.to_bytes()
        assert ReverseMap.from_bytes(blob, qbits=8) == m
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(blob)

    def test_large_random_roundtrip(self):
        rng = np.random.default_rng(43)
        m = ReverseMap(12)
        for _ in range(100_000):
            mid = int(rng.integers(0, 40_000))
            value = None if rng.random() < 0.7 else bytes(rng.bytes(int(rng.integers(0, 9))))
            m.map_insert(mid, m.list_size(mid), int(rng.integers(0, 1 << 64, dtype=np.uint64)), value)
        back = ReverseMap.from_bytes(m.to_bytes())
        assert back == m
        assert back.to_bytes() == m.to_bytes()

    def test_rejects_corruption(self):
        m = ReverseMap(8)
        m.map_insert(3, 0, 123)
        blob = m.to_bytes()
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(b"ZZZZ" + blob[4:])
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(blob[:-2])
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(blob + b"\0")
        with pytest.raises(ConfigMismatchError):
            ReverseMap.from_bytes(blob, qbits=9)


entry_st = st.tuples(
    st.integers(0, (1 << 64) - 1),
    st.one_of(st.none(), st.just(b""), st.binary(min_size=1, max_size=6)),
)


@st.composite
def maps(draw):
    """Maps at the extreme widths and in between; ids up to 2**64 - 1 put
    high remainder bits above the quotient."""
    q = draw(st.one_of(st.sampled_from([1, 56]), st.integers(2, 55)))
    ids = st.one_of(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << (q + 2)) - 1))
    m = ReverseMap(q)
    for mid, lst in draw(st.dictionaries(ids, st.lists(entry_st, min_size=1, max_size=4),
                                         max_size=12)).items():
        for key, value in lst:
            m.map_insert(mid, m.list_size(mid), key, value)
    return m


class TestColumnarSnapshot:
    @settings(max_examples=300, deadline=None)
    @given(m=maps())
    def test_bytes_equal_the_entry_by_entry_encoder(self, m):
        blob = m.to_bytes()
        assert blob == encode_map_v1(m)
        back = ReverseMap.from_bytes(blob, qbits=m.qbits)
        assert back == m and back.to_bytes() == blob

    def test_empty_map_is_just_the_head(self):
        assert ReverseMap(56).to_bytes() == encode_map_v1(ReverseMap(56))

    def test_columns_come_in_hash_order(self):
        m = ReverseMap(4)
        for mid, key in [(0x31, 1), (0x12, 2), (0x21, 3), (0x21, 4)]:
            m.map_insert(mid, m.list_size(mid), key, None if key % 2 else b"v")
        mids, lengths, keys, values = m._columns()
        assert mids.tolist() == [0x21, 0x31, 0x12]
        assert lengths.tolist() == [2, 1, 1]
        assert keys.tolist() == [3, 4, 1, 2]
        assert values == [None, b"v", None, b"v"]

    def test_from_columns_slices_one_list_per_id(self):
        mids = np.array([5, 5, 9, 7, 7, 7], dtype=np.uint64)
        keys = np.arange(6, dtype=np.uint64)
        values = [None, b"", b"a", None, b"bc", None]
        m = ReverseMap._from_columns(3, mids, keys, values)
        want = ReverseMap(3)
        for mid, key, value in zip(mids.tolist(), keys.tolist(), values):
            want.map_insert(mid, want.list_size(mid), key, value)
        assert m == want and m.accesses == want.accesses == 6
        assert ReverseMap._from_columns(3, mids[:0], keys[:0], []) == ReverseMap(3)


def two_records(q=6):
    m = ReverseMap(q)
    m.map_insert(1, 0, 10, b"x")
    m.map_insert(2, 0, 20)
    return m.to_bytes()


class TestDecoderRejects:
    @pytest.mark.parametrize("swap", [True, False])
    def test_records_out_of_hash_order(self, swap):
        blob = two_records()
        head, first, second = blob[:16], blob[16:16 + 13 + 17], blob[16 + 13 + 17:]
        with pytest.raises(FormatError):
            ReverseMap.from_bytes(head + (second + first if swap else first + first))

    @pytest.mark.parametrize("q", [0, 57, 255])
    def test_record_width_out_of_range(self, q):
        blob = bytearray(two_records())
        blob[16] = q
        for qbits in (None, 6):
            with pytest.raises(FormatError):
                ReverseMap.from_bytes(bytes(blob), qbits=qbits)


@pytest.fixture(scope="module")
def small_snapshot():
    """12 entries under 8 ids at q=6, with None, empty and longer values."""
    rng = np.random.default_rng(44)
    ids = rng.choice(1 << 8, size=8, replace=False).tolist()
    m = ReverseMap(6)
    for i in range(12):
        value = [None, b"", b"val", bytes([i])][i % 4]
        m.map_insert(ids[i % 8], m.list_size(ids[i % 8]),
                     int(rng.integers(0, 1 << 64, dtype=np.uint64)), value)
    return m.to_bytes()


def test_every_bit_flip_and_truncation_fails_cleanly_or_reencodes_identically(small_snapshot):
    assert len(ReverseMap.from_bytes(small_snapshot).entries) == 8
    mutants = [small_snapshot[:cut] for cut in range(len(small_snapshot))]
    for bit in range(len(small_snapshot) * 8):
        blob = bytearray(small_snapshot)
        blob[bit >> 3] ^= 1 << (bit & 7)
        mutants.append(bytes(blob))
    loaded = 0
    for blob in mutants:
        for qbits in (None, 6):
            try:
                m = ReverseMap.from_bytes(blob, qbits=qbits)
            except FilterError:
                continue
            assert m.to_bytes() == blob
            loaded += 1
    # key and value bits carry no redundancy, so their flips must load
    assert loaded >= 2 * 12 * 64
