"""Slot array behavior, cross-checked by the raw-state decoder."""

from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf import core
from aqf.core import (
    FrozenIndex,
    HEADER_BITS,
    SlotArray,
    pack_minirun_id,
    unpack_minirun_id,
)
from aqf.errors import FilterFullError, FormatError, InvalidConfigError, NotFoundError
from aqf.filter import AdaptiveFilter, Policy
from aqf.hashing import FilterConfig, HashStream, extension_chunk, split, split_batch

from oracles import (
    _bit,
    decode_raw,
    encode_slots_v1,
    find_run,
    insert_whole,
    payload_bits,
    ref_split,
    relaid,
    reseal,
    slot_fields,
    with_slot_fields,
)

C44 = FilterConfig(q=4, r=4)


def logical(arr):
    """Decoded contents as a multiset, insertion order discarded."""
    return Counter(decode_raw(arr))


def random_fps(rng, q, r, n, max_ext=0, max_count=1):
    out = []
    for _ in range(n):
        ext = tuple(
            int(c) for c in rng.integers(0, 1 << r, size=rng.integers(0, max_ext + 1))
        )
        count = int(rng.integers(1, max_count + 1))
        out.append((int(rng.integers(0, 1 << q)), int(rng.integers(0, 1 << r)), ext, count))
    return out


class TestMinirunIds:
    def test_worked_value(self):
        assert pack_minirun_id(3, 0xA, r=4) == (3 << 4) | 0xA

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            r = int(rng.integers(1, 57))
            qt = int(rng.integers(0, 1 << 56))
            rem = int(rng.integers(0, 1 << r))
            assert unpack_minirun_id(pack_minirun_id(qt, rem, r), r) == (qt, rem)


@st.composite
def sort_keys(draw):
    """(keys, bits): up to 200 int64 or uint64 keys below 2**bits, drawn
    from a pool of at most 8 values that may hold 0 and 2**bits - 1, so
    that ties are heavy."""
    bits = draw(st.integers(0, 64))
    top = (1 << bits) - 1
    pool = draw(st.lists(st.one_of(st.just(0), st.just(top), st.integers(0, top)),
                         min_size=1, max_size=8))
    keys = draw(st.lists(st.sampled_from(pool), max_size=200))
    dtype = np.uint64 if bits == 64 or draw(st.booleans()) else np.int64
    return np.array(keys, dtype=dtype), bits


class TestStableOrder:
    """core._stable_order against numpy's stable argsort."""

    @staticmethod
    def check(keys, bits):
        got = core._stable_order(keys, bits)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @settings(max_examples=400, deadline=None)
    @given(case=sort_keys())
    def test_equals_the_stable_argsort(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_tiny_inputs(self, n, dtype):
        self.check(np.array([5, 5][:n], dtype=dtype), 3)
        self.check(np.array([6, 1][:n], dtype=dtype), 3)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_all_equal_keys_at_the_top(self, dtype):
        self.check(np.full(1000, (1 << 40) - 1, dtype=dtype), 40)

    @pytest.mark.parametrize("bits", [57, 58, 59, 63, 64])
    def test_both_sides_of_the_fallback(self, bits):
        """64 keys need 6 index bits: up to bits 58 they share a word
        with the key, past it the stable argsort takes over."""
        pool = np.array([0, 1, (1 << bits - 1) - 1, 1 << bits - 1, (1 << bits) - 1],
                        dtype=np.uint64)
        self.check(np.random.default_rng(bits).choice(pool, size=64), bits)


class TestNewFilter:
    def test_small_geometry(self):
        arr = SlotArray(C44)
        assert arr.nslots == 16
        assert arr.fp_count == 0
        rep = arr.space_report()
        assert rep.total_bits == 16 * 7 + 2 + HEADER_BITS
        assert rep.load_factor == 0.0

    def test_large_geometry(self):
        arr = SlotArray(FilterConfig(q=20, r=9))
        assert arr.space_report().total_bits == 2**20 * 12 + 2**14 * 8 + HEADER_BITS

    def test_value_bits_widen_slots(self):
        arr = SlotArray(C44, value_bits=2)
        assert arr.slot_bits == 6
        with pytest.raises(ValueError):
            SlotArray(C44, value_bits=60)
        with pytest.raises(ValueError):
            SlotArray(C44, value_bits=-1)


class TestInsertPlacement:
    def test_first_insert_lands_on_canonical_slot(self):
        arr = SlotArray(C44)
        mid, rank = arr.insert_fp(3, 0xA)
        assert (mid, rank) == (pack_minirun_id(3, 0xA, C44.r), 0)
        assert int(arr.slots[3]) == 0xA
        for vec in (arr.occ, arr.run, arr.used):
            assert _bit(vec, 3) == 1
        assert _bit(arr.ext, 3) == 0
        assert decode_raw(arr) == [(3, 0xA, (), 1, 0)]

    def test_duplicate_fingerprint_appends_at_next_rank(self):
        arr = SlotArray(C44)
        arr.insert_fp(3, 0xA)
        _, rank = arr.insert_fp(3, 0xA)
        assert rank == 1
        assert int(arr.slots[3]) == int(arr.slots[4]) == 0xA
        assert decode_raw(arr) == [(3, 0xA, (), 1, 0)] * 2

    def test_insert_shifts_later_run_aside(self):
        arr = SlotArray(C44)
        arr.insert_fp(3, 2)
        arr.insert_fp(4, 9)
        arr.insert_fp(3, 7)
        assert decode_raw(arr) == [(3, 2, (), 1, 0), (3, 7, (), 1, 0), (4, 9, (), 1, 0)]
        assert [int(arr.slots[i]) for i in (3, 4, 5)] == [2, 7, 9]

    def test_minirun_keeps_insertion_order(self):
        arr = SlotArray(FilterConfig(q=8, r=4))
        marks = [(5,), (11,), (2,)]
        for m in marks:
            insert_whole(arr, 40, 6, m)
        assert [rec[2] for rec in decode_raw(arr)] == marks

    def test_random_inserts_match_decoder(self):
        rng = np.random.default_rng(32)
        arr = SlotArray(FilterConfig(q=11, r=4))
        inserted = random_fps(rng, 11, 4, 500, max_ext=2, max_count=4)
        for fp in inserted:
            insert_whole(arr, *fp)
        assert logical(arr) == Counter((*fp, 0) for fp in inserted)

    def test_rejects_insert_past_load_cap(self):
        arr = SlotArray(C44)
        for qt in range(15):
            arr.insert_fp(qt, 1)
        with pytest.raises(FilterFullError):
            arr.insert_fp(15, 1)
        # nothing was written by the refused insert
        assert arr.used_count == 15 and arr.fp_count == 15


class TestFindRun:
    def test_empty(self):
        arr = SlotArray(C44)
        assert all(find_run(arr, qt) is None for qt in range(16))

    def test_singleton(self):
        arr = SlotArray(C44)
        arr.insert_fp(3, 0xA)
        assert find_run(arr, 3) == (3, 1)

    def test_includes_trailing_extension_and_counter_slots(self):
        arr = SlotArray(FilterConfig(q=8, r=4))
        mid, rank = insert_whole(arr, 10, 7, (1, 2), 4)
        assert find_run(arr, 10) == (10, 4)

    def test_random_layout_consistent_with_decoder(self):
        rng = np.random.default_rng(33)
        arr = SlotArray(FilterConfig(q=8, r=4))
        for fp in random_fps(rng, 8, 4, 110, max_ext=1, max_count=2):
            insert_whole(arr, *fp)
        by_qt = {}
        for rec in decode_raw(arr):
            by_qt.setdefault(rec[0], []).append(rec)
        digits = lambda c: max(0, (max(c - 1, 0)).bit_length() + 3) // 4 if c > 1 else 0
        seen_slots = 0
        ranges = {}
        for qt, recs in by_qt.items():
            start, length = find_run(arr, qt)
            width = sum(1 + len(e) + digits(c) for _, _, e, c, _ in recs)
            assert length == width
            # run must begin with its first fingerprint's remainder
            assert int(arr.slots[start]) >> arr.value_bits == recs[0][1]
            ranges[qt] = (start, length)
            seen_slots += length
        assert seen_slots == arr.used_count
        # ranges tile the used slots without overlap
        covered = set()
        for start, length in ranges.values():
            span = {(start + i) % arr.nslots for i in range(length)}
            assert not (span & covered)
            covered |= span
        assert all(_bit(arr.used, s) for s in covered)

    def test_unoccupied_quotient_in_live_cluster(self):
        arr = SlotArray(C44)
        arr.insert_fp(3, 1)
        arr.insert_fp(3, 2)
        # slot 4 is used by quotient 3's run, but quotient 4 has no run
        assert find_run(arr, 4) is None


class TestQueryFp:
    def test_empty_filter_is_negative(self):
        arr = SlotArray(C44)
        assert arr.query_fp(HashStream(99, 0)) is None

    def test_inserted_baseline_matches_its_key(self):
        cfg = FilterConfig(q=8, r=9, seed=4)
        arr = SlotArray(cfg)
        s = HashStream(1234, 4)
        arr.insert_fp(*split(s, cfg))
        assert arr.query_fp(s) == (0, 0, 0)

    def test_reports_rank_and_matched_extension_length(self):
        cfg = FilterConfig(q=8, r=4, seed=4)
        arr = SlotArray(cfg)
        s = HashStream(1234, 4)
        qt, rem = split(s, cfg)
        mid, _ = arr.insert_fp(qt, rem)
        arr.insert_fp(qt, rem)
        arr.extend_fp(mid, 0, [extension_chunk(s, cfg, 0)])
        assert arr.query_fp(s) == (0, 1, 0)
        arr.extend_fp(mid, 0, [extension_chunk(s, cfg, 1) ^ 1])
        # rank 0 now disagrees with the stream's second chunk; rank 1 is bare
        assert arr.query_fp(s) == (1, 0, 0)

    def test_agrees_with_prefix_semantics_at_random(self):
        cfg = FilterConfig(q=8, r=4, seed=6)
        rng = np.random.default_rng(34)
        arr = SlotArray(cfg)
        stored = rng.integers(0, 1 << 48, size=180, dtype=np.uint64)
        baselines = set()
        for k in stored:
            arr.insert_fp(*split(HashStream(int(k), 6), cfg))
            baselines.add(ref_split(int(k), 6, 8, 4))
        probes = rng.integers(0, 1 << 48, size=3000, dtype=np.uint64)
        for p in probes:
            hit = arr.query_fp(HashStream(int(p), 6))
            assert (hit is not None) == (ref_split(int(p), 6, 8, 4) in baselines)


class TestCounters:
    def test_singleton_count_occupies_no_slots(self):
        arr = SlotArray(FilterConfig(q=8, r=4))
        mid, rank = arr.insert_fp(9, 3)
        arr.set_count(mid, rank, 1)
        assert arr.get_count(mid, rank) == 1
        assert arr.used_count == 1 and arr.ctr_slot_count == 0

    def test_count_two_stores_one_digit(self):
        arr = SlotArray(FilterConfig(q=8, r=4))
        mid, rank = arr.insert_fp(9, 3)
        arr.set_count(mid, rank, 2)
        assert arr.get_count(mid, rank) == 2
        assert arr.ctr_slot_count == 1
        assert decode_raw(arr) == [(9, 3, (), 2, 0)]
        assert int(arr.slots[10]) == 1
        assert _bit(arr.ext, 10) and _bit(arr.run, 10)

    @pytest.mark.parametrize("r", [4, 9])
    def test_roundtrip_across_magnitudes(self, r):
        cfg = FilterConfig(q=8, r=r)
        arr = SlotArray(cfg)
        mid, rank = arr.insert_fp(200, 1)
        rng = np.random.default_rng(35)
        counts = [1, 2, 3, (1 << r), (1 << r) + 1, 1 << 20] + [
            int(c) for c in np.exp(rng.uniform(0, np.log(2**20), size=50)).astype(np.int64) + 1
        ]
        for c in counts:
            arr.set_count(mid, rank, c)
            assert arr.get_count(mid, rank) == c
            assert decode_raw(arr) == [(200, 1, (), c, 0)]
        arr.set_count(mid, rank, 1)
        assert arr.used_count == 1 and arr.ctr_slot_count == 0

    def test_rejects_nonpositive_count(self):
        arr = SlotArray(C44)
        mid, rank = arr.insert_fp(0, 0)
        with pytest.raises(ValueError):
            arr.set_count(mid, rank, 0)


class TestRemove:
    def test_single_insert_remove_clears_everything(self):
        arr = SlotArray(C44)
        mid, rank = insert_whole(arr, 5, 2, (7,), 3)
        arr.remove_fp(mid, rank)
        assert decode_raw(arr) == []
        assert arr.used_count == arr.fp_count == 0
        assert arr.ext_slot_count == arr.ctr_slot_count == 0
        for vec in (arr.occ, arr.run, arr.ext, arr.used):
            assert not np.any(vec)

    def test_removing_middle_rank_preserves_sibling_order(self):
        arr = SlotArray(FilterConfig(q=8, r=4))
        mid = None
        for mark in [(5,), (11,), (2,)]:
            mid, _ = insert_whole(arr, 40, 6, mark)
        arr.remove_fp(mid, 1)
        assert [rec[2] for rec in decode_raw(arr)] == [(5,), (2,)]

    def test_remove_from_wrapped_cluster(self):
        arr = SlotArray(C44)
        mid, _ = arr.insert_fp(15, 1)
        arr.insert_fp(15, 9)
        arr.insert_fp(0, 4)
        # quotient 15's run holds slots 15 and 0; quotient 0 shifted to 1
        assert decode_raw(arr) == [(15, 1, (), 1, 0), (15, 9, (), 1, 0), (0, 4, (), 1, 0)]
        arr.remove_fp(mid, 0)
        assert decode_raw(arr) == [(15, 9, (), 1, 0), (0, 4, (), 1, 0)]

    def test_missing_rank_raises(self):
        arr = SlotArray(C44)
        mid, _ = arr.insert_fp(5, 2)
        with pytest.raises(NotFoundError):
            arr.remove_fp(mid, 1)
        with pytest.raises(NotFoundError):
            arr.remove_fp(pack_minirun_id(6, 2, C44.r), 0)

    @pytest.mark.parametrize("bad", [0.5, "0"])
    def test_a_rank_or_id_that_is_no_int_is_refused_and_leaves_the_table(self, bad):
        """get_ext, extend_fp and remove_fp refuse a rank, or an id, that
        is no int, a float equal to the id included, before anything
        changes; so does a filter's adapt."""
        arr = SlotArray(C44)
        mid, _ = insert_whole(arr, 5, 2, (7,), 3)
        before = arr.to_bytes()
        for at in ((mid, bad), (float(mid), 0), (bad, 0)):
            for call in (arr.get_ext, partial(arr.remove_fp, shorten=True),
                         lambda mid, rank: arr.extend_fp(mid, rank, [1])):
                with pytest.raises(InvalidConfigError, match="rank|minirun id"):
                    call(*at)
        assert arr.to_bytes() == before
        f = AdaptiveFilter(C44)
        mid, _ = f.insert(1001)
        before = f.to_bytes()
        with pytest.raises(InvalidConfigError, match="rank"):
            f.adapt(mid, bad, 1001, HashStream(1002, C44.seed))
        assert f.to_bytes() == before and f.adaptations == 0


class TestExtendTruncate:
    def test_extend_marks_following_slot(self):
        arr = SlotArray(C44)
        mid, rank = arr.insert_fp(3, 0xA)
        arr.extend_fp(mid, rank, [0x5])
        assert arr.used_count == 2 and arr.ext_slot_count == 1
        assert _bit(arr.ext, 4) == 1 and _bit(arr.run, 4) == 0
        assert decode_raw(arr) == [(3, 0xA, (0x5,), 1, 0)]

    def test_owner_still_matches_after_extension(self):
        cfg = FilterConfig(q=8, r=4, seed=8)
        arr = SlotArray(cfg)
        s = HashStream(31337, 8)
        qt, rem = split(s, cfg)
        mid, rank = arr.insert_fp(qt, rem)
        arr.extend_fp(mid, rank, [extension_chunk(s, cfg, 0), extension_chunk(s, cfg, 1)])
        assert arr.query_fp(s) == (0, 2, 0)

    def test_truncate_back_to_baseline(self):
        # a shortening remove cuts (3, 0xA, (1, 2, 3)) to one chunk past
        # its common prefix with the other survivor, then, once it is
        # alone, back to its baseline
        arr = SlotArray(C44)
        mid, _ = insert_whole(arr, 3, 0xA, (7,))
        insert_whole(arr, 3, 0xA, (1, 2, 3))
        insert_whole(arr, 3, 0xA, (4,))
        arr.remove_fp(mid, 0, shorten=True)
        assert decode_raw(arr) == [(3, 0xA, (1,), 1, 0), (3, 0xA, (4,), 1, 0)]
        arr.remove_fp(mid, 1, shorten=True)
        assert decode_raw(arr) == [(3, 0xA, (), 1, 0)]
        assert arr.used_count == 1 and arr.ext_slot_count == 0

    def test_truncate_keeping_everything_is_a_no_op(self):
        # survivors that need every chunk they have: the shortening
        # remove writes what a plain one does and, as every removal
        # does, drops the cached index
        plain, short = SlotArray(C44), SlotArray(C44)
        for arr in (plain, short):
            mid, _ = insert_whole(arr, 3, 0xA, (1,))
            insert_whole(arr, 3, 0xA, (1, 2))
            insert_whole(arr, 3, 0xA, (1, 3))
        index = short.frozen_index()
        plain.remove_fp(mid, 0)
        short.remove_fp(mid, 0, shorten=True)
        assert short.to_bytes() == plain.to_bytes()
        assert decode_raw(short) == [(3, 0xA, (1, 2), 1, 0), (3, 0xA, (1, 3), 1, 0)]
        assert short.frozen_index() is not index

    def test_random_extend_sequences_match_decoder(self):
        rng = np.random.default_rng(36)
        cfg = FilterConfig(q=9, r=4)
        arr = SlotArray(cfg)
        records = {}
        for qt, rem, _, _ in random_fps(rng, 9, 4, 100):
            mid, rank = arr.insert_fp(qt, rem)
            records[(mid, rank)] = [qt, rem, []]
        for mid, rank in list(records) * 2:
            if rng.random() < 0.5:
                chunks = [int(c) for c in rng.integers(0, 16, size=rng.integers(1, 3))]
                arr.extend_fp(mid, rank, chunks)
                records[(mid, rank)][2].extend(chunks)
        assert logical(arr) == Counter(
            (qt, rem, tuple(ext), 1, 0) for qt, rem, ext in records.values()
        )


class TestAccounting:
    def test_bit_vector_populations_match_counters(self):
        rng = np.random.default_rng(37)
        arr = SlotArray(FilterConfig(q=10, r=4))
        for fp in random_fps(rng, 10, 4, 300, max_ext=2, max_count=5):
            insert_whole(arr, *fp)
        recs = decode_raw(arr)
        digits = lambda c: 0 if c == 1 else -(-int.bit_length(c - 1) // 4)
        assert int(np.bitwise_count(arr.used).sum()) == arr.used_count
        assert arr.used_count == sum(1 + len(e) + digits(c) for _, _, e, c, _ in recs)
        assert int(np.bitwise_count(arr.occ).sum()) == len({r[0] for r in recs})
        assert int(np.bitwise_count(arr.ext).sum()) == arr.ext_slot_count + arr.ctr_slot_count
        # runend marks one terminator per run plus every counter digit
        assert int(np.bitwise_count(arr.run).sum()) == len({r[0] for r in recs}) + arr.ctr_slot_count
        assert arr.fp_count == len(recs)
        assert arr.ext_slot_count == sum(len(e) for _, _, e, _, _ in recs)

    def test_space_report_tracks_contents(self):
        arr = SlotArray(FilterConfig(q=10, r=6))
        for qt in range(50):
            arr.insert_fp(qt * 19 % 1024, qt)
        rep = arr.space_report()
        assert rep.extension_slots == 0 and rep.counter_slots == 0
        assert rep.load_factor == 50 / 1024
        assert rep.bits_per_item == rep.total_bits / 50

    def test_runs_keep_remainders_sorted(self):
        rng = np.random.default_rng(38)
        arr = SlotArray(FilterConfig(q=8, r=8))
        for fp in random_fps(rng, 8, 8, 220):
            insert_whole(arr, *fp)
        by_qt = {}
        for qt, rem, _, _, _ in decode_raw(arr):
            by_qt.setdefault(qt, []).append(rem)
        for rems in by_qt.values():
            assert rems == sorted(rems)


class TestSnapshot:
    def roundtrip(self, arr):
        blob = arr.to_bytes()
        back = SlotArray.from_bytes(blob)
        assert decode_raw(back) == decode_raw(arr)
        assert back.to_bytes() == blob
        assert (back.used_count, back.fp_count) == (arr.used_count, arr.fp_count)
        assert np.array_equal(back.used, arr.used)
        return back

    def test_empty_and_small(self):
        self.roundtrip(SlotArray(C44))
        arr = SlotArray(C44)
        insert_whole(arr, 3, 0xA, (1,), 3)
        self.roundtrip(arr)

    def test_random_contents(self):
        rng = np.random.default_rng(39)
        arr = SlotArray(FilterConfig(q=10, r=7, seed=123))
        for fp in random_fps(rng, 10, 7, 250, max_ext=2, max_count=9):
            insert_whole(arr, *fp)
        back = self.roundtrip(arr)
        assert back.cfg == arr.cfg

    def test_cluster_wrapping_the_seam(self):
        arr = SlotArray(C44)
        for rem in (1, 5, 9, 13):
            arr.insert_fp(14, rem)
        insert_whole(arr, 15, 2, (6,))
        # the run for 14 covers 14..1, pushing 15's past the wrap
        self.roundtrip(arr)

    def test_value_payloads_survive(self):
        arr = SlotArray(FilterConfig(q=6, r=5), value_bits=2)
        arr.insert_fp(7, 9, value=3)
        arr.insert_fp(7, 9, value=1)
        back = self.roundtrip(arr)
        assert [rec[4] for rec in decode_raw(back)] == [3, 1]

    def test_corrupt_snapshots_are_rejected(self):
        arr = SlotArray(C44)
        arr.insert_fp(3, 0xA)
        blob = arr.to_bytes()
        with pytest.raises(FormatError):
            SlotArray.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError):
            SlotArray.from_bytes(blob[:-3])
        with pytest.raises(FormatError):
            SlotArray.from_bytes(blob + b"\0")
        with pytest.raises(FormatError, match="checksum"):
            SlotArray.from_bytes(encode_slots_v1(arr))
        with pytest.raises(FormatError, match="version 1"):
            SlotArray.from_bytes(reseal(encode_slots_v1(arr) + bytes(4)))
        # the used-slot count (bytes 18-25) must be the table's, 1 here,
        # and within the load cap, and the anchor (bytes 26-33) must be
        # the first unused slot: 0 here
        for at, value, match in ((18, 2, "decoded 1 used slots, header says 2"),
                                 (18, 16, "used-slot count exceeds the load limit"),
                                 (26, 1, "not the first unused"), (26, 3, "decoded as used"),
                                 (26, 16, "outside the table")):
            bad = bytearray(blob)
            bad[at : at + 8] = value.to_bytes(8, "little")
            with pytest.raises(FormatError, match=match):
                SlotArray.from_bytes(reseal(bad))

    def test_file_roundtrip(self, tmp_path):
        arr = SlotArray(C44)
        arr.insert_fp(2, 2)
        p = tmp_path / "table.aqf"
        p.write_bytes(arr.to_bytes())
        assert decode_raw(SlotArray.from_bytes(p.read_bytes())) == decode_raw(arr)


@st.composite
def payload_arrays(draw):
    """(payloads below 2**w, w) for any slot width w; up to 300 slots, so
    that some tables end in a partial group of 64."""
    w = draw(st.integers(1, 63))
    values = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=300))
    return np.array(values, dtype=np.uint64), w


class TestPayloadCodec:
    """The word-arithmetic packing against the bit-matrix reference."""

    @settings(max_examples=300, deadline=None)
    @given(case=payload_arrays())
    def test_pack_matches_the_bit_matrix_and_unpack_inverts_it(self, case):
        payloads, w = case
        packed = core._pack_slots(payloads, w)
        assert packed.tobytes() == payload_bits(payloads, w)
        assert np.array_equal(core._unpack_slots(packed, len(payloads), w), payloads)

    @pytest.mark.parametrize("w", [1, 7, 9, 32, 63])
    def test_blocks_join_seamlessly(self, monkeypatch, w):
        """With two groups a block, 300 slots take three blocks, the last
        of one partial group."""
        monkeypatch.setattr(core, "_CODEC_GROUPS", 2)
        payloads = np.random.default_rng(w).integers(0, 1 << w, size=300, dtype=np.uint64)
        packed = core._pack_slots(payloads, w)
        assert packed.tobytes() == payload_bits(payloads, w)
        assert np.array_equal(core._unpack_slots(packed, 300, w), payloads)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_filters_with_value_bits_round_trip(self, q):
        """Tagged keys up to an eighth of the table short of the load
        cap, then false positives corrected into that room: the
        snapshot's payloads are the oracle's packing of the table's, and
        it reloads to the same bytes."""
        f = AdaptiveFilter(FilterConfig(q=q, r=5, seed=q), value_bits=2)
        rng = np.random.default_rng(q)
        keys = iter(rng.integers(0, 1 << 62, size=1 << 12).tolist())
        while f.arr.has_room(1 + (1 << q) // 8):
            f.insert(next(keys), tag=len(f) & 3)
        for key in rng.integers(1 << 62, 1 << 63, size=500).tolist():
            f.lookup(key)
        assert f.arr.ext_slot_count or q < 3
        blob = f.arr.to_bytes()
        rows, pay = slot_fields(blob)
        assert np.array_equal(pay, f.arr.slots)
        assert with_slot_fields(blob, rows, pay) == blob
        assert SlotArray.from_bytes(blob).to_bytes() == blob
        whole = f.to_bytes()
        back = AdaptiveFilter.from_bytes(whole)
        assert back.to_bytes() == whole
        back.check_consistency()


class TestFrozenIndex:
    def test_matches_scalar_queries(self):
        cfg = FilterConfig(q=10, r=6, seed=10)
        rng = np.random.default_rng(40)
        arr = SlotArray(cfg)
        keys = rng.integers(0, 1 << 62, size=400, dtype=np.uint64)
        mids = []
        for k in keys:
            s = HashStream(int(k), 10)
            mids.append(arr.insert_fp(*split(s, cfg)))
        for (mid, rank), k in list(zip(mids, keys))[::3]:
            s = HashStream(int(k), 10)
            arr.extend_fp(mid, rank, [extension_chunk(s, cfg, 0)])
        index = FrozenIndex(arr.cfg, arr._columns())
        probes = np.concatenate([keys, rng.integers(0, 1 << 62, size=20_000, dtype=np.uint64)])
        got = index.query_keys(probes)
        assert got[: len(keys)].all()
        for k, verdict in zip(probes[::37], got[::37]):
            assert verdict == (arr.query_fp(HashStream(int(k), 10)) is not None)
            assert index.query_keys(np.array([k], dtype=np.uint64))[0] == verdict


def assert_index_exact(arr, probes):
    """FrozenIndex verdicts equal the slot walk on every probe."""
    index = FrozenIndex(arr.cfg, arr._columns())
    got = index.query_keys(probes)
    want = [arr.query_fp(HashStream(int(k), arr.cfg.seed)) is not None for k in probes]
    assert got.tolist() == want
    index.CHUNK = 37  # probe chunk boundaries fall mid-batch
    assert index.query_keys(probes).tolist() == want
    return index


def probe_fp(cfg, key, ext_len, differ, count=1):
    """key's baseline pair and first ext_len chunks, chunk differ flipped."""
    s = HashStream(key, cfg.seed)
    ext = [extension_chunk(s, cfg, t) for t in range(ext_len)]
    if differ < ext_len:
        ext[differ] ^= 1
    return (*split(s, cfg), tuple(ext), count)


def assert_fresh(index, arr, probes):
    """index equals a fresh FrozenIndex of arr's columns, field for field
    and on the probes."""
    want = FrozenIndex(arr.cfg, arr._columns())
    assert vars(index).keys() == vars(want).keys() and index.cfg == want.cfg
    for name, col in vars(want).items():
        if isinstance(col, np.ndarray):
            got = getattr(index, name)
            assert got.dtype == col.dtype and got.shape == col.shape, name
            assert (got == col).all(), name
    assert index.query_keys(probes).tolist() == want.query_keys(probes).tolist()


# where a stored fingerprint comes from: a probe key's own hash (so probes
# meet its extension chunks), the top quotient (so its cluster wraps the
# seam) or any quotient
fp_spec = st.tuples(
    st.sampled_from(["probe", "top", "any"]),
    st.integers(0, 1 << 16),
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from([1, 1, 1, 2, 40]),
)


# slot widths r + value_bits on both sides of each slot dtype's edge
SLOT_DTYPES = {8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32, 32: np.uint32,
               33: np.uint64, 63: np.uint64}


@st.composite
def width_tables(draw):
    """(cfg, value bits, fingerprint specs, values, long): a table whose
    payloads are w bits wide for a w of SLOT_DTYPES; with long, q is 9
    and one fingerprint carries 255 extension chunks and counter digits."""
    w = draw(st.sampled_from(sorted(SLOT_DTYPES)))
    long = draw(st.booleans())
    q = 9 if long else draw(st.integers(2, 6))
    r = draw(st.integers(1, min(w, 56, 64 - q)))
    specs = draw(st.lists(fp_spec, max_size=30))
    values = draw(st.lists(st.integers(0, (1 << (w - r)) - 1), min_size=len(specs),
                           max_size=len(specs)))
    cfg = FilterConfig(q=q, r=r, seed=draw(st.integers(0, 1 << 16)))
    return cfg, w - r, specs, values, long


class TestSlotWidths:
    """Slots, columns and snapshots at the edges of the slot dtypes."""

    @settings(max_examples=120, deadline=None)
    @given(table=width_tables())
    def test_tables_round_trip_at_every_slot_width(self, table):
        cfg, value_bits, specs, values, long = table
        n, r = cfg.nslots, cfg.r
        probes = np.random.default_rng(cfg.seed).integers(0, 1 << 64, size=300,
                                                          dtype=np.uint64)
        arr = SlotArray(cfg, value_bits=value_bits)
        if long:
            # 255 chunks, then c - 1 = 2**(2r) + 1: three counter digits
            insert_whole(arr, *probe_fp(cfg, int(probes[0]), 255, 255, (1 << 2 * r) + 2),
                         value=values[0] if values else 0)
        for (source, a, ext_len, differ, count), value in zip(specs, values):
            if source == "probe":
                fp = probe_fp(cfg, int(probes[a % len(probes)]), ext_len, differ, count)
            else:
                qt = n - 1 if source == "top" else a % n
                ext = tuple((a >> (2 * t)) % (1 << r) for t in range(ext_len))
                fp = (qt, a % (1 << r), ext, count)
            try:
                insert_whole(arr, *fp, value=value)
            except FilterFullError:
                break
        assert arr.slots.dtype == SLOT_DTYPES[r + value_bits]
        cols = arr._columns()
        assert [col.dtype for col in cols] == [np.int32, *[arr.slots.dtype] * 2,
                                                *[np.int32] * 3, arr.slots.dtype]
        if long:
            assert cols.ext_len.max() == 255 and cols.ctr_len[cols.ext_len.argmax()] == 3
        # the layout writer rewrites the table's own bytes
        blob = arr.to_bytes()
        assert relaid(arr).to_bytes() == blob
        # the snapshot is the reference packing of the table's bits and payloads
        bits = [np.unpackbits(vec.view(np.uint8), bitorder="little")[:n].astype(bool)
                for vec in (arr.occ, arr.run, arr.ext)]
        assert with_slot_fields(blob, bits, arr.slots) == blob
        assert np.array_equal(slot_fields(blob)[1], arr.slots)
        back = SlotArray.from_bytes(blob)
        assert back.slots.dtype == arr.slots.dtype and back.to_bytes() == blob
        # the bulk verdicts are the scalar walk's
        want = [arr.query_fp(HashStream(int(k), cfg.seed)) is not None for k in probes]
        assert arr.frozen_index().query_keys(probes).tolist() == want
        if long:
            assert want[0]


class TestFrozenIndexExact:
    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(2, 8), r=st.integers(1, 4), seed=st.integers(0, 1 << 16),
           specs=st.lists(fp_spec, max_size=40))
    def test_every_probe_matches_the_slot_walk(self, q, r, seed, specs):
        cfg = FilterConfig(q=q, r=r, seed=seed)
        probes = np.random.default_rng(seed).integers(0, 1 << 64, size=500, dtype=np.uint64)
        arr = SlotArray(cfg)
        for source, a, ext_len, differ, count in specs:
            if source == "probe":
                fp = probe_fp(cfg, int(probes[a % len(probes)]), ext_len, differ, count)
            else:
                qt = (1 << q) - 1 if source == "top" else a % (1 << q)
                ext = tuple((a >> (2 * t)) % (1 << r) for t in range(ext_len))
                fp = (qt, a % (1 << r), ext, count)
            try:
                insert_whole(arr, *fp)
            except FilterFullError:
                break
        assert_index_exact(arr, probes)

    def test_empty_table(self):
        arr = SlotArray(FilterConfig(q=3, r=2, seed=1))
        probes = np.arange(2000, dtype=np.uint64)
        index = assert_index_exact(arr, probes)
        assert index.base.size == 0 and not index.query_keys(probes).any()

    def test_all_extended_cluster_across_the_seam(self):
        cfg = FilterConfig(q=4, r=2, seed=5)
        top = (1 << cfg.q) - 1
        probes = np.arange(4000, dtype=np.uint64)
        on_top = [int(k) for k in probes
                  if split(HashStream(int(k), cfg.seed), cfg)[0] == top]
        arr = SlotArray(cfg)
        # three all-extended fingerprints in the top quotient's run, one
        # of them a two-fingerprint minirun, and a bare pair at quotient 0
        for key, ext_len, differ in ((on_top[0], 1, 5), (on_top[0], 2, 1),
                                     (on_top[1], 2, 0), (on_top[2], 1, 5)):
            insert_whole(arr, *probe_fp(cfg, key, ext_len, differ))
        arr.insert_fp(0, 1)
        index = assert_index_exact(arr, probes)
        # the top quotient's extended pairs, and no other, list their rows
        listed = {pack_minirun_id(*split(HashStream(k, cfg.seed), cfg), cfg.r) for k in on_top[:3]}
        assert set(index.cand_packed.tolist()) == listed
        assert index.dir[-1] == index.base.size
        # slot 0 is used, yet quotient 0's run follows the top run there
        assert _bit(arr.used, 0) and _bit(arr.occ, 0)
        assert find_run(arr, 0)[0] > 0
        hits = index.query_keys(probes)
        assert hits[[on_top[0], on_top[2]]].all() and 0 < hits.sum() < len(probes)

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(3, 8), r=st.integers(1, 3), seed=st.integers(0, 1 << 16),
           wide=st.booleans(), n_keys=st.integers(0, 200), shorten=st.booleans(),
           steps=st.lists(st.sampled_from(["lookup", "lookup", "delete", "insert", "again"]),
                          min_size=1, max_size=8))
    def test_patched_index_equals_a_fresh_build(self, q, r, seed, wide, n_keys, shorten, steps):
        """Adapting lookups between calls of frozen_index: its index
        equals a fresh FrozenIndex of the table every time, is patched
        from the last one (same base array) after extensions alone, is
        rebuilt after a delete or an insert, comes back as the same
        object when nothing changed, and leaves every index handed out
        before as it was.

        Every minirun id is the (quotient << r) | remainder pair that
        hash order sorts, also when wide remainders (r = 56) put q + r at
        up to 64 bits: insert returns the key's split_batch pair, the
        map's ids ascend and are the table's column pairs, and the
        index's base holds each pair's remainder once, the remainders
        strictly ascending inside every quotient's bucket."""
        cfg = FilterConfig(q=q, r=56 if wide else r, seed=seed)
        rng = np.random.default_rng(seed)
        f = AdaptiveFilter(cfg, policy=Policy(shorten_on_delete=shorten))

        def insert(key):
            mid, _ = f.insert(key)
            assert mid == int(split_batch(np.array([key], dtype=np.uint64), cfg)[0])

        stored = []
        for k in rng.integers(0, 1 << 62, size=n_keys, dtype=np.uint64).tolist():
            try:
                insert(k)
            except FilterFullError:
                break
            stored.append(k)
        probes = rng.integers(1 << 62, 1 << 63, size=400, dtype=np.uint64)
        handed = []  # (index, copy of its arrays)
        last = None
        for step in steps:
            adapted = f.adaptations
            if step == "delete" and stored:
                f.delete(stored.pop(int(rng.integers(len(stored)))))
            elif step == "insert":
                try:
                    insert(int(rng.integers(0, 1 << 62)))
                except FilterFullError:
                    step = "again"
            elif step == "lookup":
                f.lookup_many(rng.choice(probes, size=60))
            else:
                step = "again"
            got = f.frozen_index()
            assert_fresh(got, f.arr, probes)
            mids = f.map._rows()[0] >> np.uint64(64 - cfg.q - cfg.r)
            assert (mids[1:] >= mids[:-1]).all()
            assert np.array_equal(mids, f.arr._columns().packed(cfg.r))
            starts = np.zeros(got.base.size + 1, dtype=bool)
            starts[got.dir] = True
            assert got.dir[-1] == got.base.size
            assert (got.base[1:] > got.base[:-1])[~starts[1:-1]].all()
            if last is not None:
                if step in ("delete", "insert"):
                    assert got.base is not last.base
                elif f.adaptations > adapted:
                    assert got is not last and got.base is last.base
                else:
                    assert got is last
            assert f.frozen_index() is got
            for index, arrays in handed:
                assert all((getattr(index, k) == v).all() for k, v in arrays.items())
            handed.append((got, {k: v.copy() for k, v in vars(got).items()
                                 if isinstance(v, np.ndarray)}))
            last = got

    def test_patch_lists_every_row_of_a_pair_once_one_of_its_fingerprints_is_extended(self):
        cfg = FilterConfig(q=4, r=2, seed=7)
        probes = np.arange(3000, dtype=np.uint64)
        arr = SlotArray(cfg)
        for fp in ((3, 1), (3, 1), (3, 2, (1,)), (9, 0)):
            insert_whole(arr, *fp)
        first = arr.frozen_index()
        twins, other = pack_minirun_id(3, 1, cfg.r), pack_minirun_id(3, 2, cfg.r)
        arr.extend_fp(twins, 0, [2, 3])
        half = arr.frozen_index()
        assert_fresh(half, arr, probes)
        # the twins pair lists its extended row and its bare one
        assert half.cand_packed.tolist() == [twins, twins, other]
        assert half.cand_len.tolist() == [2, 0, 1]
        arr.extend_fp(twins, 1, [1])
        # a longer extension than any before widens the chunk matrix
        arr.extend_fp(other, 0, [0, 0, 1])
        full = arr.frozen_index()
        assert_fresh(full, arr, probes)
        assert full.cand_len.tolist() == [2, 1, 4]
        assert full.base is half.base is first.base and full.dir is first.dir
        assert first.cand_packed.tolist() == [other] and first.cand_len.tolist() == [1]
